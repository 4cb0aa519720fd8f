"""Digital signal processing substrate for pedestrian tracking.

This package contains every low-level signal primitive that the
pipelines in :mod:`repro.core` and :mod:`repro.baselines` are composed
from: filtering, peak detection, gait-cycle segmentation, mean-removal
integration, correlation utilities, axis projection, critical-point
extraction, windowing and activity features.

All functions operate on plain :class:`numpy.ndarray` inputs so the
substrate is reusable outside the PTrack pipeline.
"""

from repro.signal.correlation import (
    autocorrelation,
    best_lag,
    half_cycle_correlation,
    normalized_cross_correlation,
    phase_difference_fraction,
)
from repro.signal.critical_points import (
    CriticalPoint,
    CriticalPointKind,
    critical_points,
    turning_points,
    zero_crossings,
)
from repro.signal.features import FEATURE_NAMES, activity_features
from repro.signal.filters import (
    butter_lowpass,
    detrend_mean,
    gravity_component,
    moving_average,
)
from repro.signal.integration import (
    cumulative_trapezoid,
    double_integrate_mean_removal,
    integrate_mean_removal,
    peak_to_peak_displacement,
)
from repro.signal.peaks import detect_peaks, detect_valleys, peak_prominences
from repro.signal.projection import (
    anterior_direction,
    project_horizontal,
)
from repro.signal.resample import resample_trace, split_on_gaps
from repro.signal.segmentation import (
    Segment,
    segment_gait_cycles,
    sliding_windows,
)

__all__ = [
    "autocorrelation",
    "best_lag",
    "half_cycle_correlation",
    "normalized_cross_correlation",
    "phase_difference_fraction",
    "CriticalPoint",
    "CriticalPointKind",
    "critical_points",
    "turning_points",
    "zero_crossings",
    "FEATURE_NAMES",
    "activity_features",
    "butter_lowpass",
    "detrend_mean",
    "gravity_component",
    "moving_average",
    "cumulative_trapezoid",
    "double_integrate_mean_removal",
    "integrate_mean_removal",
    "peak_to_peak_displacement",
    "detect_peaks",
    "detect_valleys",
    "peak_prominences",
    "anterior_direction",
    "project_horizontal",
    "Segment",
    "resample_trace",
    "segment_gait_cycles",
    "split_on_gaps",
    "sliding_windows",
]
