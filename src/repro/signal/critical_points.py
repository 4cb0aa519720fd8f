"""Critical-point extraction: turning points and crossing points.

The heart of PTrack's gait-type identification (SIII-B1) is comparing
*where* each projected axis reaches its critical points:

* a **turning point** is a local extremum (peak or valley) of a signal;
* a **crossing point** is a zero crossing — the paper defines it as the
  moment one axis sits at a turning point while the perpendicular axis
  equals zero, which for the matching logic reduces to collecting the
  zero crossings of each axis.

For a rigid single-source motion the two projected axes are functions
of one underlying angle, so their critical points land at (almost) the
same sample indices; for walking — arm swing superposed on body bounce
— the combined signals shift their critical points apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.exceptions import SignalError
from repro.signal.peaks import detect_peaks, detect_valleys

__all__ = [
    "CriticalPointKind",
    "CriticalPoint",
    "turning_points",
    "zero_crossings",
    "critical_points",
]


class CriticalPointKind(enum.Enum):
    """Kind of a critical point on one projected axis."""

    PEAK = "peak"
    VALLEY = "valley"
    CROSSING = "crossing"

    @property
    def is_turning(self) -> bool:
        """True for peaks and valleys."""
        return self is not CriticalPointKind.CROSSING


@dataclass(frozen=True, order=True)
class CriticalPoint:
    """A critical point located at a sample index.

    Ordering is by ``index`` so lists of critical points sort into time
    order naturally.

    Attributes:
        index: Sample index within the analysed segment.
        kind: Whether the point is a peak, valley or zero crossing.
    """

    index: int
    kind: CriticalPointKind


def turning_points(
    x: np.ndarray,
    min_prominence: float = 0.0,
    min_distance: int = 1,
) -> List[CriticalPoint]:
    """Peaks and valleys of a signal as :class:`CriticalPoint` objects.

    Args:
        x: 1-D signal segment.
        min_prominence: Prominence floor passed to the peak detector;
            filters out noise wiggles that would flood the matching.
        min_distance: Minimum spacing between same-kind extrema.

    Returns:
        Time-ordered list of PEAK/VALLEY points.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise SignalError(f"signal must be 1-D, got shape {arr.shape}")
    pts = [
        CriticalPoint(int(i), CriticalPointKind.PEAK)
        for i in detect_peaks(arr, min_prominence, min_distance)
    ]
    pts += [
        CriticalPoint(int(i), CriticalPointKind.VALLEY)
        for i in detect_valleys(arr, min_prominence, min_distance)
    ]
    return sorted(pts)


def zero_crossings(x: np.ndarray, hysteresis: float = 0.0) -> List[CriticalPoint]:
    """Zero crossings of a signal, with optional amplitude hysteresis.

    A crossing is registered at the first sample on the far side of
    zero. With ``hysteresis > 0`` the signal must travel beyond
    ``±hysteresis`` on each side before another crossing can register,
    suppressing chatter when the signal hovers near zero.

    Hysteresis is a state machine over the *armed* samples only (those
    beyond ``±hysteresis``): samples inside the dead band never change
    the armed sign, so the crossings are exactly the sign changes of
    the armed subsequence — which is what the vectorised form below
    computes. The stateful per-sample reference lives in
    ``tests/scalar_references.py``; the property suite asserts the
    two identical.

    Args:
        x: 1-D signal segment.
        hysteresis: Minimum excursion required between crossings.

    Returns:
        Time-ordered list of CROSSING points.
    """
    arr = _validate_crossing_args(x, hysteresis)
    if arr.size < 2:
        return []
    signs = np.zeros(arr.size, dtype=np.int8)
    signs[arr > hysteresis] = 1
    signs[arr < -hysteresis] = -1
    armed = np.flatnonzero(signs)
    if armed.size < 2:
        return []
    armed_signs = signs[armed]
    flips = np.flatnonzero(armed_signs[1:] != armed_signs[:-1]) + 1
    return [
        CriticalPoint(int(i), CriticalPointKind.CROSSING) for i in armed[flips]
    ]


def _validate_crossing_args(x: np.ndarray, hysteresis: float) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise SignalError(f"signal must be 1-D, got shape {arr.shape}")
    if hysteresis < 0:
        raise SignalError(f"hysteresis must be >= 0, got {hysteresis}")
    return arr


def critical_points(
    x: np.ndarray,
    min_prominence: float = 0.0,
    min_distance: int = 1,
    crossing_hysteresis: float = 0.0,
) -> List[CriticalPoint]:
    """All critical points of a signal: turning points plus zero crossings.

    Duplicate indices (a crossing coinciding with an extremum, possible
    on noisy plateaus) are collapsed, keeping the turning point, since
    turning points carry the stronger timing evidence.

    Args:
        x: 1-D signal segment; should be detrended (zero-mean) so that
            "zero" is the oscillation midline.
        min_prominence: Prominence floor for turning points.
        min_distance: Minimum spacing for turning points.
        crossing_hysteresis: Hysteresis for zero crossings.

    Returns:
        Time-ordered list of critical points.
    """
    turns = turning_points(x, min_prominence, min_distance)
    crossings = zero_crossings(x, crossing_hysteresis)
    taken = {p.index for p in turns}
    merged = turns + [p for p in crossings if p.index not in taken]
    return sorted(merged)
