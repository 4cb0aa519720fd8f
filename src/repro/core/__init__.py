"""PTrack core: the paper's primary contribution.

Three cooperating components (Fig. 2 of the paper):

* :class:`PTrackStepCounter` — training-free gait-type identification
  on top of the classic filter / peak-detect / segment stack, via the
  critical-point offset metric (Eq. 1) and the stepping admission test
  (half-cycle auto-correlation + fixed phase difference, Fig. 4).
* :class:`PTrackStrideEstimator` — per-step stride from wrist signals,
  via the body-bounce geometry of Eqs. (3)-(5) and the biomechanical
  stride model of Eq. (2).
* :class:`SelfTrainer` — automatic discovery of the user's arm and leg
  lengths, replacing error-prone manual measurement.

:class:`PTrack` bundles all three behind one call.
"""

from repro.core.bounce import (
    CycleMoments,
    direct_bounce,
    extract_cycle_moments,
    solve_bounce,
    solve_bounce_block,
)
from repro.core.adaptive import AdaptiveDelta, AdaptiveDeltaCounter, otsu_threshold
from repro.core.config import PTrackConfig
from repro.core.offset import cycle_offset
from repro.core.pipeline import PTrack
from repro.core.selftrain import CalibrationWalk, SelfTrainer, train_arm_length, train_leg_length
from repro.core.step_counter import PTrackStepCounter
from repro.core.streaming import StreamingOpStats, StreamingPTrack
from repro.core.stepping import has_fixed_phase_difference, stepping_correlation
from repro.core.stride import (
    PTrackStrideEstimator,
    stride_from_bounce_model,
    stride_rows_from_bounce,
)

__all__ = [
    "AdaptiveDelta",
    "AdaptiveDeltaCounter",
    "CalibrationWalk",
    "CycleMoments",
    "PTrack",
    "PTrackConfig",
    "PTrackStepCounter",
    "PTrackStrideEstimator",
    "SelfTrainer",
    "cycle_offset",
    "direct_bounce",
    "extract_cycle_moments",
    "has_fixed_phase_difference",
    "StreamingOpStats",
    "StreamingPTrack",
    "otsu_threshold",
    "solve_bounce",
    "solve_bounce_block",
    "stepping_correlation",
    "stride_from_bounce_model",
    "stride_rows_from_bounce",
    "train_arm_length",
    "train_leg_length",
]
