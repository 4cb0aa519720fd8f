"""Shared value types used across the PTrack reproduction library.

These are deliberately small, immutable dataclasses: they carry results
between pipeline stages (Fig. 2 of the paper) without coupling the
stages to each other's internals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class GaitType(enum.Enum):
    """Classification of one gait-cycle candidate.

    The PTrack step counter (paper SIII-B) sorts every candidate cycle
    into one of three buckets; only the first two update the counter.
    """

    WALKING = "walking"
    """Arm swing + body movement superposed (offset test fired)."""

    STEPPING = "stepping"
    """Body movement with the arm rigid w.r.t. the body (C > 0 and a
    fixed quarter-period phase difference, multiple consecutive cycles)."""

    INTERFERENCE = "interference"
    """A rigid arm/hand activity that must not count as steps."""


class ActivityKind(enum.Enum):
    """Ground-truth label of a simulated activity segment."""

    WALKING = "walking"
    STEPPING = "stepping"
    SWINGING = "swinging"
    EATING = "eating"
    POKER = "poker"
    PHOTO = "photo"
    GAME = "game"
    MOUSE = "mouse"
    KEYSTROKE = "keystroke"
    WATCH_GLANCE = "watch_glance"
    SPOOFING = "spoofing"
    IDLE = "idle"

    @property
    def is_pedestrian(self) -> bool:
        """True when segments of this kind contribute genuine steps."""
        return self in (ActivityKind.WALKING, ActivityKind.STEPPING)


class Posture(enum.Enum):
    """Body posture during an interfering activity (Fig. 1 uses both)."""

    STANDING = "standing"
    SEATED = "seated"


@dataclass(frozen=True)
class StepEvent:
    """A single counted step.

    Attributes:
        time: Timestamp of the step (seconds from trace start).
        index: Sample index of the step within the source trace.
        gait_type: The gait classification of the cycle that produced it.
        cycle_id: Index of the gait cycle the step belongs to.
    """

    time: float
    index: int
    gait_type: GaitType
    cycle_id: int

    # Credits are kept by the thousand (settled-credit lists, pickled
    # checkpoints), so they carry no per-instance ``__dict__``. Pickle
    # and copy rebuild through ``__init__``: restoring slot state would
    # ``setattr`` on a frozen instance, and ``dataclass(slots=True)``
    # only pickles frozen instances from Python 3.11 on.
    __slots__ = ("time", "index", "gait_type", "cycle_id")

    def __reduce__(self):
        return (type(self), (self.time, self.index, self.gait_type, self.cycle_id))


@dataclass(frozen=True)
class StrideEstimate:
    """Per-step stride estimate produced by a stride estimator.

    Attributes:
        time: Timestamp of the step (seconds from trace start).
        length_m: Estimated stride (per-step) length in metres.
        bounce_m: Estimated body bounce used in the solve, if available.
        cycle_id: Index of the gait cycle the step belongs to.
        gait_type: Gait classification of the source cycle.
    """

    time: float
    length_m: float
    bounce_m: Optional[float]
    cycle_id: int
    gait_type: GaitType

    # Slotted and rebuilt through ``__init__``, like :class:`StepEvent`.
    __slots__ = ("time", "length_m", "bounce_m", "cycle_id", "gait_type")

    def __reduce__(self):
        return (
            type(self),
            (self.time, self.length_m, self.bounce_m, self.cycle_id, self.gait_type),
        )


@dataclass(frozen=True)
class CycleClassification:
    """Outcome of classifying one gait-cycle candidate.

    Attributes:
        cycle_id: Index of the candidate in the segmented stream.
        start_index: First sample index of the cycle (inclusive).
        end_index: Last sample index of the cycle (exclusive).
        gait_type: Decision from the Fig.-4 flow.
        offset: Aggregated critical-point offset (Eq. 1).
        half_cycle_correlation: Auto-correlation value ``C`` at the
            half-cycle lag, when it was computed (``None`` when the
            offset test already fired).
        phase_difference_ok: Whether the vertical/anterior phase
            difference matched the fixed quarter-period signature.
        steps_added: Steps credited to the counter by this cycle.
    """

    cycle_id: int
    start_index: int
    end_index: int
    gait_type: GaitType
    offset: float
    half_cycle_correlation: Optional[float]
    phase_difference_ok: Optional[bool]
    steps_added: int


@dataclass(frozen=True)
class CycleObservation:
    """Profile-free measurement of one credited gait cycle for §3 self-training.

    A stepping cycle contributes its directly measured bounce (the arm
    swings rigidly with the torso, so no geometry is involved); a
    walking cycle contributes the raw Eq. (3)–(5) moments
    ``(h1, h2, d)`` so the arm-length bounce solve can be replayed at
    any candidate ``m`` later.  Produced by the batch trainer's
    extraction helpers in :mod:`repro.core.selftrain` and by
    :class:`repro.core.streaming.StreamingPTrack` when constructed with
    ``collect_observations=True``; consumed by
    :class:`repro.profiles.IncrementalSelfTrainer`.

    Attributes:
        gait_type: WALKING or STEPPING (interference cycles never
            produce observations).
        bounce_m: Direct bounce of a STEPPING cycle; ``None`` for
            walking.
        h1_m: First vertical moment of a WALKING cycle; ``None`` for
            stepping.
        h2_m: Second vertical moment of a WALKING cycle; ``None`` for
            stepping.
        d_m: Anterior displacement moment of a WALKING cycle; ``None``
            for stepping.
    """

    gait_type: GaitType
    bounce_m: Optional[float] = None
    h1_m: Optional[float] = None
    h2_m: Optional[float] = None
    d_m: Optional[float] = None

    def __post_init__(self) -> None:
        if self.gait_type is GaitType.STEPPING:
            if self.bounce_m is None:
                raise ValueError("STEPPING observation requires bounce_m")
        elif self.gait_type is GaitType.WALKING:
            if self.h1_m is None or self.h2_m is None or self.d_m is None:
                raise ValueError(
                    "WALKING observation requires the full (h1_m, h2_m, d_m) triple"
                )
        else:
            raise ValueError(
                f"observations only exist for WALKING/STEPPING cycles, got {self.gait_type}"
            )


@dataclass(frozen=True)
class UserProfile:
    """Per-user biomechanical profile used by the stride estimator.

    Attributes:
        arm_length_m: Shoulder-to-wrist distance ``m`` in metres.
        leg_length_m: Hip-to-ground leg length ``l`` in metres.
        calibration_k: Stride calibration factor ``k`` of Eq. (2).
            The pure inverted-pendulum geometry corresponds to ``k = 2``.
    """

    arm_length_m: float
    leg_length_m: float
    calibration_k: float = 2.0

    def __post_init__(self) -> None:
        if self.arm_length_m <= 0:
            raise ValueError(f"arm_length_m must be positive, got {self.arm_length_m}")
        if self.leg_length_m <= 0:
            raise ValueError(f"leg_length_m must be positive, got {self.leg_length_m}")
        if self.calibration_k <= 0:
            raise ValueError(f"calibration_k must be positive, got {self.calibration_k}")


@dataclass(frozen=True)
class TrackingResult:
    """End-to-end output of a pedestrian-tracking pipeline over a trace.

    Attributes:
        steps: All counted steps, in time order.
        strides: Per-step stride estimates, in time order.  May be
            shorter than ``steps`` when some cycles did not admit a
            stride solve.
        classifications: Per-cycle decisions, for diagnostics.
    """

    steps: Tuple[StepEvent, ...]
    strides: Tuple[StrideEstimate, ...]
    classifications: Tuple[CycleClassification, ...] = field(default_factory=tuple)

    @property
    def step_count(self) -> int:
        """Number of counted steps."""
        return len(self.steps)

    @property
    def distance_m(self) -> float:
        """Total walked distance implied by the stride estimates."""
        return float(sum(s.length_m for s in self.strides))
