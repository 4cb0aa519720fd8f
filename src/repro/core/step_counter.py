"""The PTrack step counter — the Fig. 4 decision flow.

Pipeline per trace:

1. Front end (reused from existing designs, grayed in Fig. 2): low-pass
   filter, peak detection, acceleration segmentation into gait-cycle
   *candidates*.
2. Acceleration projection (SIII-B2): vertical from the attitude-aware
   sensor axis; anterior recovered from the horizontal acceleration
   cloud by (total) least squares, per candidate cycle.
3. Gait-type identification (SIII-B1): offset > delta -> walking,
   +2 steps. Otherwise the stepping tests run (half-cycle correlation
   C > 0 and the fixed quarter-period phase difference); after the
   configured number of consecutive confirmations (3), the buffered
   cycles are credited at once (+6) and the streak keeps crediting +2.
   Everything else is interference and leaves the counter untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PTrackConfig
from repro.core.offset import cycle_offset
from repro.core.stepping import batch_stepping_tests
from repro.exceptions import SignalError
from repro.sensing.imu import IMUTrace
from repro.signal.filters import butter_lowpass
from repro.signal.projection import anterior_direction, project_horizontal
from repro.signal.segmentation import Segment, segment_gait_cycles
from repro.types import CycleClassification, GaitType, StepEvent

__all__ = [
    "CycleCandidate",
    "ResolvedCycle",
    "Fig4Streak",
    "PTrackStepCounter",
]


@dataclass
class CycleCandidate:
    """One segmented gait-cycle candidate entering the Fig.-4 flow.

    The per-cycle measurements (vertical-motion gate, offset, stepping
    admission tests) are pure functions of the cycle's samples; this
    record carries them into the sequential streak machine, which is
    the only stateful part of the decision flow.

    Attributes:
        cycle_id: Identifier of the cycle (trace-local for the batch
            counter, globally monotone for the streaming core).
        start: First sample index of the cycle.
        end: One past the last sample index.
        peaks: Step-peak indices inside the cycle.
        motion_ok: Whether the cycle clears the vertical-motion gate.
        offset: The critical-point offset (Eq. 1); 0.0 when gated out.
        corr: Anterior half-cycle auto-correlation ``C``.
        corr_v: Vertical half-cycle auto-correlation.
        phase_ok: Whether the quarter-period phase signature held.
    """

    cycle_id: int
    start: int
    end: int
    peaks: Tuple[int, ...]
    motion_ok: bool
    offset: float
    corr: float = 0.0
    corr_v: float = 0.0
    phase_ok: bool = False


@dataclass(frozen=True)
class ResolvedCycle:
    """A candidate the streak machine has finished deciding.

    Attributes:
        candidate: The candidate that was resolved.
        gait_type: The final gait-type decision.
        offset: Offset value to record in diagnostics (the decision
            flow records 0.0 for motion-gated cycles).
        correlation: ``C`` value to record (``None`` for walking, whose
            decision never ran the stepping tests).
        phase_ok: Phase-test flag to record (``None`` for walking).
    """

    candidate: CycleCandidate
    gait_type: GaitType
    offset: float
    correlation: Optional[float]
    phase_ok: Optional[bool]

    # The streak emits one per cycle fleet-wide: slotted, so one is a
    # single object, and rebuilt through ``__init__`` by pickle and
    # copy, like :class:`repro.types.StepEvent`.
    __slots__ = ("candidate", "gait_type", "offset", "correlation", "phase_ok")

    def __reduce__(self):
        return (
            type(self),
            (self.candidate, self.gait_type, self.offset, self.correlation,
             self.phase_ok),
        )

    @property
    def credited(self) -> bool:
        """Whether the cycle's step peaks are counted."""
        return self.gait_type is not GaitType.INTERFERENCE


def _resolved(
    cand: CycleCandidate,
    gait: GaitType,
    offset: float,
    correlation: Optional[float],
    phase_ok: Optional[bool],
) -> ResolvedCycle:
    """Field-for-field :class:`ResolvedCycle` without the frozen
    constructor — the streak machine emits one per cycle fleet-wide —
    set through its slot descriptors, at half the cost of
    ``object.__setattr__``."""
    res = object.__new__(ResolvedCycle)
    _set_res_candidate(res, cand)
    _set_res_gait(res, gait)
    _set_res_offset(res, offset)
    _set_res_correlation(res, correlation)
    _set_res_phase(res, phase_ok)
    return res


_set_res_candidate = ResolvedCycle.candidate.__set__
_set_res_gait = ResolvedCycle.gait_type.__set__
_set_res_offset = ResolvedCycle.offset.__set__
_set_res_correlation = ResolvedCycle.correlation.__set__
_set_res_phase = ResolvedCycle.phase_ok.__set__


class Fig4Streak:
    """The sequential consecutive-confirmation machine of Fig. 4.

    Everything upstream of this machine (segmentation, the offset
    metric, the stepping admission tests) is a pure per-cycle function;
    the streak is the single piece of cross-cycle state in the decision
    flow. Extracting it lets the batch counter and the incremental
    streaming core share one implementation — the streaming core keeps
    an instance alive across ``append`` calls so cycles are classified
    exactly once.

    Feed candidates in time order with :meth:`feed`; each call returns
    the candidates whose decisions became final (a walking cycle
    resolves immediately, stepping cycles resolve in groups once the
    streak confirms, failures flush the pending buffer as
    interference). :meth:`flush` force-resolves the trailing pending
    cycles at end of stream.
    """

    def __init__(self, config: Optional[PTrackConfig] = None) -> None:
        self._cfg = config if config is not None else PTrackConfig()
        self._streak = 0
        # Pending stepping cycles, each with the (offset, corr, phase)
        # triple the decision flow will record on resolution.
        self._pending: List[Tuple[CycleCandidate, float, float, bool]] = []

    @property
    def pending_count(self) -> int:
        """Cycles buffered awaiting streak confirmation."""
        return len(self._pending)

    @property
    def streak(self) -> int:
        """Current consecutive-confirmation count."""
        return self._streak

    def reset(self) -> None:
        """Drop all streak state (start of a fresh stream)."""
        self._streak = 0
        self._pending.clear()

    def state_dict(self) -> Dict[str, Any]:
        """The streak state as a picklable copy (for session snapshots).

        Candidates are copied so the live machine and the snapshot
        never alias mutable records; the counterpart is
        :meth:`load_state`.
        """
        return {
            "streak": self._streak,
            "pending": [
                (replace(cand), off, corr, phase)
                for cand, off, corr, phase in self._pending
            ],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore streak state captured by :meth:`state_dict`."""
        self._streak = int(state["streak"])
        self._pending = [
            (replace(cand), float(off), float(corr), bool(phase))
            for cand, off, corr, phase in state["pending"]
        ]

    def _flush_interference(
        self, out: List[ResolvedCycle]
    ) -> List[ResolvedCycle]:
        for cand, off, corr, phase in self._pending:
            out.append(_resolved(cand, GaitType.INTERFERENCE, off, corr, phase))
        self._pending.clear()
        self._streak = 0
        return out

    def feed(
        self,
        cand: CycleCandidate,
        out: Optional[List[ResolvedCycle]] = None,
    ) -> List[ResolvedCycle]:
        """Advance the machine by one candidate cycle.

        Args:
            cand: The next candidate in time order, with its per-cycle
                measurements filled in.
            out: List the resolutions are appended to (a new one by
                default), so a caller feeding many cycles can collect
                them in one list.

        Returns:
            ``out``, extended by the candidates whose decisions became
            final, in resolution order (matching the batch decision
            flow).
        """
        cfg = self._cfg
        if out is None:
            out = []
        if not cand.motion_ok:
            # Residual micro-motion (tremor, postural sway): the
            # paper's candidate stage already rejects activities
            # "without significant vertical motions".
            self._pending.append((cand, 0.0, 0.0, False))
            return self._flush_interference(out)

        if cand.offset > cfg.offset_threshold:
            # Walking: superposed arm + body sources.
            if self._pending:
                self._flush_interference(out)
            else:
                self._streak = 0
            out.append(
                _resolved(cand, GaitType.WALKING, cand.offset, None, None)
            )
            return out

        if (
            cand.corr > cfg.min_half_cycle_correlation
            and cand.corr_v > cfg.min_half_cycle_correlation
            and cand.phase_ok
        ):
            self._streak += 1
            self._pending.append((cand, cand.offset, cand.corr, True))
            if self._streak >= cfg.stepping_consecutive:
                # Confirmation reached: credit every buffered cycle
                # (the paper's "+6" event is exactly 3 cycles x 2).
                for c, off, corr, phase in self._pending:
                    out.append(_resolved(c, GaitType.STEPPING, off, corr, phase))
                self._pending.clear()
                # Streak stays "confirmed": subsequent cycles credit
                # immediately until a test fails.
                self._streak = cfg.stepping_consecutive
            return out

        self._pending.append(
            (cand, cand.offset, cand.corr, bool(cand.phase_ok))
        )
        return self._flush_interference(out)

    def flush(self) -> List[ResolvedCycle]:
        """End of stream: the pending buffer resolves as interference."""
        return self._flush_interference([])


class PTrackStepCounter:
    """Training-free, interference-robust step counter.

    Args:
        config: Pipeline configuration; ``None`` uses paper defaults.
    """

    def __init__(self, config: Optional[PTrackConfig] = None) -> None:
        self._config = config if config is not None else PTrackConfig()

    @property
    def config(self) -> PTrackConfig:
        """The active configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def count_steps(self, trace: IMUTrace) -> int:
        """Total steps in a trace (convenience wrapper)."""
        steps, _ = self.process(trace)
        return len(steps)

    def process(
        self,
        trace: IMUTrace,
    ) -> Tuple[List[StepEvent], List[CycleClassification]]:
        """Run the full Fig.-4 flow over a trace.

        Args:
            trace: The observed wrist trace.

        Returns:
            Tuple ``(steps, classifications)``: counted step events in
            time order, and the per-candidate decisions (including the
            rejected interference cycles) for diagnostics.
        """
        cfg = self._config
        vertical, anterior_full, cycles = self._front_end(trace)
        dt = trace.dt

        steps: List[StepEvent] = []
        classifications: List[CycleClassification] = []

        # ------------------------------------------------------------------
        # Batch stage: every per-cycle quantity the decision flow reads
        # is a pure function of that cycle's samples, so compute them
        # for all candidates up front — the offsets for cycles passing
        # the vertical-motion gate, and the stepping admission tests
        # for the subset the offset keeps in play. Only the streak
        # state machine below is sequential.
        # ------------------------------------------------------------------
        v_segs: List[np.ndarray] = []
        a_segs: List[np.ndarray] = []
        for segment in cycles:
            v_seg = segment.slice(vertical)
            a_seg = segment.slice(anterior_full)
            # Per-cycle anterior refinement: project this cycle's
            # horizontal samples onto their own dominant direction so a
            # turning walker does not smear the projection.
            v_segs.append(v_seg)
            a_segs.append(self._refine_anterior(trace, segment, a_seg))

        motion_ok = [
            float(np.std(v_seg - v_seg.mean())) >= cfg.min_vertical_std
            for v_seg in v_segs
        ]
        offsets = [
            cycle_offset(v_segs[i], a_segs[i], cfg) if motion_ok[i] else 0.0
            for i in range(len(cycles))
        ]
        stepping_candidates = [
            i
            for i in range(len(cycles))
            if motion_ok[i] and offsets[i] <= cfg.offset_threshold
        ]
        stepping_values = dict(
            zip(
                stepping_candidates,
                zip(
                    *batch_stepping_tests(
                        [v_segs[i] for i in stepping_candidates],
                        [a_segs[i] for i in stepping_candidates],
                        cfg,
                    )
                ),
            )
        )

        # The sequential part — the Fig.-4 consecutive-confirmation
        # streak — runs in the shared machine. The user steps twice per
        # cycle, so the per-step repetition must appear on *both*
        # projected axes — a mechanical shaker whose vertical axis
        # carries strong cycle-period content fails the vertical
        # half-cycle test even when its horizontal axis happens to
        # repeat (the corr/corr_v pair carries both tests).
        machine = Fig4Streak(cfg)
        resolved: List[ResolvedCycle] = []
        for cycle_id, segment in enumerate(cycles):
            corr, corr_v, phase_ok = stepping_values.get(
                cycle_id, (0.0, 0.0, False)
            )
            resolved.extend(
                machine.feed(
                    CycleCandidate(
                        cycle_id=cycle_id,
                        start=segment.start,
                        end=segment.end,
                        peaks=tuple(int(p) for p in segment.peak_indices),
                        motion_ok=motion_ok[cycle_id],
                        offset=offsets[cycle_id],
                        corr=corr,
                        corr_v=corr_v,
                        phase_ok=bool(phase_ok),
                    )
                )
            )
        resolved.extend(machine.flush())

        for res in resolved:
            cand = res.candidate
            added = 0
            if res.credited:
                for peak in cand.peaks:
                    steps.append(
                        StepEvent(
                            time=trace.start_time + peak * dt,
                            index=int(peak),
                            gait_type=res.gait_type,
                            cycle_id=cand.cycle_id,
                        )
                    )
                    added += 1
            classifications.append(
                CycleClassification(
                    cycle_id=cand.cycle_id,
                    start_index=cand.start,
                    end_index=cand.end,
                    gait_type=res.gait_type,
                    offset=res.offset,
                    half_cycle_correlation=res.correlation,
                    phase_difference_ok=res.phase_ok,
                    steps_added=added,
                )
            )
        classifications.sort(key=lambda c: c.cycle_id)
        steps.sort(key=lambda s: s.time)
        return steps, classifications

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _front_end(
        self,
        trace: IMUTrace,
    ) -> Tuple[np.ndarray, np.ndarray, List[Segment]]:
        """Existing-stack front end: filter, project, segment."""
        cfg = self._config
        filtered = butter_lowpass(
            trace.linear_acceleration,
            cfg.lowpass_cutoff_hz,
            trace.sample_rate_hz,
            cfg.lowpass_order,
        )
        vertical = filtered[:, 2]
        horizontal = filtered[:, :2]
        try:
            direction = anterior_direction(horizontal)
            anterior = project_horizontal(horizontal, direction)
        except SignalError:
            anterior = np.zeros_like(vertical)
        cycles = segment_gait_cycles(
            vertical,
            trace.sample_rate_hz,
            min_step_rate_hz=cfg.min_step_rate_hz,
            max_step_rate_hz=cfg.max_step_rate_hz,
            min_prominence=cfg.min_peak_prominence,
        )
        self._filtered = filtered
        return vertical, anterior, cycles

    def _refine_anterior(
        self,
        trace: IMUTrace,
        segment: Segment,
        fallback: np.ndarray,
    ) -> np.ndarray:
        """Anterior projection using only this cycle's horizontal cloud."""
        horizontal = self._filtered[segment.start : segment.end, :2]
        try:
            direction = anterior_direction(horizontal)
            return project_horizontal(horizontal, direction)
        except SignalError:
            return fallback
