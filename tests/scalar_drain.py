"""The per-cycle scalar drain: a reference for the round.

Every served session drains through :mod:`repro.core.rounds`, whose
measurement and stride stages run padded-stack kernels over all of a
round's cycles. :class:`ScalarDrain` drives a
:class:`~repro.core.streaming.StreamingPTrack` through the same seams,
one hop boundary at a time, with the scalar forms of those two stages
instead: :func:`scalar_measure` per staged cycle, and one
:meth:`~repro.core.stride.PTrackStrideEstimator.cycle_stride` per
credited cycle. Filtering runs one low-pass call per block, and
segmentation is the one-window scan (its scalar reference is
``tests/scalar_segmentation.py``). Its credits must equal the round's
bit for bit; ``tests/test_golden_credits.py`` holds it to the golden
corpus.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import PTrackConfig
from repro.core.offset import cycle_offset
from repro.core.rounds import RoundCycles, admit_cycles, stepping_values
from repro.core.streaming import StreamingPTrack
from repro.core.stride import PTrackStrideEstimator
from repro.exceptions import SignalError
from repro.signal.batched import batched_segment_windows
from repro.signal.filters import butter_lowpass
from repro.signal.projection import anterior_direction, project_horizontal
from repro.types import StepEvent, StrideEstimate

Credits = Tuple[List[StepEvent], List[StrideEstimate]]


def scalar_measure(
    v_seg: np.ndarray, h_seg: np.ndarray, cfg: PTrackConfig
) -> Tuple[np.ndarray, bool, bool, float]:
    """One staged cycle's ``(a_seg, anterior_ok, motion_ok, offset)``:
    the anterior projection (zeros when the direction fit fails), the
    motion gate and, for a moving cycle, the Eq. (1) offset."""
    anterior_ok = True
    try:
        # Per-cycle anterior refinement: project this cycle's horizontal
        # samples onto their own dominant direction so a turning walker
        # does not smear the projection.
        a_seg = project_horizontal(h_seg, anterior_direction(h_seg))
    except SignalError:
        a_seg = np.zeros_like(v_seg)
        anterior_ok = False
    motion_ok = float(np.std(v_seg - v_seg.mean())) >= cfg.min_vertical_std
    offset = cycle_offset(v_seg, a_seg, cfg) if motion_ok else 0.0
    return a_seg, anterior_ok, motion_ok, offset


class ScalarDrain:
    """Drive one session's ``append``/``flush`` through the scalar drain.

    The session's own ``flush`` is rebound to :meth:`flush`, so the
    tail a degraded-mode gap reset settles inside ``ingest`` drains
    the scalar way too.
    """

    def __init__(self, session: StreamingPTrack) -> None:
        self.session = session
        profile = session.profile
        self.estimator: Optional[PTrackStrideEstimator] = (
            None
            if profile is None
            else PTrackStrideEstimator(profile, session.config)
        )
        session.flush = self.flush

    def append(self, samples: np.ndarray) -> Credits:
        """``StreamingPTrack.append``, drained per cycle."""
        sess = self.session
        sess.ingest(samples)
        parked = sess.take_pending_credits()
        steps, strides = ([], []) if parked is None else parked
        self._drain(steps, strides)
        return steps, strides

    def flush(self) -> Credits:
        """``StreamingPTrack.flush``, drained per cycle."""
        sess = self.session
        head = sess.begin_flush()
        parked = sess.take_pending_credits()
        steps, strides = ([], []) if parked is None else parked
        if head is not None:
            self._drain(steps, strides)
            # Finalise the filter through the head and settle the tail
            # with a zero settle horizon.
            self._filter(head, final=True)
            self._settle_pass(head, 0, steps, strides)
        sess.end_flush()
        return steps, strides

    def _drain(self, steps: List[StepEvent], strides: List[StrideEstimate]) -> None:
        """Run every due hop boundary's pass, extending the credits."""
        while True:
            boundary = self.session.peek_boundary()
            if boundary is None:
                return
            self._filter(boundary)
            self._settle_pass(boundary, None, steps, strides)

    def _filter(self, limit: int, final: bool = False) -> None:
        """Finalise the pending filter blocks up to ``limit`` (with
        ``final``, the one end-of-stream block through it), one
        low-pass call per block."""
        sess = self.session
        cfg = sess.config
        los: List[int] = []
        his: List[int] = []
        starts: List[int] = []
        if final:
            sess.final_filter_plan(limit, los, his, starts)
        else:
            sess.filter_plan(limit, los, his, starts)
        for lo, hi, start in zip(los, his, starts):
            rows = butter_lowpass(
                sess.raw_block(lo, hi),
                cfg.lowpass_cutoff_hz,
                sess.sample_rate_hz,
                cfg.lowpass_order,
            )[start - lo :]
            if final:
                sess.apply_final_block(lo, hi, start, rows)
            else:
                sess.apply_filtered_block(lo, hi, start, rows)

    def _settle_pass(
        self,
        boundary: int,
        settle_margin: Optional[int],
        steps: List[StepEvent],
        strides: List[StrideEstimate],
    ) -> None:
        """One credited pass at ``boundary``: stage and close, test,
        classify, solve per cycle, credit."""
        sess = self.session
        rc = self._pass(boundary, settle_margin)
        stepping_values(rc, sess.config)
        rows: List[int] = []
        sess.classify(rc, 0, len(rc.starts), rows, [])
        rc.reset_solves()
        if self.estimator is not None:
            dt = 1.0 / sess.sample_rate_hz
            for j in rows:
                solved = self.estimator.cycle_stride(
                    rc.cr_v[j], rc.cr_h[j], dt, rc.resolved[j].gait_type, rc.cr_a[j]
                )
                if solved is not None:
                    rc.stride_m[j], rc.bounce_m[j] = solved
        sess.credit_resolved(rc, 0, len(rc.resolved), steps, strides)

    def _pass(self, boundary: int, settle_margin: Optional[int]) -> RoundCycles:
        """Segment, admit, copy out, measure and stage one pass's
        cycles, closing the pass."""
        sess = self.session
        cfg = sess.config
        origins: List[int] = []
        settled_ends: List[int] = []
        last_peaks: List[int] = []
        pane = sess.begin_pass(
            boundary, settle_margin, origins, settled_ends, last_peaks
        )
        if pane is None:
            rc = RoundCycles([0], [], [], [])
            sess.stage_cycles(rc, 0, 0, boundary)
            return rc
        cycles = batched_segment_windows(
            [pane[:, 2]],
            sess.sample_rate_hz,
            min_step_rate_hz=cfg.min_step_rate_hz,
            max_step_rate_hz=cfg.max_step_rate_hz,
            min_prominence=cfg.min_peak_prominence,
        )
        if cycles.errors[0] is not None:
            raise cycles.errors[0]
        rc = admit_cycles(cycles, origins, settled_ends, last_peaks)
        n = len(rc.starts)
        for start, end in zip(rc.starts, rc.ends):
            seg = pane[start - origins[0] : end - origins[0]]
            rc.v_segs.append(seg[:, 2].copy())
            rc.h_segs.append(seg[:, :2].copy())
        for i in range(n):
            try:
                a_seg, anterior_ok, motion_ok, offset = scalar_measure(
                    rc.v_segs[i], rc.h_segs[i], cfg
                )
            except Exception as exc:  # noqa: BLE001 — raised by stage_cycles
                rc.errors[i] = exc
                break
            rc.a_segs.append(a_seg)
            rc.anterior_ok.append(anterior_ok)
            rc.motion_ok.append(motion_ok)
            rc.offsets.append(offset)
        sess.stage_cycles(rc, 0, n, boundary)
        return rc
