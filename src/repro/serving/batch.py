"""Fleet-batched serving: the fleet, not the session, is the kernel unit.

:class:`~repro.serving.pool.SessionPool` already batches the stepping
admission tests fleet-wide, but every other stage — filtering,
segmentation, cycle measurement, stride solving — still runs once per
session per round, paying the full Python/scipy dispatch overhead N
times. :class:`BatchedSessionPool` restructures the round so each stage
runs **once for the whole fleet**:

1. the pending filter blocks of every due session are column-stacked by
   length and low-passed in one filter call per length group;
2. every session's segmentation window is packed into one concatenated
   signal and scanned by a single peak/valley kernel dispatch
   (:func:`repro.signal.batched.batched_segment_windows`);
3. all admitted cycles, whatever their lengths, are measured in one
   right-padded stack
   (:func:`repro.core.batched.batched_stage_measurements`);
4. the stepping tests run in the same fleet-wide batch the lockstep
   pool uses;
5. all credited cycles' stride integrations run in one right-padded
   stack (:func:`repro.core.batched.batched_cycle_solutions`);
6. each session is credited from its solved cycles.

The end-of-stream flush runs the same stages once more as a final
round: each session's boundary is its head, the filter stage commits
the one tail block with no right context instead of the hop plan, and
cycles settle with a zero margin — for chunks of at most
:data:`FLUSH_STACK_SESSIONS` sessions at a time.

Per-session *state* transitions (boundary bookkeeping, cycle admission,
streak classification, crediting, trimming) still run session by
session through the seams :class:`~repro.core.streaming.StreamingPTrack`
exposes — the numeric kernels between them are what gets batched. Every
batched kernel is a float64 function bit-identical to its scalar
reference, so credits satisfy the serving equivalence oracle
``serial == pooled == sharded == batched``. There is deliberately one
set of kernels: PTrack's decisions sit on float64 thresholds (the
Eq. (1) offset against δ, the Eq. (3)-(5) Brent bounce root), and a
reduced-precision variant moves exactly those decisions.

Failure isolation matches the lockstep pool: an exception attributable
to one session marks only that session failed and the round continues
without it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.batched import (
    batched_cycle_solutions,
    batched_stage_measurements,
)
from repro.core.config import PTrackConfig
from repro.core.streaming import StagedCycle
from repro.faults.policy import FaultPolicy
from repro.runtime.buffers import FleetBatchBuffer
from repro.serving.pool import SessionPool
from repro.signal.batched import batched_segment_windows
from repro.signal.filters import butter_lowpass
from repro.telemetry.registry import MetricsRegistry
from repro.types import StepEvent, StrideEstimate

# FleetBatchBuffer historically lived here; it moved to
# repro.runtime.buffers so the kernel layers can accept scratch without
# importing the serving layer. Re-exported for compatibility.
__all__ = ["FleetBatchBuffer", "BatchedSessionPool"]

#: Most pending filter blocks (one per session, three columns each) a
#: fleet round low-passes in one column-stacked call. Filtering runs
#: per column, so the cap cannot change a credit; it bounds the stack
#: and the filter's temporaries, which otherwise grow with the fleet,
#: and measured as fast as one uncapped stack.
FILTER_STACK_BLOCKS = 64

#: Most sessions one end-of-stream flush settles together: the pool
#: flushes in chunks of this many sessions, each one begin → drain →
#: final round → end sequence. The final round holds every chunk
#: session's tail cycles (copied segments, measurement and stride
#: stacks) at once, so a fleet-wide round's high-water mark grows with
#: the fleet. Flushing 512 sessions of 12 s walks on a 2-vCPU host, a
#: fleet-wide round peaked at 34 MB traced against 4.3 MB in chunks of
#: 64 (2.1 MB for the per-session flush); the chunks cost 0.43 s of
#: flush against 0.32 s fleet-wide (2.75 s per session).
FLUSH_STACK_SESSIONS = 64

#: Power-of-two bucket bounds of ``serving_batch_round_occupancy``
#: (due sessions per fleet round).
OCCUPANCY_BUCKETS = tuple(float(2**i) for i in range(13))

#: The six stages of one fleet round, in order; each has a wall-time
#: histogram ``serving_batch_stage_<name>_seconds``.
ROUND_STAGES = ("filter", "segment", "measure", "stepping", "solve", "credit")


class BatchedSessionPool(SessionPool):
    """A session pool whose ingest rounds run fleet-batched kernels.

    Drop-in replacement for :class:`SessionPool` — same constructor,
    same ``append``/``flush``/failure-isolation contract, and
    bit-identical per-session credits and op-stats. What changes is
    *how* each round computes: one kernel dispatch per stage per round
    instead of per session — the end-of-stream ``flush`` included,
    whose tails settle in one final fleet round per chunk of sessions.

    Args:
        small_fleet_cutoff: Rounds with at most this many due sessions
            skip the fleet packing/stacking machinery and run the
            lockstep scalar round instead (the scalar round *is* the
            reference, so credits are unchanged by construction); ``0``
            disables the fast path. ``None`` uses
            :attr:`SMALL_FLEET_CUTOFF` — currently ``0``: with every
            stage batched the packed round beats the scalar round at
            every measured occupancy (1–10 due sessions; see the
            ``small_fleet`` section of ``BENCH_PR8.json``), so the
            scalar path is an escape hatch for deployments whose
            profile says otherwise, not a default.

    All other arguments are inherited from :class:`SessionPool`.
    """

    #: Default ``small_fleet_cutoff``. 0 = packed rounds at every
    #: occupancy: measured on the tracked workload, the packed round
    #: wins even at one due session once measurement/integration/bounce
    #: all run as batched kernels (BENCH_PR8 ``small_fleet`` rows), so
    #: delegating small rounds to the scalar path would be a
    #: pessimisation, not a fast path.
    SMALL_FLEET_CUTOFF = 0

    def __init__(
        self,
        sample_rate_hz: float,
        config: Optional[PTrackConfig] = None,
        settle_s: float = 2.5,
        max_buffer_s: float = 30.0,
        fault_policy: Optional[FaultPolicy] = None,
        isolate_failures: bool = True,
        telemetry: Optional[MetricsRegistry] = None,
        small_fleet_cutoff: Optional[int] = None,
        **pool_kwargs: Any,
    ) -> None:
        super().__init__(
            sample_rate_hz,
            config=config,
            settle_s=settle_s,
            max_buffer_s=max_buffer_s,
            fault_policy=fault_policy,
            isolate_failures=isolate_failures,
            telemetry=telemetry,
            **pool_kwargs,
        )
        self._buffers = FleetBatchBuffer()
        self._small_fleet_cutoff = (
            self.SMALL_FLEET_CUTOFF
            if small_fleet_cutoff is None
            else small_fleet_cutoff
        )
        if self._telemetry is not None:
            reg = self._telemetry
            self._m_occupancy = reg.histogram(
                "serving_batch_round_occupancy", buckets=OCCUPANCY_BUCKETS
            )
            self._m_stages = [
                reg.histogram(f"serving_batch_stage_{name}_seconds")
                for name in ROUND_STAGES
            ]

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _backend_identity(self) -> Optional[str]:
        """Batched pool snapshots record ``"numpy"``: the float64
        batched kernels, as opposed to the lockstep pool's ``None``."""
        return "numpy"

    # ------------------------------------------------------------------
    # Batched ingest
    # ------------------------------------------------------------------
    def append(
        self,
        session_ids: Sequence[int],
        batches: Sequence[np.ndarray],
    ) -> List[Tuple[List[StepEvent], List[StrideEstimate]]]:
        """Feed one batch to each named session; credit settled cycles.

        Same contract as :meth:`SessionPool.append`; each drain round
        runs the fleet-batched kernels instead of per-session calls.
        """
        t0 = time.perf_counter() if self._telemetry is not None else 0.0
        self._validate_append(session_ids, batches)
        sessions = [self._sessions[sid] for sid in session_ids]
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]] = [
            ([], []) for _ in sessions
        ]
        active: List[int] = []
        for k, (sid, sess, batch) in enumerate(
            zip(session_ids, sessions, batches)
        ):
            if sid in self._errors:
                continue
            try:
                sess.ingest(batch)
                steps, strides = sess.take_pending_credits()
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                self._mark_failed(sid, exc)
                continue
            out[k][0].extend(steps)
            out[k][1].extend(strides)
            active.append(k)
        while active:
            active = self._batched_round(session_ids, sessions, active, out)
        if self._telemetry is not None:
            self._m_appends.inc(len(session_ids))
            self._m_round_s.observe(time.perf_counter() - t0)
        return out

    def flush(
        self, session_ids: Optional[Sequence[int]] = None
    ) -> List[Tuple[List[StepEvent], List[StrideEstimate]]]:
        """Settle the remaining tail of the named (default all) sessions.

        Same contract as :meth:`SessionPool.flush` — each session's
        credits are exactly its own :meth:`StreamingPTrack.flush`, and a
        session that raises anywhere in its flush is marked failed and
        yields empty credits — but the tail runs fleet-batched, in
        chunks of at most :data:`FLUSH_STACK_SESSIONS` sessions: open
        every session's flush, drain due hop boundaries through ordinary
        rounds, settle all tails in one final round, close.
        """
        t0 = time.perf_counter() if self._telemetry is not None else 0.0
        ids = self.session_ids if session_ids is None else list(session_ids)
        sessions = [self._session(sid) for sid in ids]
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]] = [
            ([], []) for _ in ids
        ]
        chunk: List[int] = []
        members: Set[int] = set()
        for k, sid in enumerate(ids):
            # A repeated id flushes again only after its first flush
            # completed, as the one-at-a-time flush would.
            if len(chunk) == FLUSH_STACK_SESSIONS or sid in members:
                self._flush_chunk(ids, sessions, chunk, out)
                chunk, members = [], set()
            chunk.append(k)
            members.add(sid)
        if chunk:
            self._flush_chunk(ids, sessions, chunk, out)
        if self._telemetry is not None:
            self._m_flush_s.observe(time.perf_counter() - t0)
        return out

    def _flush_chunk(
        self,
        session_ids: Sequence[int],
        sessions: Sequence,
        chunk: List[int],
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]],
    ) -> None:
        """Flush the sessions at positions ``chunk``, tails batched."""
        opened: List[int] = []
        heads: Dict[int, int] = {}
        for k in chunk:
            sid = session_ids[k]
            if sid in self._errors:
                continue
            try:
                head, steps, strides = sessions[k].begin_flush()
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                self._mark_failed(sid, exc)
                continue
            out[k] = (steps, strides)
            opened.append(k)
            if head is not None:
                heads[k] = head
        active = list(heads)
        while active:
            active = self._batched_round(session_ids, sessions, active, out)
        due_ks = [k for k in heads if session_ids[k] not in self._errors]
        if due_ks:
            # The tail pass is never delegated to the small-fleet
            # escape hatch: that is a settle-margin pass, not this one.
            if self._telemetry is not None:
                self._m_occupancy.observe(len(due_ks))
            self._run_stages(
                session_ids,
                sessions,
                due_ks,
                [heads[k] for k in due_ks],
                out,
                final=True,
            )
        for k in opened:
            sid = session_ids[k]
            if sid not in self._errors:
                try:
                    sessions[k].end_flush()
                except Exception as exc:  # noqa: BLE001
                    self._mark_failed(sid, exc)
            if sid in self._errors:
                # Failed mid-flush: drop what it had settled so far
                # rather than half-deliver it.
                out[k] = ([], [])

    # ------------------------------------------------------------------
    # One fleet round
    # ------------------------------------------------------------------
    def _batched_round(
        self,
        session_ids: Sequence[int],
        sessions: Sequence,
        active: List[int],
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]],
    ) -> List[int]:
        """Advance every due session by one hop boundary, batched.

        Returns the positions still active for the next round. A
        session that raises (or whose batched kernel surfaces its
        exception in place) is marked failed and dropped mid-round —
        the per-session state it mutated up to that point matches what
        the scalar path would have mutated before raising.
        """
        # Bookkeeping is kept in lists indexed by the session's position
        # in the due order (``d``) rather than dicts keyed by pool
        # position — at fleet scale the per-session dict churn is
        # measurable against the batched kernels.
        due_ks: List[int] = []
        boundaries: List[int] = []
        for k in active:
            boundary = sessions[k].peek_boundary()
            if boundary is not None:
                due_ks.append(k)
                boundaries.append(boundary)
        if not due_ks:
            return []
        if self._telemetry is not None:
            self._m_occupancy.observe(len(due_ks))
        if len(due_ks) <= self._small_fleet_cutoff:
            # Small-fleet escape hatch: delegate tiny rounds to the
            # lockstep scalar round. It IS the batched round's
            # bit-identity reference, so taking it changes nothing but
            # latency. Off by default (see SMALL_FLEET_CUTOFF): the
            # packed round measures faster at every occupancy on the
            # tracked workload.
            return self._scalar_round(session_ids, sessions, due_ks, out)
        return self._run_stages(session_ids, sessions, due_ks, boundaries, out)

    def _lap(self, stage: int, since: float) -> float:
        """Observe stage ``stage``'s wall time since ``since``; return now."""
        now = time.perf_counter()
        self._m_stages[stage].observe(now - since)
        return now

    def _run_stages(
        self,
        session_ids: Sequence[int],
        sessions: Sequence,
        due_ks: List[int],
        boundaries: List[int],
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]],
        final: bool = False,
    ) -> List[int]:
        """The six batched stages of one round over the due sessions.

        ``final`` selects the end-of-stream tail pass: each session's
        boundary is its head, the filter stage commits the
        :meth:`~StreamingPTrack.final_filter_plan` block instead of the
        hop plan, and cycles settle with a zero margin — exactly what
        :meth:`StreamingPTrack.flush` does after its last hop boundary.
        Returns the positions that completed the round. With telemetry
        on, each stage's wall time lands in its
        ``serving_batch_stage_<name>_seconds`` histogram (see
        :data:`ROUND_STAGES`); off, no clock is read.
        """
        lap = time.perf_counter() if self._telemetry is not None else 0.0
        due_sess = [sessions[k] for k in due_ks]
        n_due = len(due_ks)
        alive = [True] * n_due

        def fail(d: int, exc: BaseException) -> None:
            self._mark_failed(session_ids[due_ks[d]], exc)
            alive[d] = False

        cfg = self._config
        rate = self._rate

        # -- Stage 1: fleet filter -------------------------------------
        # Gather every due session's pending filter blocks, low-pass
        # equal-length blocks in column-stacked filter calls of at most
        # FILTER_STACK_BLOCKS blocks, then commit per session in plan
        # order (the order apply_filtered_block requires).
        plans: List[List[Tuple[int, int, int]]] = []
        groups: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for d in range(n_due):
            sess = due_sess[d]
            plan = (
                sess.final_filter_plan(boundaries[d])
                if final
                else sess.filter_plan(boundaries[d])
            )
            plans.append(plan)
            for j, (lo, hi, _final) in enumerate(plan):
                groups.setdefault(hi - lo, []).append((d, j, lo, hi))
        blocks: List[List[Union[np.ndarray, Exception, None]]] = [
            [None] * len(plan) for plan in plans
        ]

        def lowpass(block: np.ndarray) -> np.ndarray:
            # The round copies hop-sized slices straight out of the
            # result, so skip the final contiguous copy of the block.
            return butter_lowpass(
                block,
                cfg.lowpass_cutoff_hz,
                rate,
                cfg.lowpass_order,
                contiguous=False,
            )

        def lowpass_solo(d: int, j: int, lo: int, hi: int) -> None:
            try:
                blocks[d][j] = lowpass(due_sess[d].raw_block(lo, hi))
            except Exception as exc:  # noqa: BLE001
                blocks[d][j] = exc

        for length, group in groups.items():
            for at in range(0, len(group), FILTER_STACK_BLOCKS):
                entries = group[at : at + FILTER_STACK_BLOCKS]
                if len(entries) == 1:
                    lowpass_solo(*entries[0])
                    continue
                stack = self._buffers.request(
                    "filter", (length, 3 * len(entries))
                )
                for col, (d, _j, lo, hi) in enumerate(entries):
                    np.copyto(
                        stack[:, 3 * col : 3 * col + 3],
                        due_sess[d].raw_block(lo, hi),
                    )
                try:
                    filtered = lowpass(stack)
                except Exception:  # noqa: BLE001 — retry solo to find the owner
                    for entry in entries:
                        lowpass_solo(*entry)
                else:
                    for col, (d, j, _lo, _hi) in enumerate(entries):
                        blocks[d][j] = filtered[:, 3 * col : 3 * col + 3]
        settle_margin = 0 if final else None
        for d in range(n_due):
            sess = due_sess[d]
            apply = (
                sess.apply_final_block if final else sess.apply_filtered_block
            )
            for j, (lo, hi, start) in enumerate(plans[d]):
                block = blocks[d][j]
                if isinstance(block, Exception):
                    fail(d, block)
                    break
                apply(lo, hi, start, block)
        if self._telemetry is not None:
            lap = self._lap(0, lap)

        # -- Stage 2: fleet segmentation -------------------------------
        opened: List[Optional[Tuple[np.ndarray, int]]] = [None] * n_due
        seg_ds: List[int] = []
        windows: List[np.ndarray] = []
        for d in range(n_due):
            if not alive[d]:
                continue
            try:
                win = due_sess[d].begin_pass(boundaries[d], settle_margin)
            except Exception as exc:  # noqa: BLE001
                fail(d, exc)
                continue
            opened[d] = win
            if win is not None:
                seg_ds.append(d)
                windows.append(win[0])
        seg_results: List = []
        if windows:
            scratch = self._buffers.request(
                "segment_pack", sum(w.size for w in windows) + len(windows)
            )
            seg_results = batched_segment_windows(
                windows,
                rate,
                min_step_rate_hz=cfg.min_step_rate_hz,
                max_step_rate_hz=cfg.max_step_rate_hz,
                min_prominence=cfg.min_peak_prominence,
                scratch=scratch,
            )
        if self._telemetry is not None:
            lap = self._lap(1, lap)

        # -- Stage 3: admit + measure all cycles fleet-wide ------------
        admitted_by_d: List = [None] * n_due
        cycle_pairs: List = [None] * n_due
        flat_v: List[np.ndarray] = []
        flat_h: List[np.ndarray] = []
        flat_start: List[int] = [0] * n_due
        for d, segments in zip(seg_ds, seg_results):
            if isinstance(segments, Exception):
                fail(d, segments)
                continue
            sess = due_sess[d]
            settled_end = opened[d][1]
            try:
                admitted = sess.admit_cycles(settled_end, segments)
                pairs = [
                    sess.cycle_segments(abs_start, abs_end)
                    for abs_start, abs_end, _peaks in admitted
                ]
            except Exception as exc:  # noqa: BLE001
                fail(d, exc)
                continue
            admitted_by_d[d] = admitted
            cycle_pairs[d] = pairs
            flat_start[d] = len(flat_v)
            for v_seg, h_seg in pairs:
                flat_v.append(v_seg)
                flat_h.append(h_seg)
        measurements = (
            batched_stage_measurements(flat_v, flat_h, cfg)
            if flat_v
            else []
        )

        # Build each session's staged cycles, in cycle order.
        staged_by_d: List[Optional[List[StagedCycle]]] = [None] * n_due
        for d in range(n_due):
            if not alive[d]:
                continue
            if opened[d] is None or admitted_by_d[d] is None:
                if opened[d] is None:
                    # No segmentable window: the boundary still closes
                    # and its trim still runs, via an empty resolve.
                    staged_by_d[d] = []
                continue
            sess = due_sess[d]
            lo = flat_start[d]
            staged: List[StagedCycle] = []
            broken = False
            for (abs_start, abs_end, peaks), (v_seg, h_seg), m in zip(
                admitted_by_d[d],
                cycle_pairs[d],
                measurements[lo : lo + len(admitted_by_d[d])],
            ):
                if isinstance(m, Exception):
                    # The scalar path raises out of _stage here, after
                    # having staged this session's earlier cycles.
                    fail(d, m)
                    broken = True
                    break
                a_seg, anterior_ok, motion_ok, offset = m
                staged.append(
                    sess.make_staged(
                        abs_start, abs_end, peaks,
                        v_seg, h_seg, a_seg, anterior_ok, motion_ok, offset,
                    )
                )
            if broken:
                continue
            staged_by_d[d] = staged
        for d in range(n_due):
            if staged_by_d[d] is not None:
                due_sess[d].finish_collect(boundaries[d])
        if self._telemetry is not None:
            lap = self._lap(2, lap)

        # -- Stage 4: fleet stepping tests -----------------------------
        resolve_ds = [d for d in range(n_due) if staged_by_d[d] is not None]
        values = self._pooled_stepping([staged_by_d[d] for d in resolve_ds])
        if self._telemetry is not None:
            lap = self._lap(3, lap)

        # -- Stage 5: classify, solve strides fleet-wide ---------------
        credited_by_d: List = [None] * n_due
        solve_idx: List = [None] * n_due
        solve_start: List[int] = [0] * n_due
        all_items: List[Tuple] = []
        for d, vals in zip(resolve_ds, values):
            sess = due_sess[d]
            try:
                credited = sess.classify(staged_by_d[d], vals)
                indices, items = sess.stride_solve_items(credited)
            except Exception as exc:  # noqa: BLE001
                fail(d, exc)
                continue
            credited_by_d[d] = credited
            solve_idx[d] = indices
            solve_start[d] = len(all_items)
            all_items.extend(items)
        flat_solutions = (
            batched_cycle_solutions(all_items, 1.0 / rate)
            if all_items
            else []
        )
        if self._telemetry is not None:
            lap = self._lap(4, lap)

        # -- Stage 6: credit -------------------------------------------
        next_active: List[int] = []
        for d in resolve_ds:
            if not alive[d]:
                continue
            credited = credited_by_d[d]
            indices = solve_idx[d]
            lo = solve_start[d]
            solutions: List[Optional[Tuple[float, float]]] = [None] * len(
                credited
            )
            for i, solved in zip(
                indices, flat_solutions[lo : lo + len(indices)]
            ):
                solutions[i] = solved
            try:
                steps, strides = due_sess[d].credit_resolved(
                    credited, solutions
                )
            except Exception as exc:  # noqa: BLE001
                fail(d, exc)
                continue
            k = due_ks[d]
            out[k][0].extend(steps)
            out[k][1].extend(strides)
            next_active.append(k)
        if self._telemetry is not None:
            self._lap(5, lap)
        return next_active

    # ------------------------------------------------------------------
    # Small-fleet fast path
    # ------------------------------------------------------------------
    def _scalar_round(
        self,
        session_ids: Sequence[int],
        sessions: Sequence,
        due_ks: Sequence[int],
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]],
    ) -> List[int]:
        """One lockstep round over the due sessions, no fleet packing.

        Exactly the round body of :meth:`SessionPool.append` — per-due
        session ``collect()``, one pooled stepping batch, per-session
        ``resolve()`` — with the same failure isolation. Bit-identical
        to the packed round because it *is* the reference path the
        packed round is differentially pinned against.
        """
        round_staged: List[Tuple[int, List[StagedCycle]]] = []
        for k in due_ks:
            try:
                staged = sessions[k].collect()
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                self._mark_failed(session_ids[k], exc)
                continue
            if staged is None:
                continue
            round_staged.append((k, staged))
        if not round_staged:
            return []
        values = self._pooled_stepping([staged for _, staged in round_staged])
        next_active: List[int] = []
        for (k, staged), vals in zip(round_staged, values):
            try:
                steps, strides = sessions[k].resolve(staged, vals)
            except Exception as exc:  # noqa: BLE001
                self._mark_failed(session_ids[k], exc)
                continue
            out[k][0].extend(steps)
            out[k][1].extend(strides)
            next_active.append(k)
        return next_active
