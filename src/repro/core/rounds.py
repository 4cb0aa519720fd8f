"""The round: PTrack's per-cycle pipeline over a list of sessions.

A *round* advances each of its sessions by one hop boundary (or, at the
end of a stream, through its head). It is the one drain every driver
runs: a :class:`~repro.core.streaming.StreamingPTrack` appends and
flushes through a round of one, and a :class:`repro.serving.SessionPool`
through a round of every due session. Each round runs every numeric
kernel once for all of its sessions:

1. the pending filter blocks of every session are gathered by length
   into row-major stacks, one row per block axis, and low-passed along
   the rows in one filter call per length group, whose backward pass
   stops at the first row any block keeps;
2. every session's segmentation window is packed into one concatenated
   signal, checked finite once, scanned by one peak and one valley
   kernel dispatch and paired into cycles on the packed signal's flat
   indices, every window at once
   (:func:`repro.signal.batched.batched_segment_windows`);
3. one admission mask picks every session's newly settled cycles
   (:func:`admit_cycles`), each session commits its own, and all of
   them, whatever their lengths, are measured in one right-padded stack
   (:func:`repro.core.batched.batched_stage_measurements`);
4. the stepping tests of every session's cycles run in one call
   (:func:`stepping_values`);
5. all credited cycles' stride integrations run in one right-padded
   stack (:func:`repro.core.batched.batched_cycle_solutions`);
6. each session is credited from its solved cycles.

Per-session *state* transitions (boundary bookkeeping, cycle admission,
streak classification, crediting, trimming) run session by session
through the seams :class:`~repro.core.streaming.StreamingPTrack`
exposes; the numeric kernels between them are what gets batched. The
round's bookkeeping is a fixed number of flat lists (one
:class:`RoundCycles` holds its cycles), never a container per session
or per cycle, and a session that settles nothing gets the shared
:data:`NO_CREDITS`. Every kernel is row-wise, so a session's credits do
not depend on which sessions share its round.

Failures go to the caller's ``fail(k, exc)`` callback with the
session's position ``k``: a pool records the session as failed and the
round drops it, a lone session (or a fail-fast pool) re-raises.
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.batched import (
    batched_cycle_solutions,
    batched_stage_measurements,
)
from repro.core.config import PTrackConfig
from repro.core.step_counter import CycleCandidate, ResolvedCycle
from repro.core.stepping import batch_stepping_tests
from repro.runtime.buffers import FleetBatchBuffer
from repro.signal.batched import WindowCycles, batched_segment_windows
from repro.signal.filters import lowpass_rows
from repro.telemetry.registry import Histogram
from repro.types import StepEvent, StrideEstimate, UserProfile

__all__ = [
    "NO_CREDITS",
    "ROUND_STAGES",
    "RoundCycles",
    "admit_cycles",
    "stepping_values",
    "drain_rounds",
    "flush_sessions",
    "run_round",
]

#: One session's ``(steps, strides)`` credits from a round.
Credits = Tuple[Sequence[StepEvent], Sequence[StrideEstimate]]

#: The result of every session that settled nothing: one shared,
#: immutable empty pair, so an idle session costs a call no allocation.
NO_CREDITS: Credits = ((), ())

#: The failure callback of a round: ``fail(k, exc)`` for the session at
#: position ``k``. It records the failure or raises ``exc``.
FailFn = Callable[[int, BaseException], None]

#: Most pending filter blocks a round low-passes in one call: each
#: block is three rows (one per axis) of a row-major stack. Filtering
#: runs per row, so the cap cannot change a credit; it bounds the stack
#: and the filter's temporaries, which otherwise grow with the fleet,
#: and measured as fast as one uncapped stack.
FILTER_STACK_BLOCKS = 64

#: The six stages of one round, in order; a pool keeps one wall-time
#: histogram per stage, ``serving_batch_stage_<name>_seconds``.
ROUND_STAGES = ("filter", "segment", "measure", "stepping", "solve", "credit")


class RoundCycles:
    """One round's cycles, in flat lists indexed by cycle.

    A round is one pass at a hop boundary for each of its sessions. Its
    bookkeeping is these lists, a fixed number of them however many
    sessions and cycles the round holds; each session owns one
    contiguous range of the staged lists and one of the credited lists.

    Staged cycle ``i`` (window order, then time order):

    * :func:`admit_cycles` fills ``starts[i]``, ``ends[i]`` (absolute
      indices) and ``peaks[i]``, its new step peaks; window ``w``'s
      cycles are ``bounds[w]:bounds[w + 1]``;
    * the round appends the segments ``v_segs[i]`` and ``h_segs[i]``,
      copied out of the window :meth:`StreamingPTrack.begin_pass`
      exposed;
    * the measurement stage fills ``a_segs[i]``, ``anterior_ok[i]``,
      ``motion_ok[i]`` and ``offsets[i]``, and ``errors`` maps a cycle
      the scalar measurement raises on to its exception (the other
      lists then hold placeholders there);
    * :meth:`StreamingPTrack.stage_cycles` sets ``cands[i]``, and
      :func:`stepping_values` writes the stepping tests into it.

    Each record is released as soon as it is spent —
    :meth:`StreamingPTrack.classify` clears ``cands[i]`` once the streak
    holds the candidate, :meth:`StreamingPTrack.credit_resolved`
    clears ``resolved[j]`` once it is credited — so a round's per-cycle
    objects die while it still runs instead of all at its end.

    Credited cycle ``j`` (credit order), appended by
    :meth:`StreamingPTrack.classify`: ``resolved[j]`` is the streak's
    :class:`~repro.core.step_counter.ResolvedCycle`, ``cr_v[j]``,
    ``cr_h[j]`` and ``cr_a[j]`` its stored segments (``cr_v[j]`` is
    ``None`` when they were retired, ``cr_a[j]`` when the projection
    was degenerate), and ``stride_m[j]``/``bounce_m[j]`` its stride
    solve (``None`` where none ran or it admitted no solution).
    """

    __slots__ = (
        "bounds", "starts", "ends", "peaks", "v_segs", "h_segs",
        "a_segs", "anterior_ok", "motion_ok", "offsets", "errors",
        "cands", "resolved", "cr_v", "cr_h", "cr_a", "stride_m",
        "bounce_m",
    )

    def __init__(
        self,
        bounds: List[int],
        starts: List[int],
        ends: List[int],
        peaks: List[Tuple[int, ...]],
    ) -> None:
        self.bounds = bounds
        self.starts = starts
        self.ends = ends
        self.peaks = peaks
        self.v_segs: List[np.ndarray] = []
        self.h_segs: List[np.ndarray] = []
        self.a_segs: List[np.ndarray] = []
        self.anterior_ok: List[bool] = []
        self.motion_ok: List[bool] = []
        self.offsets: List[float] = []
        self.errors: Dict[int, Exception] = {}
        self.cands: List[Optional[CycleCandidate]] = [None] * len(starts)
        self.resolved: List[ResolvedCycle] = []
        self.cr_v: List[Optional[np.ndarray]] = []
        self.cr_h: List[Optional[np.ndarray]] = []
        self.cr_a: List[Optional[np.ndarray]] = []
        self.stride_m: List[Optional[float]] = []
        self.bounce_m: List[Optional[float]] = []

    def drop_credits(self, start: int) -> None:
        """Forget credited cycles ``start:`` (a session that failed
        while classifying them)."""
        del self.resolved[start:]
        del self.cr_v[start:]
        del self.cr_h[start:]
        del self.cr_a[start:]

    def reset_solves(self) -> None:
        """Size the stride-solve lists to the credited cycles, unsolved."""
        n = len(self.resolved)
        self.stride_m = [None] * n
        self.bounce_m = [None] * n


def admit_cycles(
    cycles: WindowCycles,
    origins: Sequence[int],
    settled_ends: Sequence[int],
    last_peaks: Sequence[int],
) -> RoundCycles:
    """The admission rule of a pass, for every window of a round at once.

    Window ``w`` of ``cycles`` is a session's retained buffer from
    absolute index ``origins[w]``; ``settled_ends[w]`` and
    ``last_peaks[w]`` come from the same :meth:`StreamingPTrack.begin_pass`.
    A cycle is admitted when it has settled (``end <= settled_end``)
    and its second peak is past the consumed-peak watermark; its first
    peak counts only when it is past the watermark too. A cycle whose
    peaks were all consumed in an earlier pass re-appears every pass
    until the buffer trims it; a re-pairing after a trim may also
    splice an old peak with a fresh one (hybrid cycle) — only the fresh
    peaks count. Pairs are disjoint and increasing, so raising the
    watermark after each admitted cycle changes no later decision and
    one mask decides the round.

    Returns:
        The round's :class:`RoundCycles`, holding every window's
        admitted cycles ``starts``/``ends``/``peaks`` (absolute indices,
        time order) and each window's range of them in ``bounds``, for
        :meth:`StreamingPTrack.stage_cycles`.
    """
    owners = cycles.owners
    lift = (np.asarray(origins) - cycles.window_starts)[owners]
    watermark = np.asarray(last_peaks)[owners]
    ends = cycles.ends + lift
    p2 = cycles.p2 + lift
    ok = (ends <= np.asarray(settled_ends)[owners]) & (p2 > watermark)
    p1 = cycles.p1[ok] + lift[ok]
    return RoundCycles(
        owners[ok].searchsorted(np.arange(len(origins) + 1)).tolist(),
        (cycles.starts[ok] + lift[ok]).tolist(),
        ends[ok].tolist(),
        [
            (first, second) if fresh else (second,)
            for first, second, fresh in zip(
                p1.tolist(), p2[ok].tolist(), (p1 > watermark[ok]).tolist()
            )
        ],
    )


def stepping_values(rc: RoundCycles, config: PTrackConfig) -> None:
    """The stepping admission tests of a round, for every session at once.

    Every staged cycle of ``rc`` that needs the tests (it passed the
    motion gate and the offset kept it in play), whichever session
    staged it, goes into one
    :func:`repro.core.stepping.batch_stepping_tests` call, and the
    results land in its candidate's ``corr``/``corr_v``/``phase_ok``.
    The kernels are row-wise over length-grouped stacks, so a session's
    values do not depend on which other sessions share the call.
    """
    threshold = config.offset_threshold
    need = [
        i
        for i, cand in enumerate(rc.cands)
        if cand is not None and cand.motion_ok and cand.offset <= threshold
    ]
    if not need:
        return
    corr, corr_v, phase_ok = batch_stepping_tests(
        [rc.v_segs[i] for i in need], [rc.a_segs[i] for i in need], config
    )
    cands = rc.cands
    for i, c_a, c_v, ok in zip(need, corr, corr_v, phase_ok):
        cand = cands[i]
        cand.corr = c_a
        cand.corr_v = c_v
        cand.phase_ok = ok


def drain_rounds(
    sessions: Sequence,
    active: List[int],
    out: List[Credits],
    fail: FailFn,
    occupancy: Optional[Histogram] = None,
    stages: Optional[Sequence[Histogram]] = None,
    buffers: Optional[FleetBatchBuffer] = None,
) -> None:
    """Run rounds until no session at positions ``active`` is due.

    Each round advances every session whose head crossed its next hop
    boundary by that one boundary; a session leaves once it has no due
    boundary, or when it fails. Session ``k``'s credits extend
    ``out[k]`` (a :data:`NO_CREDITS` entry is replaced by two fresh
    lists when the session credits). ``occupancy`` observes the due
    sessions of each round; ``stages`` and ``buffers`` go to
    :func:`run_round`.
    """
    while active:
        due: List[int] = []
        boundaries: List[int] = []
        for k in active:
            boundary = sessions[k].peek_boundary()
            if boundary is not None:
                due.append(k)
                boundaries.append(boundary)
        if not due:
            return
        if occupancy is not None:
            occupancy.observe(len(due))
        active = run_round(
            sessions, due, boundaries, out, fail, stages=stages, buffers=buffers
        )


def flush_sessions(
    sessions: Sequence,
    ks: Sequence[int],
    out: List[Credits],
    fail: FailFn,
    occupancy: Optional[Histogram] = None,
    stages: Optional[Sequence[Histogram]] = None,
    buffers: Optional[FleetBatchBuffer] = None,
) -> None:
    """Settle the tails of the sessions at positions ``ks`` (end of stream).

    Opens every session's flush, drains its due hop boundaries through
    ordinary rounds, settles every tail in one final round and closes
    each flush. Each session appears at most once in ``ks``. A session
    that fails anywhere in its flush ends with :data:`NO_CREDITS` in
    ``out``: what it had settled is dropped rather than half-delivered.
    """
    failed: Set[int] = set()

    def fail_flush(k: int, exc: BaseException) -> None:
        failed.add(k)
        fail(k, exc)

    opened: List[int] = []
    due: List[int] = []
    heads: List[int] = []
    for k in ks:
        try:
            head = sessions[k].begin_flush()
            parked = sessions[k].take_pending_credits()
        except Exception as exc:  # noqa: BLE001 — isolation boundary
            fail_flush(k, exc)
            continue
        if parked is not None:
            out[k] = parked
        opened.append(k)
        if head is not None:
            due.append(k)
            heads.append(head)
    drain_rounds(
        sessions, due, out, fail_flush,
        occupancy=occupancy, stages=stages, buffers=buffers,
    )
    if failed:
        heads = [h for k, h in zip(due, heads) if k not in failed]
        due = [k for k in due if k not in failed]
    if due:
        if occupancy is not None:
            occupancy.observe(len(due))
        run_round(
            sessions, due, heads, out, fail_flush,
            final=True, stages=stages, buffers=buffers,
        )
    for k in opened:
        if k not in failed:
            try:
                sessions[k].end_flush()
            except Exception as exc:  # noqa: BLE001
                fail_flush(k, exc)
        if k in failed:
            out[k] = NO_CREDITS


def _lap(hist: Histogram, since: float) -> float:
    """Observe the wall time since ``since`` in ``hist``; return now."""
    now = time.perf_counter()
    hist.observe(now - since)
    return now


def run_round(
    sessions: Sequence,
    due: List[int],
    boundaries: List[int],
    out: List[Credits],
    fail: FailFn,
    final: bool = False,
    stages: Optional[Sequence[Histogram]] = None,
    buffers: Optional[FleetBatchBuffer] = None,
) -> List[int]:
    """The six stages of one round over the sessions at positions ``due``.

    Session ``due[d]`` passes at ``boundaries[d]``. ``final`` selects
    the end-of-stream tail pass: each session's boundary is its head,
    the filter stage commits the
    :meth:`~StreamingPTrack.final_filter_plan` block instead of the hop
    plan, and cycles settle with a zero margin. Returns the positions
    that completed the round; a session that raises (or whose kernel
    surfaces its exception in place) goes to ``fail`` and is dropped
    mid-round, its state mutated exactly up to the failing step.

    With ``stages`` (one histogram per :data:`ROUND_STAGES` entry),
    each stage's wall time is observed; without, no clock is read.
    ``buffers`` lends the filter stack and the segmentation pack their
    scratch; without, they are allocated per round.

    The round's bookkeeping is a fixed number of flat lists, indexed
    by the session's position ``d`` in the due order, by filter block,
    or by cycle (a :class:`RoundCycles`), never a container per session
    or per cycle, so the objects a round keeps alive — what the garbage
    collector walks and promotes — stay few per cycle, whatever the
    number of sessions.
    """
    lap = time.perf_counter() if stages is not None else 0.0
    due_sess = [sessions[k] for k in due]
    n_due = len(due)
    alive = [True] * n_due

    def drop(d: int, exc: BaseException) -> None:
        fail(due[d], exc)
        alive[d] = False

    # Every session of a round shares one configuration and rate.
    cfg = due_sess[0].config
    rate = due_sess[0].sample_rate_hz

    # -- Stage 1: filter -----------------------------------------------
    # Gather every session's pending filter blocks (block ``e`` belongs
    # to session ``owners[e]``) as rows of row-major stacks, one stack
    # of at most FILTER_STACK_BLOCKS equal-length blocks per call, then
    # commit per session in plan order (the order
    # apply_filtered_block requires).
    owners: List[int] = []
    los: List[int] = []
    his: List[int] = []
    finals: List[int] = []
    for d in range(n_due):
        if final:
            count = due_sess[d].final_filter_plan(boundaries[d], los, his, finals)
        else:
            count = due_sess[d].filter_plan(boundaries[d], los, his, finals)
        for _ in range(count):
            owners.append(d)
    blocks: List[Union[np.ndarray, Exception, None]] = [None] * len(los)
    cutoff, order = cfg.lowpass_cutoff_hz, cfg.lowpass_order

    def lowpass_solo(e: int) -> None:
        try:
            keep = finals[e] - los[e]
            blocks[e] = lowpass_rows(
                due_sess[owners[e]].raw_block(los[e], his[e]).T,
                cutoff, rate, order, keep,
            ).T
        except Exception as exc:  # noqa: BLE001
            blocks[e] = exc

    groups: Dict[int, List[int]] = {}
    for e in range(len(los)):
        length = his[e] - los[e]
        group = groups.get(length)
        if group is None:
            group = groups[length] = []
        group.append(e)
    for length, group in groups.items():
        for at in range(0, len(group), FILTER_STACK_BLOCKS):
            entries = group[at : at + FILTER_STACK_BLOCKS]
            shape = (3 * len(entries), length)
            stack = (
                np.empty(shape)
                if buffers is None
                else buffers.request("filter", shape)
            )
            # The backward pass stops at the first row any block keeps.
            keep = length
            row = 0
            for e in entries:
                stack[row : row + 3] = due_sess[owners[e]].raw_block(
                    los[e], his[e]
                ).T
                keep = min(keep, finals[e] - los[e])
                row += 3
            try:
                filtered = lowpass_rows(stack, cutoff, rate, order, keep)
            except Exception:  # noqa: BLE001 — retry solo to find the owner
                for e in entries:
                    lowpass_solo(e)
                continue
            row = 0
            for e in entries:
                blocks[e] = filtered[row : row + 3, finals[e] - los[e] - keep :].T
                row += 3
    for e in range(len(los)):
        d = owners[e]
        if not alive[d]:
            continue
        block = blocks[e]
        if isinstance(block, Exception):
            drop(d, block)
        elif final:
            due_sess[d].apply_final_block(los[e], his[e], finals[e], block)
        else:
            due_sess[d].apply_filtered_block(los[e], his[e], finals[e], block)
    # A stage's lists go as soon as it is done: CPython hands freed
    # lists to the next ones allocated, so later stages add nothing to
    # the collector's young-generation count for them.
    del owners, los, his, finals, blocks, groups
    if stages is not None:
        lap = _lap(stages[0], lap)

    # -- Stage 2: segmentation -------------------------------------------
    # Session ``seg_ds[w]`` opened window ``w``: its filtered rows
    # ``panes[w]``, whose vertical axis ``windows[w]`` is segmented.
    settle_margin = 0 if final else None
    seg_ds: List[int] = []
    panes: List[np.ndarray] = []
    windows: List[np.ndarray] = []
    origins: List[int] = []
    settled_ends: List[int] = []
    last_peaks: List[int] = []
    for d in range(n_due):
        if not alive[d]:
            continue
        try:
            pane = due_sess[d].begin_pass(
                boundaries[d], settle_margin, origins, settled_ends, last_peaks
            )
        except Exception as exc:  # noqa: BLE001
            drop(d, exc)
            continue
        if pane is not None:
            seg_ds.append(d)
            panes.append(pane)
            windows.append(pane[:, 2])
    cycles = batched_segment_windows(
        windows,
        rate,
        min_step_rate_hz=cfg.min_step_rate_hz,
        max_step_rate_hz=cfg.max_step_rate_hz,
        min_prominence=cfg.min_peak_prominence,
        scratch=(
            None
            if buffers is None
            else buffers.request(
                "segment_pack", sum(w.size for w in windows) + len(windows)
            )
        ),
    )
    if stages is not None:
        lap = _lap(stages[1], lap)

    # -- Stage 3: admit + measure every cycle ----------------------------
    # Session ``d`` owns cycles ``cyc_lo[d]:cyc_hi[d]`` of the round
    # (none when it opened no window: its boundary still closes and
    # its trim still runs, via an empty credit). Each admitted cycle's
    # vertical and horizontal segments are copied out of its window, in
    # window order, so they line up with the admission lists.
    rc = admit_cycles(cycles, origins, settled_ends, last_peaks)
    cyc_lo = [0] * n_due
    cyc_hi = [0] * n_due
    bounds, starts, ends = rc.bounds, rc.starts, rc.ends
    v_segs, h_segs = rc.v_segs, rc.h_segs
    for w, d in enumerate(seg_ds):
        error = cycles.errors[w]
        if error is not None:
            # Such a window has no cycles, so the ones copied after it
            # still line up with the admission lists.
            drop(d, error)
            continue
        lo, hi = bounds[w], bounds[w + 1]
        if hi > lo:
            pane = panes[w]
            base = origins[w]
            for i in range(lo, hi):
                a, b = starts[i] - base, ends[i] - base
                v_segs.append(pane[a:b, 2].copy())
                h_segs.append(pane[a:b, :2].copy())
            cyc_lo[d] = lo
            cyc_hi[d] = hi
    del cycles, seg_ds, panes, windows, origins, settled_ends, last_peaks
    if v_segs:
        (
            rc.a_segs, rc.anterior_ok, rc.motion_ok, rc.offsets, rc.errors
        ) = batched_stage_measurements(v_segs, h_segs, cfg)
    for d in range(n_due):
        if not alive[d]:
            continue
        try:
            due_sess[d].stage_cycles(rc, cyc_lo[d], cyc_hi[d], boundaries[d])
        except Exception as exc:  # noqa: BLE001
            # Staging raises at a cycle whose measurement failed,
            # after having staged the session's earlier cycles.
            drop(d, exc)
    if stages is not None:
        lap = _lap(stages[2], lap)

    # -- Stage 4: stepping tests -----------------------------------------
    # A session that failed staging leaves its earlier candidates
    # behind; the row-wise kernels test them harmlessly.
    stepping_values(rc, cfg)
    if stages is not None:
        lap = _lap(stages[3], lap)

    # -- Stage 5: classify, solve strides --------------------------------
    # Session ``d`` owns credited cycles ``cr_lo[d]:cr_hi[d]``.
    cr_lo = [0] * n_due
    cr_hi = [0] * n_due
    rows: List[int] = []
    profiles: List[UserProfile] = []
    for d in range(n_due):
        if not alive[d] or cyc_hi[d] == cyc_lo[d]:
            continue
        start = len(rc.resolved)
        n_rows = len(rows)
        try:
            due_sess[d].classify(rc, cyc_lo[d], cyc_hi[d], rows, profiles)
        except Exception as exc:  # noqa: BLE001
            rc.drop_credits(start)
            del rows[n_rows:]
            del profiles[n_rows:]
            drop(d, exc)
            continue
        cr_lo[d] = start
        cr_hi[d] = len(rc.resolved)
    rc.reset_solves()
    if rows:
        solutions = batched_cycle_solutions(
            [rc.cr_v[j] for j in rows],
            [rc.cr_a[j] for j in rows],
            [rc.resolved[j].gait_type for j in rows],
            profiles,
            1.0 / rate,
        )
        for j, stride, bounce, solved in zip(rows, *solutions):
            if solved:
                rc.stride_m[j] = stride
                rc.bounce_m[j] = bounce
    if stages is not None:
        lap = _lap(stages[4], lap)

    # -- Stage 6: credit -------------------------------------------------
    completed: List[int] = []
    for d in range(n_due):
        if not alive[d]:
            continue
        k = due[d]
        credits = out[k]
        if cr_hi[d] > cr_lo[d] and credits is NO_CREDITS:
            credits = out[k] = ([], [])
        steps, strides = credits
        n_steps, n_strides = len(steps), len(strides)
        try:
            due_sess[d].credit_resolved(rc, cr_lo[d], cr_hi[d], steps, strides)
        except Exception as exc:  # noqa: BLE001
            if cr_hi[d] > cr_lo[d]:
                del steps[n_steps:]
                del strides[n_strides:]
            drop(d, exc)
            continue
        completed.append(k)
    if stages is not None:
        _lap(stages[5], lap)
    return completed
