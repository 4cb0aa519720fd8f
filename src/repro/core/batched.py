"""Fleet-batched cycle measurements: many cycles per kernel dispatch.

Per staged cycle the scalar streaming core runs an eigen-decomposition,
two critical-point extractions and (when credited) three mean-removal
integrations — each a handful of tiny NumPy calls whose dispatch
overhead dwarfs the arithmetic at gait-cycle lengths (~100 samples).
This module evaluates the same measurements for *all* cycles of one
serving round at once. Cycle length follows cadence, so a round's
cycles rarely share one: each kernel right-pads every cycle of the call
into one ``(cycles, width)`` stack (``(cycles, width, 2)`` for the
horizontal axes), carries the per-row lengths, and runs every pass
once over the whole stack. One concatenate of the cycles, each
followed by a run of zeros, fills a stack (:func:`_stack_rows`).

Each padded expression reproduces the scalar one bit for bit on every
row's valid prefix:

* sums and means — NumPy reduces a float64 row by pairwise summation;
  a ``where=`` reduction over each row's prefix mask runs that same
  summation on every prefix at once (:func:`_row_sums`: the motion
  gate's three, the integrator's two, the offsets' one);
* the ``(n, 2)`` column means and the trapezoid integrals — sequential
  sums, read off a row-wise ``cumsum`` (exact on any prefix);
* the 2x2 scatter, the direction norms and the projection — stacked
  BLAS products over the zero-padded stack (trailing zero terms leave
  a BLAS sum unchanged while the product stays within one BLAS block,
  see :data:`_SCATTER_WIDTH`);
* extremum locations and values — reductions over the prefix through
  ``+-inf`` fills;
* the Eq. (1) critical points — the padded stack *is* the packed
  signal: with ``+inf`` past each row and one spare column, one
  :func:`~repro.signal.batched.stack_extrema` scan finds every row's
  peaks and valleys and :func:`~repro.signal.batched.stack_crossings`
  its zero crossings, all as flat indices ``row * stride + sample``.
  Points stay flat from there to the offset: the stride keeps each
  row's values apart, so one sort merges every row's turning points,
  one ``searchsorted`` matches them, and the stride cancels in every
  same-row difference.

The serving equivalence suite asserts credit-for-credit identity with
the per-cycle reference. The few genuinely serial pieces — the Brent
bounce solve, the greedy spacing — stay scalar per cycle.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounce import solve_bounce, solve_bounce_block
from repro.core.config import PTrackConfig
from repro.core.stride import stride_rows_from_bounce
from repro.exceptions import GeometryError, SignalError
from repro.signal.batched import stack_crossings, stack_extrema
from repro.types import GaitType, UserProfile

__all__ = [
    "StageMeasurements",
    "CycleSolutions",
    "batched_stage_measurements",
    "batched_cycle_solutions",
]


class StageMeasurements(NamedTuple):
    """The measured half of a round's staged cycles, one entry per cycle.

    Cycle ``i`` has the anterior projection ``a_segs[i]`` (zeros when
    the direction fit failed), ``anterior_ok[i]``, the motion gate
    ``motion_ok[i]`` and the Eq. (1) offset ``offsets[i]`` — what the
    scalar per-cycle measurement computes (``scalar_measure`` in
    ``tests/scalar_drain.py``). ``errors`` maps a
    cycle the scalar path raises on (degenerate lengths) to that
    exception; callers decide the isolation policy.
    """

    a_segs: List[np.ndarray]
    anterior_ok: List[bool]
    motion_ok: List[bool]
    offsets: List[float]
    errors: Dict[int, Exception]


class CycleSolutions(NamedTuple):
    """Per-cycle stride solves, one entry per cycle: ``stride_m[i]`` and
    ``bounce_m[i]`` where ``solved[i]``, NaN where the geometry admits
    no solve."""

    stride_m: List[float]
    bounce_m: List[float]
    solved: List[bool]


#: Longest row whose 2x2 scatter comes from the stacked product. BLAS
#: splits the inner dimension of a product longer than its block size
#: (384 for OpenBLAS 0.3.31 on a Sapphire Rapids Xeon; other kernels
#: block smaller) and adds the parts, so a zero-padded row could split
#: where its own ``(n, 2)`` product does not. Up to this width neither
#: product splits; longer rows (over 2.5 s at 100 Hz) take their own.
_SCATTER_WIDTH = 256


def _prefix_mask(lens: np.ndarray, width: int) -> np.ndarray:
    """The ``(rows, width)`` mask of each row's first ``lens[r]`` columns."""
    return np.arange(width) < lens[:, None]


def _row_sums(stack: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``stack[r, :lens[r]].sum()`` for every row, bit for bit.

    ``valid`` is the rows' :func:`_prefix_mask`. A ``where=`` reduction
    runs NumPy's float64 add loop once per run of unmasked elements,
    from the identity ``0.0``; a prefix mask makes each row's prefix
    one run, which the loop reduces by the same pairwise summation
    ``sum`` applies to that prefix. Nothing past a prefix is read.
    """
    return np.add.reduce(stack, axis=1, where=valid)


def _stack_rows(
    arrs: Sequence[np.ndarray], lens: Sequence[int], out: np.ndarray
) -> np.ndarray:
    """Right-pad ``arrs`` into ``out``, zeros past each length.

    ``out`` is a C-contiguous ``(rows, width)`` or ``(rows, width, 2)``
    stack. One concatenate of the rows, each followed by a zero run (a
    view of one zero block), fills it in row-major order: cheaper at
    round sizes than two slice stores per row, and several times
    cheaper than a boolean-mask store over the stack.
    """
    width = out.shape[1]
    zeros = np.zeros((width,) + out.shape[2:])
    parts = []
    for arr, n in zip(arrs, lens):
        parts.append(arr)
        parts.append(zeros[: width - n])
    np.concatenate(parts, out=out.reshape((-1,) + out.shape[2:]))
    return out


def _rows_cumtrapz(rows: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.signal.integration.cumulative_trapezoid`.

    A sequential sum, so exact on each row's prefix whatever follows.
    """
    out[:, 0] = 0.0
    body = out[:, 1:]
    np.add(rows[:, 1:], rows[:, :-1], out=body)
    body *= dt / 2.0
    np.cumsum(body, axis=1, out=body)
    return out


def _integrate_rows(
    stack: np.ndarray, lens: np.ndarray, dt: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean-removal velocity and displacement of a padded stack.

    Consumes ``stack``: it is the work buffer of both integrals.
    """
    valid = _prefix_mask(lens, stack.shape[1])
    n = lens.astype(float)
    last = stack[np.arange(lens.size), lens - 1]
    total = _row_sums(stack, valid)
    trapezoid_mean = (total - 0.5 * (stack[:, 0] + last)) / (n - 1.0)
    stack -= trapezoid_mean[:, None]
    velocity = _rows_cumtrapz(stack, dt, np.empty_like(stack))
    np.subtract(velocity, (_row_sums(velocity, valid) / n)[:, None], out=stack)
    return velocity, _rows_cumtrapz(stack, dt, np.empty_like(stack))


def _offsets_from_flat(
    v_points: np.ndarray,
    a_points: np.ndarray,
    eligible: np.ndarray,
    lens: np.ndarray,
    stride: int,
    config: PTrackConfig,
) -> np.ndarray:
    """Eq. (1) of every row from sorted flat critical-point indices.

    ``v_points`` and ``a_points`` are row ``r``'s vertical turning
    points and anterior critical points as ``r * stride + index``. The
    stride keeps each row's values in a range of its own, so one
    ``searchsorted`` finds every point's bracketing neighbours within
    its row, and every difference pairs values of one row: the lift
    cancels exactly, integer for integer. Per row this is
    :func:`repro.core.offset.offset_from_points`; rows not
    ``eligible`` (an axis with no variance), without vertical points
    or with fewer than two anterior points read 0.0, as there.
    """
    offsets = np.zeros(lens.size)
    a_rows = a_points // stride
    a_counts = np.bincount(a_rows, minlength=lens.size)
    v_rows = v_points // stride
    keep = (eligible & (a_counts >= 2))[v_rows]
    v = v_points[keep]
    if v.size == 0:
        return offsets
    rows = v_rows[keep]
    lo = np.zeros(lens.size, dtype=np.intp)
    np.cumsum(a_counts[:-1], out=lo[1:])
    lo = lo[rows]
    hi = lo + a_counts[rows] - 1
    pos = a_points.searchsorted(v)
    left = a_points[np.clip(pos - 1, lo, hi)]
    right = a_points[np.clip(pos, lo, hi)]
    n = lens[rows].astype(float)
    mismatch = np.minimum(np.abs(v - left), np.abs(right - v)).astype(float)
    np.minimum(mismatch, config.max_normalized_offset * n, out=mismatch)
    # np.diff(vertical_idx, prepend=0.0) per row: a row's first point
    # differences against the row's own origin.
    first = np.ones(v.size, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    prev = np.empty_like(v)
    prev[1:] = v[:-1]
    prev[first] = rows[first] * stride
    weights = np.minimum((v - prev) / n, config.max_point_weight)
    terms = weights * mismatch / n
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, v.size))
    cols = np.minimum(starts[:, None] + np.arange(int(counts.max())), v.size - 1)
    valid = _prefix_mask(counts, cols.shape[1])
    offsets[rows[starts]] = _row_sums(terms[cols], valid)
    return offsets


def batched_stage_measurements(
    v_segs: Sequence[np.ndarray],
    h_segs: Sequence[np.ndarray],
    config: PTrackConfig,
) -> StageMeasurements:
    """Measure every staged cycle of a serving round in one padded stack.

    For each cycle ``i`` this computes exactly what the scalar
    per-cycle measurement computes from ``(v_segs[i], h_segs[i])``:
    the anterior projection (or zeros when the direction fit fails),
    the motion gate, and — for moving cycles — the Eq. (1)
    critical-point offset.

    Args:
        v_segs: Per-cycle vertical acceleration segments, any lengths.
        h_segs: Per-cycle horizontal segments, each ``(n, 2)``.
        config: PTrack configuration.

    Returns:
        The :class:`StageMeasurements` of the cycles, input order.
        Returned projections own their memory.
    """
    count = len(v_segs)
    errors: Dict[int, Exception] = {}
    if count == 0:
        return StageMeasurements([], [], [], [], errors)

    lens = np.asarray([v.size for v in v_segs], dtype=np.intp)
    size_list = lens.tolist()
    width = int(lens.max())
    n = lens.astype(float)
    # Every stack is allocated per call: kept in the pool's scratch
    # across rounds, they read 1-2 MB higher in peak RSS.
    stack_h = _stack_rows(h_segs, size_list, np.empty((count, width, 2)))

    # Direction fit (anterior_direction per row). NumPy sums an (n, 2)
    # column sequentially from +0.0: a cumsum read at the last sample
    # (twice as fast as a reduce over the padded axis, whose inner
    # loop is two elements long).
    centred = np.cumsum(stack_h, axis=1)
    col_means = (0.0 + centred[np.arange(count), lens - 1]) / n[:, None]
    np.subtract(stack_h, col_means[:, None, :], out=centred)
    for row, size in zip(centred, size_list):
        row[size:] = 0.0
    k = min(width, _SCATTER_WIDTH)
    scatters = np.matmul(centred.transpose(0, 2, 1)[:, :, :k], centred[:, :k])
    for r in np.flatnonzero(lens > _SCATTER_WIDTH):
        rows = centred[r, : lens[r]]
        scatters[r] = rows.T @ rows
    # allclose(scatter, 0) with b == 0 reduces to |x| <= atol.
    anterior_ok = (
        (lens >= 3)
        & np.isfinite(scatters).all(axis=(1, 2))
        & ~(np.abs(scatters) <= 1e-8).all(axis=(1, 2))
    )
    directions = np.zeros((count, 2))
    live = np.flatnonzero(anterior_ok)
    if live.size:
        eigvals, eigvecs = np.linalg.eigh(scatters[live])
        sel = np.argmax(eigvals, axis=1)
        dirs = eigvecs[np.arange(live.size), :, sel]
        flip = np.where(
            np.abs(dirs[:, 0]) > 1e-12, dirs[:, 0] < 0, dirs[:, 1] < 0
        )
        dirs[flip] = -dirs[flip]
        # Normalised twice, as the reference does (anterior_direction,
        # then project_horizontal), each time through the BLAS dot of
        # np.linalg.norm's 1-D path: a stacked (1, 2) @ (2, 1) product.
        for _ in range(2):
            dirs = dirs / np.sqrt(np.matmul(dirs[:, None, :], dirs[:, :, None])[:, 0])
        directions[live] = dirs

    # Vertical rows on top, anterior rows below: both axes' moments
    # come from one pass over one stack.
    va = np.empty((2 * count, width))
    anterior = va[count:]
    np.matmul(
        stack_h, directions[:, :, None], out=anterior.reshape(count, width, 1)
    )
    anterior[~anterior_ok] = 0.0
    _stack_rows(v_segs, size_list, va[:count])
    # Owned copies: staged segments outlive the round (session stores,
    # snapshots) and must neither pin this stack nor see its reuse.
    a_segs = [
        anterior[i, :size].copy() if ok else np.zeros_like(v)
        for i, (size, ok, v) in enumerate(
            zip(size_list, anterior_ok.tolist(), v_segs)
        )
    ]

    # Motion gate and centred axes (np.std(x - x.mean()) per row, and
    # critical_points_for_offset's centring): mean, centre, re-centre,
    # square, mean, sqrt — every sum in NumPy's pairwise order, all
    # over one prefix mask.
    n2 = np.concatenate([n, n])
    valid = _prefix_mask(np.concatenate([lens, lens]), width)
    dev = va - (_row_sums(va, valid) / n2)[:, None]
    sq = va
    np.subtract(dev, (_row_sums(dev, valid) / n2)[:, None], out=sq)
    np.multiply(sq, sq, out=sq)
    stds = np.sqrt(_row_sums(sq, valid) / n2)
    v_std = stds[:count]
    a_std = stds[count:]
    motion_ok = v_std >= config.min_vertical_std

    # Offsets for moving cycles only (the scalar path skips the rest).
    offsets = np.zeros(count)
    for i in np.flatnonzero(motion_ok & (lens < 4)).tolist():
        # The scalar path raises out of critical_points_for_offset here;
        # surface the same failure per cycle instead of per round.
        errors[i] = SignalError(
            f"cycle axis must be 1-D with >= 4 samples, got ({size_list[i]},)"
        )
    need = np.flatnonzero(motion_ok & (lens >= 4))
    m = need.size
    if m:
        # The centred vertical rows of the moving cycles, then their
        # centred anterior rows, in one stack with a spare column: row
        # ``r`` of either half is cycle ``need[r]``, so a flat index
        # ``r * stride + j`` names the same cycle and sample in both.
        stride = width + 1
        need_lens = lens[need]
        scan = np.empty((2 * m, stride))
        scan[:, :width] = dev[np.concatenate([need, count + need])]
        relaxed_prom = (
            config.matching_prominence_factor * config.critical_point_prominence
        )
        relaxed_hyst = config.matching_prominence_factor * config.crossing_hysteresis
        peaks, valleys = stack_extrema(
            scan,
            np.concatenate([need_lens, need_lens]),
            np.repeat([config.critical_point_prominence, relaxed_prom], m),
            np.tile(np.maximum(1, need_lens // 16), 2),
        )
        turning = np.sort(np.concatenate([peaks, valleys]))
        split = turning.searchsorted(m * stride)
        vertical_points = turning[:split]
        anterior_turns = turning[split:] - m * stride
        # Anterior crossings, minus those on a turning point (sorted
        # membership, == per-cycle ~np.isin). Crossings are sign-blind,
        # so the negated rows stack_extrema leaves behind serve as is.
        crossings = stack_crossings(scan[m:], need_lens, relaxed_hyst)
        if crossings.size and anterior_turns.size:
            at = anterior_turns.searchsorted(crossings)
            np.minimum(at, anterior_turns.size - 1, out=at)
            crossings = crossings[anterior_turns[at] != crossings]
        anterior_points = np.sort(np.concatenate([anterior_turns, crossings]))
        # A zero-variance axis has no critical points in the scalar path.
        eligible = (v_std[need] > 0.0) & (a_std[need] > 0.0)
        offsets[need] = _offsets_from_flat(
            vertical_points, anterior_points, eligible, need_lens, stride, config
        )

    return StageMeasurements(
        a_segs, anterior_ok.tolist(), motion_ok.tolist(), offsets.tolist(), errors
    )


def batched_cycle_solutions(
    v_segs: Sequence[np.ndarray],
    a_segs: Sequence[Optional[np.ndarray]],
    gaits: Sequence[GaitType],
    profiles: Sequence[UserProfile],
    dt: float,
) -> CycleSolutions:
    """Per-cycle ``(stride_m, bounce_m)`` solves in one padded stack.

    The batched form of
    :meth:`repro.core.stride.PTrackStrideEstimator.cycle_stride` over
    every cycle credited in one serving round. Three fusions keep the
    per-cycle Python floor out of the hot path:

    * the walking anterior rows, walking vertical rows and stepping
      vertical rows of every length share **one** padded
      :func:`_integrate_rows` pass (the double integral's inner
      velocity is reused instead of recomputed, and row-wise kernels
      are independent across rows, so mixing populations in one stack
      changes nothing);
    * the walking key-moment location (arm extremes, anterior-speed
      peak, the skip gates) runs as masked row-wise reductions instead
      of a per-cycle Python loop;
    * all surviving bounce geometries pool into a single
      :func:`~repro.core.bounce.solve_bounce_block` call, with a scalar
      :func:`~repro.core.bounce.solve_bounce` fallback for any row the
      block solver does not fully resolve — so credits are
      bit-identical to the per-cycle reference.

    Args:
        v_segs: Per credited cycle, its vertical segment.
        a_segs: Its anterior segment, ``None`` when the direction fit
            failed at staging (those cycles are not solved, as the
            scalar re-derivation would fail identically).
        gaits: Its gait type.
        profiles: The owning session's user profile.
        dt: Shared sample period in seconds.

    Returns:
        The :class:`CycleSolutions`; a cycle is unsolved when its
        geometry admits no solve (non-finite segments included, which
        the scalar integrator rejects).
    """
    count = len(v_segs)
    stride_out = [math.nan] * count
    bounce_out = [math.nan] * count
    solved_out = [False] * count
    walking: List[int] = []
    stepping: List[int] = []
    for i in range(count):
        v_seg = v_segs[i]
        if gaits[i] is GaitType.STEPPING:
            if v_seg.size >= 2:
                stepping.append(i)
        else:
            a_seg = a_segs[i]
            if a_seg is not None and a_seg.size == v_seg.size >= 16:
                walking.append(i)
    nw = len(walking)
    segs = (
        [a_segs[i] for i in walking]
        + [v_segs[i] for i in walking]
        + [v_segs[i] for i in stepping]
    )
    if not segs:
        return CycleSolutions(stride_out, bounce_out, solved_out)
    size_list = [s.size for s in segs]
    lens = np.asarray(size_list, dtype=np.intp)
    width = max(size_list)
    stack = _stack_rows(segs, size_list, np.empty((len(segs), width)))
    # The scalar integrator rejects non-finite segments outright.
    finite = np.isfinite(stack).all(axis=1)
    vel, disp = _integrate_rows(stack, lens, dt)
    # Extremes over each row's prefix: fill the padding with +inf for
    # the minima, then -inf for the maxima (first-extremum ties and
    # NaN propagation stay the scalar reductions').
    cols = np.arange(width)
    padding = cols >= lens[:, None]
    np.copyto(disp, np.inf, where=padding)
    lows = disp[:nw].argmin(axis=1)
    step_min = disp[2 * nw :].min(axis=1)
    np.copyto(disp, -np.inf, where=padding)
    highs = disp[:nw].argmax(axis=1)
    step_max = disp[2 * nw :].max(axis=1)

    # The solved cycles: output positions and their bounces.
    solved_rows: List[int] = []
    bounces: List[np.ndarray] = []
    if stepping:
        ok = finite[2 * nw :]
        bounces.append((step_max - step_min)[ok])
        solved_rows += [stepping[s] for s in ok.nonzero()[0].tolist()]

    if nw:
        disp_a = disp[:nw]
        disp_v = disp[nw : 2 * nw]
        backmost = np.minimum(lows, highs)
        foremost = np.maximum(lows, highs)
        span = foremost - backmost
        margin = np.maximum(1, span // 8)
        # First max of |vel_a| within [backmost+margin, foremost-margin]
        # per row — the masked form of the scalar slice argmax (the
        # -inf fill preserves first-max tie-breaking, and the window
        # is never empty: margin <= span // 2 by construction).
        speed = np.abs(vel[:nw], out=vel[:nw])
        speed[
            (cols < (backmost + margin)[:, None])
            | (cols > (foremost - margin)[:, None])
        ] = -np.inf
        vidx = speed.argmax(axis=1)
        take = np.arange(nw)
        d_total = np.abs(disp_a[take, foremost] - disp_a[take, backmost])
        # Scalar gate is `if d_total < 0.01: continue`; keep the
        # negated form so non-finite rows follow the scalar branch.
        ok = (
            finite[:nw]
            & finite[nw : 2 * nw]
            & (span >= lens[:nw] // 4)
            & (speed[take, vidx] > 0.0)
            & ~(d_total < 0.01)
        )
        sel = ok.nonzero()[0]
        if sel.size:
            at_v = disp_v[sel, vidx[sel]]
            h1_all = disp_v[sel, backmost[sel]] - at_v
            h2_all = disp_v[sel, foremost[sel]] - at_v
            d_all = d_total[sel]
            sol_idx = [walking[s] for s in sel.tolist()]
            arms = np.asarray([profiles[i].arm_length_m for i in sol_idx])
            bounce, solved = solve_bounce_block(h1_all, h2_all, d_all, arms)
            for r in (~solved).nonzero()[0].tolist():
                # The block solver leaves a row unresolved when the
                # scalar path would raise (or, theoretically, on
                # iteration exhaustion): re-run it scalar so error
                # semantics — and any brentq non-convergence
                # behaviour — stay exact.
                try:
                    bounce[r] = solve_bounce(
                        float(h1_all[r]), float(h2_all[r]),
                        float(d_all[r]), float(arms[r]),
                    )
                    solved[r] = True
                except GeometryError:
                    pass
            bounces.append(bounce[solved])
            solved_rows += [sol_idx[r] for r in solved.nonzero()[0].tolist()]

    if solved_rows:
        bounce = np.concatenate(bounces)
        legs = np.asarray([profiles[i].leg_length_m for i in solved_rows])
        ks = np.asarray([profiles[i].calibration_k for i in solved_rows])
        strides = stride_rows_from_bounce(bounce, legs, ks)
        for i, stride, b in zip(solved_rows, strides.tolist(), bounce.tolist()):
            stride_out[i] = stride
            bounce_out[i] = b
            solved_out[i] = True
    return CycleSolutions(stride_out, bounce_out, solved_out)
