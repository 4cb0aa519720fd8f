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
once over the whole stack.

Each padded expression reproduces the scalar one bit for bit on every
row's valid prefix:

* sums and means — NumPy reduces a float64 row by pairwise summation;
  :func:`_row_sums` replays that exact operand order on every
  row's prefix at once;
* the ``(n, 2)`` column means and the trapezoid integrals — sequential
  sums, read off a row-wise ``cumsum`` (exact on any prefix);
* the 2x2 scatter, the direction norms and the projection — stacked
  BLAS products over the zero-padded stack (trailing zero terms leave
  a BLAS sum unchanged while the product stays within one BLAS block,
  see :data:`_SCATTER_WIDTH`);
* extremum locations and values — reductions over the prefix through
  ``+-inf`` fills.

The serving equivalence suite asserts credit-for-credit identity with
the per-cycle reference. The few genuinely serial pieces — the Brent
bounce solve, the greedy spacing — stay scalar per cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bounce import solve_bounce, solve_bounce_block
from repro.core.config import PTrackConfig
from repro.core.stride import stride_rows_from_bounce
from repro.exceptions import GeometryError, SignalError
from repro.signal.batched import batched_crossing_indices, multi_window_extrema_pair
from repro.types import GaitType, UserProfile

__all__ = [
    "StageMeasurement",
    "batched_stage_measurements",
    "batched_cycle_solutions",
    "integrate_block",
]

#: ``(a_seg, anterior_ok, motion_ok, offset)`` — the measured half of
#: one staged cycle, mirroring what ``StreamingPTrack._stage`` computes
#: before it builds the candidate. An ``Exception`` instance takes the
#: tuple's place when the scalar path would have raised for that cycle
#: (degenerate lengths); callers decide the isolation policy.
StageMeasurement = Union[
    Tuple[np.ndarray, bool, bool, float],
    Exception,
]

#: NumPy's pairwise-summation block: a float64 sum of at most this many
#: elements is one 8-lane unrolled loop; a longer one splits in two at
#: a multiple of 8 near the middle and adds the halves.
_PAIRWISE_BLOCK = 128

#: Longest row whose 2x2 scatter comes from the stacked product. BLAS
#: splits the inner dimension of a product longer than its block size
#: (384 for OpenBLAS 0.3.31 on a Sapphire Rapids Xeon; other kernels
#: block smaller) and adds the parts, so a zero-padded row could split
#: where its own ``(n, 2)`` product does not. Up to this width neither
#: product splits; longer rows (over 2.5 s at 100 Hz) take their own.
_SCATTER_WIDTH = 256


def _pairwise(rows: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """NumPy's ``pairwise_sum`` of ``rows[r, :lens[r]]`` for every row.

    A segment of at most 128 elements is a *leaf*: eight lanes
    accumulate it block by block (lane ``j`` starts at element ``j``),
    combine as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the 0-7
    trailing elements add on sequentially; under 8 elements it is a
    sequential sum from ``0.0``. A longer segment splits at
    ``n//2 - (n//2) % 8`` and sums as ``pw(left) + pw(right)``.
    Masked lanes and tail slots hold ``-0.0``, the exact additive
    identity, so no partial sum moves and nothing past a segment is
    read.
    """
    count, width = rows.shape
    split = lens > _PAIRWISE_BLOCK
    sizes = np.where(split, 0, lens)
    blocks = sizes // 8
    seq = np.zeros((count, 8))
    n_blocks = int(blocks.max())
    if n_blocks:
        cols = np.arange(8 * n_blocks)
        lanes = np.where(cols < 8 * blocks[:, None], rows[:, : cols.size], -0.0)
        lanes = lanes.reshape(count, n_blocks, 8)
        np.cumsum(lanes, axis=1, out=lanes)
        pairs = lanes[:, -1, 0::2] + lanes[:, -1, 1::2]
        quads = pairs[:, 0::2] + pairs[:, 1::2]
        seq[:, 0] = np.where(blocks > 0, quads[:, 0] + quads[:, 1], 0.0)
    tail = np.arange(7)
    keep = tail < (sizes % 8)[:, None]
    at = np.where(keep, 8 * blocks[:, None] + tail, 0)
    seq[:, 1:] = np.where(keep, rows[np.arange(count)[:, None], at], -0.0)
    out = np.cumsum(seq, axis=1)[:, -1]
    if split.any():
        idx = np.flatnonzero(split)
        n = lens[idx]
        half = n // 2
        left = half - half % 8
        right = n - left
        cols = np.minimum(left[:, None] + np.arange(int(right.max())), width - 1)
        out[idx] = _pairwise(rows[idx], left) + _pairwise(
            rows[idx[:, None], cols], right
        )
    return out


def _row_sums(rows: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``rows[r, :lens[r]].sum()`` for every row, bit for bit.

    A float64 ``sum`` reduces from ``+0.0``: ``0.0 + pairwise_sum``.
    """
    return 0.0 + _pairwise(rows, lens)


def _pad_rows(
    arrs: Sequence[np.ndarray], valid: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Right-pad ``arrs`` into ``out``, zeros past each row's length.

    ``valid`` is the ``(rows, width)`` prefix mask and ``out`` is
    ``(rows, width)`` or ``(rows, width, 2)``; a boolean-mask store
    fills in row-major order, so the concatenation lands row by row.
    """
    out[valid] = np.concatenate(arrs)
    out[~valid] = 0.0
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
    n = lens.astype(float)
    last = stack[np.arange(lens.size), lens - 1]
    trapezoid_mean = (_row_sums(stack, lens) - 0.5 * (stack[:, 0] + last)) / (
        n - 1.0
    )
    stack -= trapezoid_mean[:, None]
    velocity = _rows_cumtrapz(stack, dt, np.empty_like(stack))
    np.subtract(velocity, (_row_sums(velocity, lens) / n)[:, None], out=stack)
    return velocity, _rows_cumtrapz(stack, dt, np.empty_like(stack))


def integrate_block(
    rows: Sequence[np.ndarray], dt: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise mean-removal single **and** double integration.

    For accelerations of any lengths (at least 2 samples each; a 2-D
    array is a sequence of equal-length rows) this returns
    ``(velocity, displacement)`` as two ``(rows, width)`` stacks, right
    padded to the longest row. Row ``r``'s first ``len(rows[r])``
    entries are the row-wise forms of
    :func:`repro.signal.integration.integrate_mean_removal` and
    :func:`repro.signal.integration.double_integrate_mean_removal`,
    bit-identical to them; the padding past it carries no meaning.
    The double integral's inner velocity *is* the returned velocity,
    so callers needing both (the walking-cycle moment extraction) pay
    one fused call instead of recomputing it.
    """
    lens = np.asarray([r.size for r in rows], dtype=np.intp)
    width = int(lens.max())
    valid = np.arange(width) < lens[:, None]
    stack = _pad_rows(rows, valid, np.empty((lens.size, width)))
    return _integrate_rows(stack, lens, dt)


def batched_stage_measurements(
    v_segs: Sequence[np.ndarray],
    h_segs: Sequence[np.ndarray],
    config: PTrackConfig,
) -> List[StageMeasurement]:
    """Measure every staged cycle of a serving round in one padded stack.

    For each cycle ``i`` this computes exactly what the scalar
    ``StreamingPTrack._stage`` computes from ``(v_segs[i], h_segs[i])``:
    the anterior projection (or zeros when the direction fit fails),
    the motion gate, and — for moving cycles — the Eq. (1)
    critical-point offset.

    Args:
        v_segs: Per-cycle vertical acceleration segments, any lengths.
        h_segs: Per-cycle horizontal segments, each ``(n, 2)``.
        config: PTrack configuration.

    Returns:
        One :data:`StageMeasurement` per cycle, input order. Returned
        projections own their memory.
    """
    count = len(v_segs)
    results: List[StageMeasurement] = [None] * count  # type: ignore[list-item]
    if count == 0:
        return results

    lens = np.asarray([v.size for v in v_segs], dtype=np.intp)
    width = int(lens.max())
    valid = np.arange(width) < lens[:, None]
    n = lens.astype(float)
    # Every stack is allocated per call: kept in the pool's scratch
    # across rounds, they read 1-2 MB higher in peak RSS.
    stack_h = _pad_rows(h_segs, valid, np.empty((count, width, 2)))

    # Direction fit (anterior_direction per row). NumPy sums an (n, 2)
    # column sequentially from +0.0: a cumsum read at the last sample.
    centred = np.cumsum(stack_h, axis=1)
    col_means = (0.0 + centred[np.arange(count), lens - 1]) / n[:, None]
    np.subtract(stack_h, col_means[:, None, :], out=centred)
    centred[~valid] = 0.0
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
    _pad_rows(v_segs, valid, va[:count])
    # Owned copies: staged segments outlive the round (session stores,
    # snapshots) and must neither pin this stack nor see its reuse.
    a_segs = [
        anterior[i, :size].copy() if ok else np.zeros_like(v)
        for i, (size, ok, v) in enumerate(
            zip(lens.tolist(), anterior_ok.tolist(), v_segs)
        )
    ]

    # Motion gate and centred axes (np.std(x - x.mean()) per row, and
    # critical_points_for_offset's centring): mean, centre, re-centre,
    # square, mean, sqrt — every sum in NumPy's pairwise order.
    lens2 = np.concatenate([lens, lens])
    n2 = np.concatenate([n, n])
    dev = va - (_row_sums(va, lens2) / n2)[:, None]
    sq = va
    np.subtract(dev, (_row_sums(dev, lens2) / n2)[:, None], out=sq)
    np.multiply(sq, sq, out=sq)
    stds = np.sqrt(_row_sums(sq, lens2) / n2)
    v_std = stds[:count]
    a_std = stds[count:]
    motion_ok = v_std >= config.min_vertical_std

    # Offsets for moving cycles only (the scalar path skips the rest).
    need = [i for i in range(count) if motion_ok[i]]
    offsets = np.zeros(count)
    short = [i for i in need if v_segs[i].size < 4]
    for i in short:
        # The scalar path raises out of critical_points_for_offset here;
        # surface the same failure per cycle instead of per round.
        results[i] = SignalError(
            f"cycle axis must be 1-D with >= 4 samples, got ({v_segs[i].size},)"
        )
    need = [i for i in need if v_segs[i].size >= 4]
    if need:
        relaxed_prom = (
            config.matching_prominence_factor * config.critical_point_prominence
        )
        relaxed_hyst = config.matching_prominence_factor * config.crossing_hysteresis
        # Per cycle, up to two extrema windows: the centred vertical axis
        # (full prominence) and the centred anterior axis (relaxed).
        # A zero-variance axis yields no critical points in the scalar
        # path, so it is simply not packed.
        windows: List[np.ndarray] = []
        proms: List[float] = []
        dists: List[int] = []
        slots: List[Tuple[int, str]] = []
        a_windows: List[np.ndarray] = []
        for i in need:
            n = v_segs[i].size
            min_dist = max(1, n // 16)
            if v_std[i] > 0.0:
                windows.append(dev[i, :n])
                proms.append(config.critical_point_prominence)
                dists.append(min_dist)
                slots.append((i, "v"))
            if a_std[i] > 0.0:
                windows.append(dev[count + i, :n])
                proms.append(relaxed_prom)
                dists.append(min_dist)
                slots.append((i, "a"))
                a_windows.append(windows[-1])
        peaks_per, valleys_per = multi_window_extrema_pair(
            windows, proms, proms, dists
        )
        v_turn: dict = {}
        a_turn: dict = {}
        # Per-slot ``sort(concat(pk, vl))`` merges, globalised with the
        # same integer base lift as the Eq. (1) tail below: every
        # slot's (integer) indices are lifted by a per-slot base with
        # disjoint ranges, one global sort replaces thousands of tiny
        # ones, and ``lifted - base`` recovers the exact local indices
        # — integer arithmetic, so per-slot results are bit-identical.
        if slots:
            pk_counts = np.asarray([p.size for p in peaks_per], dtype=np.intp)
            vl_counts = np.asarray([v.size for v in valleys_per], dtype=np.intp)
            slot_sizes = pk_counts + vl_counts
            sstep = 1 + max(v_segs[i].size for i, _axis in slots)
            sbase = np.arange(len(slots), dtype=np.intp) * sstep
            lifted = np.concatenate(
                [
                    np.concatenate(peaks_per) + np.repeat(sbase, pk_counts),
                    np.concatenate(valleys_per) + np.repeat(sbase, vl_counts),
                ]
            )
            lifted.sort()
            np.subtract(
                lifted, np.repeat(sbase, slot_sizes), out=lifted
            )
            slot_starts = np.zeros(len(slots) + 1, dtype=np.intp)
            np.cumsum(slot_sizes, out=slot_starts[1:])
            for s, (i, axis) in enumerate(slots):
                turning = lifted[slot_starts[s] : slot_starts[s + 1]]
                (v_turn if axis == "v" else a_turn)[i] = turning
        a_order = [i for (i, axis) in slots if axis == "a"]
        cross_per = batched_crossing_indices(a_windows, relaxed_hyst)
        cross_by_i = dict(zip(a_order, cross_per))
        # Eq. (1) for every eligible cycle in one pass. Each cycle's
        # (integer) point indices are lifted by a per-cycle base B*c
        # with B > any cycle length, making the concatenation globally
        # sorted with disjoint per-cycle ranges: one sort, one
        # searchsorted and a handful of elementwise ops replace the
        # per-cycle loop. All lifted values are exact integers in
        # float64, and every difference pairs same-cycle values, so the
        # bases cancel exactly — results are bit-identical to the
        # scalar tail. The final weighted sums replay NumPy's pairwise
        # order per cycle (:func:`_row_sums`).
        pre = [
            i
            for i in need
            if i in a_turn and v_turn.get(i) is not None and v_turn[i].size
        ]
        if pre:
            bstep = float(1 + max(v_segs[i].size for i in pre))
            base = np.arange(len(pre)) * bstep
            at_arrs = [a_turn[i] for i in pre]
            cr_arrs = [cross_by_i[i] for i in pre]
            at_counts = np.asarray([a.size for a in at_arrs], dtype=np.intp)
            cr_counts = np.asarray([c.size for c in cr_arrs], dtype=np.intp)
            at_g = np.concatenate(at_arrs) + np.repeat(base, at_counts)
            cr_g = np.concatenate(cr_arrs) + np.repeat(base, cr_counts)
            if cr_g.size and at_g.size:
                # Sorted-membership filter (== per-cycle ~np.isin):
                # lifted values collide only within their own cycle.
                posm = np.minimum(at_g.searchsorted(cr_g), at_g.size - 1)
                cr_g = cr_g[at_g[posm] != cr_g]
            a_all = np.sort(np.concatenate([at_g, cr_g]))
            a_starts = a_all.searchsorted(base)
            a_counts = a_all.searchsorted(base + bstep) - a_starts
            vt_arrs = [v_turn[i] for i in pre]
            vt_counts = np.asarray([v.size for v in vt_arrs], dtype=np.intp)
            v_g = np.concatenate(vt_arrs) + np.repeat(base, vt_counts)
            cid = np.repeat(np.arange(len(pre)), vt_counts)
            n_per = np.asarray([float(v_segs[i].size) for i in pre])
            pos = a_all.searchsorted(v_g)
            lo_b = a_starts[cid]
            hi_b = (a_starts + a_counts)[cid] - 1
            left = a_all[np.minimum(np.maximum(pos - 1, lo_b), hi_b)]
            right = a_all[np.minimum(pos, hi_b)]
            mismatch = np.minimum(np.abs(v_g - left), np.abs(right - v_g))
            np.minimum(
                mismatch,
                (config.max_normalized_offset * n_per)[cid],
                out=mismatch,
            )
            # np.diff(vertical_idx, prepend=0.0) per cycle: a global
            # shifted difference, with each cycle's first element reset
            # to its (base-free) local value.
            v_starts = np.zeros(len(pre), dtype=np.intp)
            np.cumsum(vt_counts[:-1], out=v_starts[1:])
            dv = np.empty_like(v_g)
            dv[0] = v_g[0]
            np.subtract(v_g[1:], v_g[:-1], out=dv[1:])
            dv[v_starts] = v_g[v_starts] - base
            n_v = n_per[cid]
            weights = np.minimum(dv / n_v, config.max_point_weight)
            wm = weights * mismatch / n_v
            at = v_starts[:, None] + np.arange(int(vt_counts.max()))
            sums = _row_sums(wm[np.minimum(at, wm.size - 1)], vt_counts)
            summed = a_counts >= 2
            offsets[np.asarray(pre)[summed]] = sums[summed]

    for i in range(count):
        if results[i] is None:
            results[i] = (
                a_segs[i],
                bool(anterior_ok[i]),
                bool(motion_ok[i]),
                float(offsets[i]),
            )
    return results


def batched_cycle_solutions(
    items: Sequence[
        Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], GaitType, UserProfile]
    ],
    dt: float,
) -> List[Optional[Tuple[float, float]]]:
    """Per-cycle ``(stride_m, bounce_m)`` solves in one padded stack.

    The batched form of
    :meth:`repro.core.stride.PTrackStrideEstimator.cycle_stride` over
    every cycle credited in one serving round. Three fusions keep the
    per-cycle Python floor out of the hot path:

    * the walking anterior rows, walking vertical rows and stepping
      vertical rows of every length share **one** padded
      :func:`integrate_block` pass (the double integral's inner
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
        items: Per credited cycle: vertical segment, horizontal segment,
            anterior segment (``None`` when the direction fit failed at
            staging — those cycles yield ``None``, as the scalar
            re-derivation would fail identically), gait type, and the
            owning session's user profile.
        dt: Shared sample period in seconds.

    Returns:
        Per cycle, ``(stride_m, bounce_m)`` or ``None`` when the
        geometry admits no solve (non-finite segments included, which
        the scalar integrator rejects).
    """
    count = len(items)
    results: List[Optional[Tuple[float, float]]] = [None] * count
    walking: List[int] = []
    stepping: List[int] = []
    for i, (v_seg, _h_seg, a_seg, gait, _profile) in enumerate(items):
        if gait is GaitType.STEPPING:
            if v_seg.size >= 2:
                stepping.append(i)
        elif a_seg is not None and a_seg.size == v_seg.size >= 16:
            walking.append(i)
    nw = len(walking)
    segs = (
        [items[i][2] for i in walking]
        + [items[i][0] for i in walking]
        + [items[i][0] for i in stepping]
    )
    if not segs:
        return results
    lens = np.asarray([s.size for s in segs], dtype=np.intp)
    width = int(lens.max())
    valid = np.arange(width) < lens[:, None]
    stack = _pad_rows(segs, valid, np.empty((lens.size, width)))
    # The scalar integrator rejects non-finite segments outright.
    finite = np.isfinite(stack).all(axis=1)
    vel, disp = _integrate_rows(stack, lens, dt)
    # Extremes over each row's prefix: fill the padding with +inf for
    # the minima, then -inf for the maxima (first-extremum ties and
    # NaN propagation stay the scalar reductions').
    padding = ~valid
    disp[padding] = np.inf
    lows = np.argmin(disp[:nw], axis=1)
    step_min = disp[2 * nw :].min(axis=1)
    disp[padding] = -np.inf
    highs = np.argmax(disp[:nw], axis=1)
    step_max = disp[2 * nw :].max(axis=1)

    if stepping:
        bounces = step_max - step_min
        legs = np.asarray([items[i][4].leg_length_m for i in stepping])
        ks = np.asarray([items[i][4].calibration_k for i in stepping])
        strides = stride_rows_from_bounce(bounces, legs, ks)
        for row in np.flatnonzero(finite[2 * nw :]).tolist():
            results[stepping[row]] = (float(strides[row]), float(bounces[row]))

    sol_idx: List[int] = []
    if nw:
        disp_a = disp[:nw]
        disp_v = disp[nw : 2 * nw]
        backmost = np.minimum(lows, highs)
        foremost = np.maximum(lows, highs)
        span = foremost - backmost
        ok = finite[:nw] & finite[nw : 2 * nw] & (span >= lens[:nw] // 4)
        margin = np.maximum(1, span // 8)
        # First max of |vel_a| within [backmost+margin, foremost-margin]
        # per row — the masked form of the scalar slice argmax (the
        # -inf fill preserves first-max tie-breaking, and the window
        # is never empty: margin <= span // 2 by construction).
        cols = np.arange(width)
        speed = np.abs(vel[:nw], out=vel[:nw])
        speed[
            (cols < (backmost + margin)[:, None])
            | (cols > (foremost - margin)[:, None])
        ] = -np.inf
        vidx = np.argmax(speed, axis=1)
        take = np.arange(nw)
        ok &= speed[take, vidx] > 0.0
        d_total = np.abs(disp_a[take, foremost] - disp_a[take, backmost])
        # Scalar gate is `if d_total < 0.01: continue`; keep the
        # negated form so non-finite rows follow the scalar branch.
        ok &= ~(d_total < 0.01)
        sel = np.flatnonzero(ok)
        if sel.size:
            h1_all = disp_v[sel, backmost[sel]] - disp_v[sel, vidx[sel]]
            h2_all = disp_v[sel, foremost[sel]] - disp_v[sel, vidx[sel]]
            d_all = d_total[sel]
            sol_idx = [walking[s] for s in sel.tolist()]

    if sol_idx:
        arms = np.asarray([items[i][4].arm_length_m for i in sol_idx])
        bounce, solved = solve_bounce_block(h1_all, h2_all, d_all, arms)
        for r in np.flatnonzero(~solved):
            # The block solver leaves a row unresolved when the scalar
            # path would raise (or, theoretically, on iteration
            # exhaustion): re-run it scalar so error semantics — and
            # any brentq non-convergence behaviour — stay exact.
            try:
                bounce[r] = solve_bounce(
                    float(h1_all[r]), float(h2_all[r]),
                    float(d_all[r]), float(arms[r]),
                )
                solved[r] = True
            except GeometryError:
                pass
        legs = np.asarray([items[i][4].leg_length_m for i in sol_idx])
        ks = np.asarray([items[i][4].calibration_k for i in sol_idx])
        strides = stride_rows_from_bounce(bounce, legs, ks)
        for r, i in enumerate(sol_idx):
            if solved[r]:
                results[i] = (float(strides[r]), float(bounce[r]))
    return results
