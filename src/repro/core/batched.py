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
  a :class:`_SumPlan`, built once per call from the row lengths,
  replays that exact operand order on every row's prefix and serves
  every sum over stacks of those lengths (the motion gate's three, the
  integrator's two);
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
    ``motion_ok[i]`` and the Eq. (1) offset ``offsets[i]`` — what
    ``StreamingPTrack._measure`` computes per cycle. ``errors`` maps a
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


def _leaf_tables(
    offset: np.ndarray, size: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lane mask and tail gather of pairwise-sum leaves.

    A leaf of ``size`` elements starting at flat index ``offset`` holds
    ``size // 8`` full lane blocks and ``size % 8`` tail elements.
    Masked tail slots point at index 0 (any in-bounds index will do:
    the mask replaces them).
    """
    blocks = size // 8
    width = 8 * int(blocks.max()) if size.size else 0
    lane_mask = np.arange(width) < 8 * blocks[:, None]
    tail_keep = np.arange(7) < (size % 8)[:, None]
    tail_idx = np.where(tail_keep, (offset + 8 * blocks)[:, None] + np.arange(7), 0)
    return lane_mask, tail_idx, tail_keep


def _leaf_sums(
    lanes: np.ndarray,
    lane_mask: np.ndarray,
    flat: np.ndarray,
    tail_idx: np.ndarray,
    tail_keep: np.ndarray,
) -> np.ndarray:
    """NumPy's leaf ``pairwise_sum`` of many leaves at once.

    NumPy sums a leaf in eight lanes, block by block (lane ``j`` starts
    at element ``j``), combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the 0-7 trailing
    elements on sequentially; a leaf under 8 elements is all tail.
    ``lanes`` holds each leaf's first ``lane_mask.shape[1]`` elements,
    row per leaf. The masked blocks land block-major, so the block axis
    is the outer one: ``np.add.reduce`` over it is a sequential sum per
    lane (never a pairwise one), and its inner loop runs over every
    leaf's eight lanes at once instead of eight elements at a time.
    The lanes then combine in NumPy's order, and the tail adds on
    through a sequential ``cumsum``.
    """
    count, width = lane_mask.shape
    shape = (count, width // 8, 8)
    blocks = np.full((width // 8, count, 8), -0.0)
    np.copyto(
        blocks.transpose(1, 0, 2),
        lanes.reshape(shape),
        where=lane_mask.reshape(shape),
    )
    acc = np.add.reduce(blocks, axis=0)
    pairs = acc[:, 0::2] + acc[:, 1::2]
    quads = pairs[:, 0::2] + pairs[:, 1::2]
    seq = np.empty((count, 8))
    np.add(quads[:, 0], quads[:, 1], out=seq[:, 0])
    seq[:, 1:] = np.where(tail_keep, flat[tail_idx], -0.0)
    return np.cumsum(seq, axis=1)[:, -1]


class _SumPlan:
    """``stack[r, :lens[r]].sum()`` for every row, bit for bit, planned once.

    Built from the row lengths and the row stride of a C-contiguous
    ``(rows, stride)`` stack, one plan serves every sum over stacks of
    that shape and those lengths (the motion gate's three, the
    integrator's two).

    NumPy sums a float64 segment of at most 128 elements as one *leaf*
    (:func:`_leaf_sums`); a longer segment splits at
    ``n//2 - (n//2) % 8`` and sums as ``pw(left) + pw(right)``; and
    ``sum`` reduces from ``+0.0``, so the result is
    ``0.0 + pairwise_sum``. The plan cuts every row into its leaves
    once. Each row's first leaf starts at column 0, so all of them read
    one slice of the stack; only the later leaves of split rows (right
    halves, and their halves) gather. The splits then combine level by
    level, deepest first. Masked lanes and tail slots hold ``-0.0``,
    the exact additive identity, so nothing past a segment is read.
    """

    def __init__(self, lens: np.ndarray, stride: int) -> None:
        size = np.asarray(lens, dtype=np.intp)
        count = size.size
        self._count = count
        self._levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Node ids: row r's whole sum is node r; every split adds two.
        first_size = size.copy()
        self._first_node = np.arange(count)
        later = []
        # Pending splits (row, start, size, node), level by level.
        row = np.flatnonzero(size > _PAIRWISE_BLOCK)
        start = np.zeros(row.size, dtype=np.intp)
        seg = size[row]
        node = row
        n_nodes = count
        while row.size:
            half = seg // 2
            left = half - half % 8
            k = row.size
            children = n_nodes + np.arange(2 * k)
            n_nodes += 2 * k
            self._levels.append((node, children[:k], children[k:]))
            row = np.concatenate([row, row])
            start = np.concatenate([start, start + left])
            seg = np.concatenate([left, seg - left])
            node = children
            leaf = seg <= _PAIRWISE_BLOCK
            lead = leaf & (start == 0)
            first_size[row[lead]] = seg[lead]
            self._first_node[row[lead]] = node[lead]
            rest = leaf & (start > 0)
            later.append((row[rest] * stride + start[rest], seg[rest], node[rest]))
            row, start, seg, node = row[~leaf], start[~leaf], seg[~leaf], node[~leaf]
        self._n_nodes = n_nodes
        self._first = _leaf_tables(np.arange(count) * stride, first_size)
        if later:
            offset, seg, self._later_node = (np.concatenate(p) for p in zip(*later))
            self._later = _leaf_tables(offset, seg)
            self._later_lanes = np.minimum(
                offset[:, None] + np.arange(self._later[0].shape[1]),
                count * stride - 1,
            )

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        flat = stack.reshape(-1)
        lane_mask, tail_idx, tail_keep = self._first
        first = _leaf_sums(
            stack[:, : lane_mask.shape[1]], lane_mask, flat, tail_idx, tail_keep
        )
        if not self._levels:
            return 0.0 + first
        vals = np.empty(self._n_nodes)
        vals[self._first_node] = first
        lane_mask, tail_idx, tail_keep = self._later
        vals[self._later_node] = _leaf_sums(
            flat[self._later_lanes], lane_mask, flat, tail_idx, tail_keep
        )
        for parent, left, right in reversed(self._levels):
            vals[parent] = vals[left] + vals[right]
        return 0.0 + vals[: self._count]


def _row_sums(rows: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``rows[r, :lens[r]].sum()`` for every row, bit for bit."""
    return _SumPlan(lens, rows.shape[1])(rows)


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
    plan = _SumPlan(lens, stack.shape[1])
    n = lens.astype(float)
    last = stack[np.arange(lens.size), lens - 1]
    trapezoid_mean = (plan(stack) - 0.5 * (stack[:, 0] + last)) / (n - 1.0)
    stack -= trapezoid_mean[:, None]
    velocity = _rows_cumtrapz(stack, dt, np.empty_like(stack))
    np.subtract(velocity, (plan(velocity) / n)[:, None], out=stack)
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
    offsets[rows[starts]] = _row_sums(terms[cols], counts)
    return offsets


def batched_stage_measurements(
    v_segs: Sequence[np.ndarray],
    h_segs: Sequence[np.ndarray],
    config: PTrackConfig,
) -> StageMeasurements:
    """Measure every staged cycle of a serving round in one padded stack.

    For each cycle ``i`` this computes exactly what the scalar
    ``StreamingPTrack._measure`` computes from ``(v_segs[i], h_segs[i])``:
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
    # from one plan.
    lens2 = np.concatenate([lens, lens])
    n2 = np.concatenate([n, n])
    plan = _SumPlan(lens2, width)
    dev = va - (plan(va) / n2)[:, None]
    sq = va
    np.subtract(dev, (plan(dev) / n2)[:, None], out=sq)
    np.multiply(sq, sq, out=sq)
    stds = np.sqrt(plan(sq) / n2)
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
    stride_out = np.full(count, np.nan)
    bounce_out = np.full(count, np.nan)
    solved_out = np.zeros(count, dtype=bool)
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
        return CycleSolutions(
            stride_out.tolist(), bounce_out.tolist(), solved_out.tolist()
        )
    lens = np.asarray([s.size for s in segs], dtype=np.intp)
    width = int(lens.max())
    stack = _stack_rows(segs, lens.tolist(), np.empty((lens.size, width)))
    # The scalar integrator rejects non-finite segments outright.
    finite = np.isfinite(stack).all(axis=1)
    vel, disp = _integrate_rows(stack, lens, dt)
    # Extremes over each row's prefix: fill the padding with +inf for
    # the minima, then -inf for the maxima (first-extremum ties and
    # NaN propagation stay the scalar reductions').
    padding = np.arange(width) >= lens[:, None]
    np.copyto(disp, np.inf, where=padding)
    lows = np.argmin(disp[:nw], axis=1)
    step_min = disp[2 * nw :].min(axis=1)
    np.copyto(disp, -np.inf, where=padding)
    highs = np.argmax(disp[:nw], axis=1)
    step_max = disp[2 * nw :].max(axis=1)

    if stepping:
        rows = np.asarray(stepping, dtype=np.intp)
        bounces = step_max - step_min
        legs = np.asarray([profiles[i].leg_length_m for i in stepping])
        ks = np.asarray([profiles[i].calibration_k for i in stepping])
        strides = stride_rows_from_bounce(bounces, legs, ks)
        ok = finite[2 * nw :]
        stride_out[rows[ok]] = strides[ok]
        bounce_out[rows[ok]] = bounces[ok]
        solved_out[rows[ok]] = True

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
        arms = np.asarray([profiles[i].arm_length_m for i in sol_idx])
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
        legs = np.asarray([profiles[i].leg_length_m for i in sol_idx])
        ks = np.asarray([profiles[i].calibration_k for i in sol_idx])
        strides = stride_rows_from_bounce(bounce, legs, ks)
        rows = np.asarray(sol_idx, dtype=np.intp)[solved]
        stride_out[rows] = strides[solved]
        bounce_out[rows] = bounce[solved]
        solved_out[rows] = True
    return CycleSolutions(
        stride_out.tolist(), bounce_out.tolist(), solved_out.tolist()
    )
