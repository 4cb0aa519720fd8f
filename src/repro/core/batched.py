"""Fleet-batched cycle measurements: many cycles per kernel dispatch.

Per staged cycle the scalar streaming core runs an eigen-decomposition,
two critical-point extractions and (when credited) three mean-removal
integrations — each a handful of tiny NumPy calls whose dispatch
overhead dwarfs the arithmetic at gait-cycle lengths (~100 samples).
This module evaluates the same measurements for *all* cycles staged in
one serving round at once: cycles are grouped by length, stacked into
``(cycles, samples)`` (or ``(cycles, samples, 2)``) blocks, and every
reduction/integration runs across the stack.

Every batched expression is the row-wise form of the scalar one —
``rows.mean(axis=1)`` for ``arr.mean()``, stacked ``eigh`` for the 2x2
eigensolve, row-wise ``cumsum`` for the trapezoid integral — forms
NumPy evaluates with the same summation order and the same C kernels,
so the results are **bit-identical** to the per-cycle reference (the
serving equivalence suite asserts credit-for-credit identity). The few
genuinely serial pieces — the Brent bounce solve, the greedy spacing —
stay scalar per cycle, on row views of the shared stacks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bounce import solve_bounce, solve_bounce_block
from repro.core.config import PTrackConfig
from repro.core.stride import stride_rows_from_bounce
from repro.exceptions import GeometryError, SignalError
from repro.runtime.buffers import FleetBatchBuffer
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


def _stack_rows(
    arrs: Sequence[np.ndarray],
    buffers: Optional[FleetBatchBuffer],
    key: str,
) -> np.ndarray:
    """``np.stack`` into reusable scratch when a buffer pool is given."""
    if len(arrs) == 1:
        # Singleton groups dominate small rounds (ragged cycle lengths
        # rarely collide); a 1-row "stack" is a read-only view, no copy.
        return arrs[0][None]
    if buffers is None:
        return np.stack(arrs)
    out = buffers.request(key, (len(arrs),) + arrs[0].shape)
    return np.stack(arrs, out=out)


def _rows_cumtrapz(rows: np.ndarray, dt: float) -> np.ndarray:
    """Row-wise :func:`repro.signal.integration.cumulative_trapezoid`."""
    out = np.empty_like(rows)
    out[:, 0] = 0.0
    np.cumsum((rows[:, 1:] + rows[:, :-1]) * (dt / 2.0), axis=1, out=out[:, 1:])
    return out


def _rows_integrate_mean_removal(rows: np.ndarray, dt: float) -> np.ndarray:
    """Row-wise :func:`repro.signal.integration.integrate_mean_removal`."""
    n = rows.shape[1]
    trapezoid_mean = (rows.sum(axis=1) - 0.5 * (rows[:, 0] + rows[:, -1])) / (n - 1)
    return _rows_cumtrapz(rows - trapezoid_mean[:, None], dt)


def integrate_block(rows: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise mean-removal single **and** double integration.

    For a ``(cycles, samples)`` stack of accelerations this returns
    ``(velocity, displacement)`` — the row-wise forms of
    :func:`repro.signal.integration.integrate_mean_removal` and
    :func:`repro.signal.integration.double_integrate_mean_removal`.
    The double integral's inner velocity *is* the returned velocity,
    so callers needing both (the walking-cycle moment extraction) pay
    one fused call instead of recomputing it. Every reduction is the
    same NumPy pairwise sum over the same operand order as the scalar
    reference, so both outputs are bit-identical to it.
    """
    velocity = _rows_integrate_mean_removal(rows, dt)
    displacement = _rows_cumtrapz(velocity - velocity.mean(axis=1)[:, None], dt)
    return velocity, displacement


def batched_stage_measurements(
    v_segs: Sequence[np.ndarray],
    h_segs: Sequence[np.ndarray],
    config: PTrackConfig,
    buffers: Optional[FleetBatchBuffer] = None,
) -> List[StageMeasurement]:
    """Measure every staged cycle of a serving round in stacked kernels.

    For each cycle ``i`` this computes exactly what the scalar
    ``StreamingPTrack._stage`` computes from ``(v_segs[i], h_segs[i])``:
    the anterior projection (or zeros when the direction fit fails),
    the motion gate, and — for moving cycles — the Eq. (1)
    critical-point offset.

    Args:
        v_segs: Per-cycle vertical acceleration segments.
        h_segs: Per-cycle horizontal segments, each ``(n, 2)``.
        config: PTrack configuration.
        buffers: Optional scratch pool for the per-length stacks and
            the packed extrema signals.

    Returns:
        One :data:`StageMeasurement` per cycle, input order.
    """
    count = len(v_segs)
    results: List[StageMeasurement] = [None] * count  # type: ignore[list-item]
    if count == 0:
        return results

    by_length: dict = {}
    for i, v in enumerate(v_segs):
        by_length.setdefault(v.size, []).append(i)

    a_segs: List[np.ndarray] = [None] * count  # type: ignore[list-item]
    anterior_ok = np.zeros(count, dtype=bool)
    motion_ok = np.zeros(count, dtype=bool)
    v_std = np.zeros(count)
    a_std = np.zeros(count)
    centred_v: List[np.ndarray] = [None] * count  # type: ignore[list-item]
    centred_a: dict = {}

    # Pass 1, per length group: stack, centre, scatter, vertical gate.
    # Everything length-independent (the 2x2 eigensolves, direction
    # fixing) is deferred to one global pass — cycle lengths vary a
    # lot in practice, so length groups are small and per-group kernel
    # dispatch would dominate.
    groups: List[Tuple[int, List[int], slice, np.ndarray]] = []
    scatters = np.empty((count, 2, 2))
    ok_flat = np.zeros(count, dtype=bool)
    pos = 0
    for n, idxs in by_length.items():
        g = len(idxs)
        sl = slice(pos, pos + g)
        pos += g
        stack_v = _stack_rows([v_segs[i] for i in idxs], buffers, f"meas_v:{n}")
        stack_h = _stack_rows([h_segs[i] for i in idxs], buffers, f"meas_h:{n}")
        vc = stack_v - stack_v.mean(axis=1)[:, None]
        stds = vc.std(axis=1)
        if n >= 3:
            centred = stack_h - stack_h.mean(axis=1)[:, None, :]
            sc = np.matmul(centred.transpose(0, 2, 1), centred)
            scatters[sl] = sc
            # allclose(scatter, 0) with b == 0 reduces to |x| <= atol.
            ok_flat[sl] = np.isfinite(sc).all(axis=(1, 2)) & ~(
                (np.abs(sc) <= 1e-8).all(axis=(1, 2))
            )
        groups.append((n, idxs, sl, stack_h))
        ii = np.asarray(idxs, dtype=np.intp)
        v_std[ii] = stds
        motion_ok[ii] = stds >= config.min_vertical_std
        for i, vc_row in zip(idxs, vc):
            centred_v[i] = vc_row

    # Pass 2, global: one eigensolve + direction fix for every cycle.
    dirs_flat = np.zeros((count, 2))
    live = np.flatnonzero(ok_flat)
    if live.size:
        eigvals, eigvecs = np.linalg.eigh(scatters[live])
        sel = np.argmax(eigvals, axis=1)
        dirs = eigvecs[np.arange(live.size), :, sel]
        flip = np.where(
            np.abs(dirs[:, 0]) > 1e-12, dirs[:, 0] < 0, dirs[:, 1] < 0
        )
        dirs[flip] = -dirs[flip]
        for row in range(live.size):
            # Normalise per row through the same BLAS-dot norm the
            # reference uses (anterior_direction once, then
            # project_horizontal again); sqrt(d.dot(d)) is exactly the
            # 1-D np.linalg.norm fast path, minus the wrapper.
            d = dirs[row] / np.sqrt(dirs[row].dot(dirs[row]))
            dirs[row] = d / np.sqrt(d.dot(d))
        dirs_flat[live] = dirs

    # Pass 3, per length group: projection + anterior centring/gate.
    for n, idxs, sl, stack_h in groups:
        proj = np.zeros((len(idxs), n))
        rows = np.flatnonzero(ok_flat[sl])
        if rows.size:
            proj[rows] = np.matmul(
                stack_h[rows], dirs_flat[sl][rows][:, :, None]
            )[:, :, 0]
        ii = np.asarray(idxs, dtype=np.intp)
        anterior_ok[ii] = ok_flat[sl]
        for i, proj_row in zip(idxs, proj):
            a_segs[i] = proj_row
        if n >= 4:
            pc = proj - proj.mean(axis=1)[:, None]
            astds = pc.std(axis=1)
            a_std[ii] = astds
            for i, s, pc_row in zip(idxs, astds, pc):
                if s > 0.0:
                    centred_a[i] = pc_row

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
        for i in need:
            n = v_segs[i].size
            min_dist = max(1, n // 16)
            if v_std[i] > 0.0:
                windows.append(centred_v[i])
                proms.append(config.critical_point_prominence)
                dists.append(min_dist)
                slots.append((i, "v"))
            if a_std[i] > 0.0:
                windows.append(centred_a[i])
                proms.append(relaxed_prom)
                dists.append(min_dist)
                slots.append((i, "a"))
        scratch = (
            buffers.request(
                "meas_pack", sum(w.size for w in windows) + len(windows)
            )
            if buffers is not None and windows
            else None
        )
        peaks_per, valleys_per = multi_window_extrema_pair(
            windows, proms, proms, dists, scratch=scratch
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
        cross_per = batched_crossing_indices(
            [centred_a[i] for i in a_order], relaxed_hyst
        )
        cross_by_i = dict(zip(a_order, cross_per))
        # Eq. (1) for every eligible cycle in one pass. Each cycle's
        # (integer) point indices are lifted by a per-cycle base B*c
        # with B > any cycle length, making the concatenation globally
        # sorted with disjoint per-cycle ranges: one sort, one
        # searchsorted and a handful of elementwise ops replace the
        # per-cycle loop. All lifted values are exact integers in
        # float64, and every difference pairs same-cycle values, so the
        # bases cancel exactly — results are bit-identical to the
        # scalar tail. Only the final weighted sum stays per cycle
        # (pairwise summation must see exactly the scalar operand
        # order).
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
            ac_l = a_counts.tolist()
            vs_l = v_starts.tolist()
            vc_l = vt_counts.tolist()
            for c, i in enumerate(pre):
                if ac_l[c] < 2:
                    continue
                lo = vs_l[c]
                offsets[i] = float(wm[lo : lo + vc_l[c]].sum())

    for i in range(count):
        if results[i] is None:
            results[i] = (
                a_segs[i] if anterior_ok[i] else np.zeros_like(v_segs[i]),
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
    buffers: Optional[FleetBatchBuffer] = None,
) -> List[Optional[Tuple[float, float]]]:
    """Per-cycle ``(stride_m, bounce_m)`` solves in stacked kernels.

    The batched form of
    :meth:`repro.core.stride.PTrackStrideEstimator.cycle_stride` over
    every cycle credited in one serving round. Three fusions keep the
    per-cycle Python floor out of the hot path:

    * per length group, the walking anterior rows, walking vertical
      rows and stepping vertical rows share **one**
      :func:`integrate_block` call (the double integral's inner
      velocity is reused instead of recomputed, and row-wise kernels
      are independent across rows, so mixing populations in one stack
      changes nothing);
    * the walking key-moment location (arm extremes, anterior-speed
      peak, the skip gates) runs as masked row-wise reductions instead
      of a per-cycle Python loop;
    * all surviving bounce geometries across **all** length groups pool
      into a single :func:`~repro.core.bounce.solve_bounce_block`
      call, with a scalar :func:`~repro.core.bounce.solve_bounce`
      fallback for any row the block solver does not fully resolve —
      so credits are bit-identical to the per-cycle reference.

    Args:
        items: Per credited cycle: vertical segment, horizontal segment,
            anterior segment (``None`` when the direction fit failed at
            staging — those cycles yield ``None``, as the scalar
            re-derivation would fail identically), gait type, and the
            owning session's user profile.
        dt: Shared sample period in seconds.
        buffers: Optional scratch pool for the per-length stacks.

    Returns:
        Per cycle, ``(stride_m, bounce_m)`` or ``None`` when the
        geometry admits no solve.
    """
    count = len(items)
    results: List[Optional[Tuple[float, float]]] = [None] * count
    stepping_by_length: dict = {}
    walking_by_length: dict = {}
    for i, (v_seg, _h_seg, a_seg, gait, _profile) in enumerate(items):
        if gait is GaitType.STEPPING:
            if v_seg.size >= 2:
                stepping_by_length.setdefault(v_seg.size, []).append(i)
        elif a_seg is not None and v_seg.size >= 16:
            walking_by_length.setdefault(v_seg.size, []).append(i)

    # Pooled bounce-solve inputs across every length group.
    sol_idx: List[int] = []
    sol_h1: List[np.ndarray] = []
    sol_h2: List[np.ndarray] = []
    sol_d: List[np.ndarray] = []

    lengths = sorted(set(stepping_by_length) | set(walking_by_length))
    for n in lengths:
        w_idxs = walking_by_length.get(n, [])
        s_idxs = stepping_by_length.get(n, [])
        nw = len(w_idxs)
        rows = (
            [items[i][2] for i in w_idxs]
            + [items[i][0] for i in w_idxs]
            + [items[i][0] for i in s_idxs]
        )
        stack = _stack_rows(rows, buffers, f"solve_stack:{n}")
        vel, disp = integrate_block(stack, dt)

        if s_idxs:
            disp_s = disp[2 * nw :]
            bounces = disp_s.max(axis=1) - disp_s.min(axis=1)
            legs = np.asarray([items[i][4].leg_length_m for i in s_idxs])
            ks = np.asarray([items[i][4].calibration_k for i in s_idxs])
            strides = stride_rows_from_bounce(bounces, legs, ks)
            for row, i in enumerate(s_idxs):
                results[i] = (float(strides[row]), float(bounces[row]))

        if nw:
            disp_a = disp[:nw]
            disp_v = disp[nw : 2 * nw]
            vel_a = vel[:nw]
            lows = np.argmin(disp_a, axis=1)
            highs = np.argmax(disp_a, axis=1)
            backmost = np.minimum(lows, highs)
            foremost = np.maximum(lows, highs)
            span = foremost - backmost
            ok = span >= n // 4
            margin = np.maximum(1, span // 8)
            # First max of |vel_a| within [backmost+margin, foremost-margin]
            # per row — the masked form of the scalar slice argmax (the
            # -inf fill preserves first-max tie-breaking, and the window
            # is never empty: margin <= span // 2 by construction).
            cols = np.arange(n)
            speed = np.abs(vel_a)
            masked = np.where(
                (cols >= (backmost + margin)[:, None])
                & (cols <= (foremost - margin)[:, None]),
                speed,
                -np.inf,
            )
            vidx = np.argmax(masked, axis=1)
            take = np.arange(nw)
            ok &= masked[take, vidx] > 0.0
            d_total = np.abs(disp_a[take, foremost] - disp_a[take, backmost])
            # Scalar gate is `if d_total < 0.01: continue`; keep the
            # negated form so non-finite rows follow the scalar branch.
            ok &= ~(d_total < 0.01)
            sel = np.flatnonzero(ok)
            if sel.size:
                h1 = disp_v[sel, backmost[sel]] - disp_v[sel, vidx[sel]]
                h2 = disp_v[sel, foremost[sel]] - disp_v[sel, vidx[sel]]
                sol_idx.extend(w_idxs[s] for s in sel)
                sol_h1.append(h1)
                sol_h2.append(h2)
                sol_d.append(d_total[sel])

    if sol_idx:
        h1_all = np.concatenate(sol_h1)
        h2_all = np.concatenate(sol_h2)
        d_all = np.concatenate(sol_d)
        arms = np.asarray([items[i][4].arm_length_m for i in sol_idx])
        bounce, valid = solve_bounce_block(h1_all, h2_all, d_all, arms)
        for r in np.flatnonzero(~valid):
            # The block solver leaves a row unresolved when the scalar
            # path would raise (or, theoretically, on iteration
            # exhaustion): re-run it scalar so error semantics — and
            # any brentq non-convergence behaviour — stay exact.
            try:
                bounce[r] = solve_bounce(
                    float(h1_all[r]), float(h2_all[r]),
                    float(d_all[r]), float(arms[r]),
                )
                valid[r] = True
            except GeometryError:
                pass
        legs = np.asarray([items[i][4].leg_length_m for i in sol_idx])
        ks = np.asarray([items[i][4].calibration_k for i in sol_idx])
        strides = stride_rows_from_bounce(bounce, legs, ks)
        for r, i in enumerate(sol_idx):
            if valid[r]:
                results[i] = (float(strides[r]), float(bounce[r]))
    return results
