"""Tests for the fleet-batched float64 kernels.

Two layers:

* **solver differential** — :func:`repro.core.bounce.solve_bounce_block`
  against the scalar :func:`~repro.core.bounce.solve_bounce` on
  hypothesis-randomized physical geometries: converged rows must be
  float64 bit-identical to scipy's ``brentq``, rejected geometries must
  come back ``valid=False``, and a starved iteration budget must
  surface as ``valid=False`` (the callers' scalar-fallback contract)
  rather than a wrong root.
* **kernel parity** — the fused extrema scan, the padded row sums,
  the row-stacked integrations, the cycle-measurement stage, the
  stride solve and the bounce solve, each bit-identical to the scalar
  code it replaces: per-window ``scipy.signal.find_peaks`` +
  prominences, NumPy's ``sum``, the scalar mean-removal integrals, the
  per-cycle projection/gate/offset of ``StreamingPTrack._stage``,
  ``PTrackStrideEstimator.cycle_stride`` and ``solve_bounce``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from repro.core.bounce import (
    _BLOCK_SCALAR_CUTOFF,
    GeometryError,
    solve_bounce,
    solve_bounce_block,
)
from repro.core.batched import (
    _SumPlan,
    _row_sums,
    batched_cycle_solutions,
    batched_stage_measurements,
    integrate_block,
)
from repro.core.config import PTrackConfig
from repro.core.offset import cycle_offset
from repro.core.stride import (
    PTrackStrideEstimator,
    stride_from_bounce_model,
    stride_rows_from_bounce,
)
from repro.exceptions import SignalError
from repro.serving import synthesize_workload
from repro.signal.batched import _finite_extrema, pack_windows
from repro.signal.filters import butter_lowpass
from repro.signal.integration import (
    double_integrate_mean_removal,
    integrate_mean_removal,
)
from repro.signal.peaks import peak_prominences
from repro.signal.projection import anterior_direction, project_horizontal
from repro.signal.segmentation import segment_gait_cycles
from repro.types import GaitType, UserProfile


def _walky(n, seed, freq=1.8, noise=0.25):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 100.0
    return np.sin(2 * np.pi * freq * t) + noise * rng.standard_normal(n)


def _random_geometries(n, seed, degenerate=True):
    """Random bounce rows spanning (and exceeding) the physical range."""
    rng = np.random.default_rng(seed)
    h1 = rng.uniform(-0.15, 0.25, n)
    h2 = rng.uniform(-0.15, 0.25, n)
    d = rng.uniform(0.0, 0.9, n)
    m = rng.uniform(0.4, 0.95, n)
    if degenerate and n >= 10:
        k = n // 10
        bad = rng.choice(n, size=k, replace=False)
        d[bad] = rng.uniform(1.5, 3.0, k)
        zero = rng.choice(n, size=k, replace=False)
        m[zero] = 0.0
    return h1, h2, d, m


def _assert_block_matches_scalar(h1, h2, d, m, bounce, valid):
    for r in range(d.size):
        try:
            ref = solve_bounce(
                float(h1[r]), float(h2[r]), float(d[r]), float(m[r])
            )
        except GeometryError:
            assert not valid[r]
            continue
        assert valid[r]
        assert bounce[r] == ref  # bitwise


# ----------------------------------------------------------------------
# Solver differential
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_solve_bounce_block_bit_identical_vectorized_path(seed):
    # > _BLOCK_SCALAR_CUTOFFF rows, so the lockstep Brent runs, not the
    # small-batch scalar loop.
    n = 2 * _BLOCK_SCALAR_CUTOFF
    h1, h2, d, m = _random_geometries(n, seed)
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    _assert_block_matches_scalar(h1, h2, d, m, bounce, valid)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 16))
def test_solve_bounce_block_bit_identical_scalar_path(seed, n):
    # <= cutoff rows take the scalar loop; same contract either way.
    h1, h2, d, m = _random_geometries(n, seed, degenerate=False)
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    _assert_block_matches_scalar(h1, h2, d, m, bounce, valid)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(-0.15, 0.25),
    st.floats(-0.15, 0.25),
    st.floats(0.0, 0.9),
    st.floats(0.4, 0.95),
)
def test_solve_bounce_block_single_row_matches_scalar(h1, h2, d, m):
    bounce, valid = solve_bounce_block(
        np.asarray([h1]), np.asarray([h2]), np.asarray([d]), np.asarray([m])
    )
    _assert_block_matches_scalar(
        np.asarray([h1]), np.asarray([h2]), np.asarray([d]), np.asarray([m]),
        bounce, valid,
    )


def test_solve_bounce_block_broadcasts_scalar_arm():
    h1, h2, d, _ = _random_geometries(200, 3, degenerate=False)
    b1, v1 = solve_bounce_block(h1, h2, d, 0.7)
    b2, v2 = solve_bounce_block(h1, h2, d, np.full(200, 0.7))
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(b1[v1], b2[v2])


def test_solve_bounce_block_empty():
    empty = np.empty(0)
    bounce, valid = solve_bounce_block(empty, empty, empty, empty)
    assert bounce.size == 0 and valid.size == 0


def test_solve_bounce_block_starved_maxiter_flags_not_valid():
    # With one iteration the lockstep Brent cannot converge interior
    # roots; the contract is valid=False (caller re-runs scalar), never
    # a silently wrong root.
    n = 2 * _BLOCK_SCALAR_CUTOFF
    h1, h2, d, m = _random_geometries(n, 7, degenerate=False)
    bounce, valid = solve_bounce_block(h1, h2, d, m, maxiter=1)
    full_bounce, full_valid = solve_bounce_block(h1, h2, d, m)
    assert valid.sum() < full_valid.sum()  # starvation actually bites
    _assert_block_matches_scalar(
        h1[valid], h2[valid], d[valid], m[valid],
        bounce[valid], np.ones(int(valid.sum()), dtype=bool),
    )


def test_solve_bounce_block_geometry_rejects_match_scalar_raises():
    h1 = np.asarray([0.0, 0.05, 0.01])
    h2 = np.asarray([0.0, 0.05, 0.01])
    d = np.asarray([2.5, 0.3, -0.1])   # oversized, fine, negative
    m = np.asarray([0.7, 0.0, 0.7])    # fine, non-positive arm, fine
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    assert not valid[0] and not valid[1] and not valid[2]
    assert np.all(np.isnan(bounce[~valid]))


# ----------------------------------------------------------------------
# Stride rows
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_stride_rows_bit_identical_to_scalar_model(seed):
    rng = np.random.default_rng(seed)
    n = 64
    bounce = rng.uniform(-0.05, 1.2, n)  # includes out-of-clip values
    legs = rng.uniform(0.6, 1.1, n)
    ks = rng.uniform(1.5, 2.5, n)
    rows = stride_rows_from_bounce(bounce, legs, ks)
    for r in range(n):
        profile = UserProfile(
            arm_length_m=0.7,
            leg_length_m=float(legs[r]),
            calibration_k=float(ks[r]),
        )
        assert rows[r] == stride_from_bounce_model(float(bounce[r]), profile)


# ----------------------------------------------------------------------
# Kernel parity against the scalar references
# ----------------------------------------------------------------------


def _scalar_stage_measurement(v_seg, h_seg, cfg):
    """Per cycle, what ``StreamingPTrack._stage`` measures."""
    anterior_ok = True
    try:
        a_seg = project_horizontal(h_seg, anterior_direction(h_seg))
    except SignalError:
        a_seg = np.zeros_like(v_seg)
        anterior_ok = False
    motion_ok = float(np.std(v_seg - v_seg.mean())) >= cfg.min_vertical_std
    offset = cycle_offset(v_seg, a_seg, cfg) if motion_ok else 0.0
    return a_seg, anterior_ok, motion_ok, offset


@pytest.mark.parametrize("extrema", [_finite_extrema], ids=["numpy"])
def test_extrema_block_parity(extrema):
    windows = [_walky(n, seed) for n, seed in ((120, 0), (40, 1), (7, 2), (400, 3))]
    windows += [
        np.asarray([0.0, 2.0, 2.0, 2.0, 0.0, 1.0, 0.5, 3.0]),  # plateau, edge
        np.asarray([1.0, 2.0]),  # too short to hold a maximum
    ]
    concat, starts, _lens = pack_windows(windows)
    cand, proms = extrema(concat)
    assert np.all(np.isfinite(concat[cand]))  # separators dropped
    ref_cand, ref_proms = [], []
    for w, start in zip(windows, starts):
        peaks = sp_signal.find_peaks(w)[0]
        prominences = peak_prominences(w, peaks)
        if peaks.size:
            np.testing.assert_array_equal(
                prominences, sp_signal.peak_prominences(w, peaks)[0]
            )
        ref_cand.append(peaks + start)
        ref_proms.append(prominences)
    np.testing.assert_array_equal(cand, np.concatenate(ref_cand))
    np.testing.assert_array_equal(proms, np.concatenate(ref_proms))  # bitwise
    empty_cand, empty_proms = extrema(np.asarray([1.0, 2.0]))
    assert empty_cand.size == 0 and empty_proms.size == 0


def _bits(x):
    """Bit pattern of a float array or scalar (distinguishes -0.0, NaNs)."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _assert_bitwise(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(_bits(got), _bits(want))


def test_row_sums_match_numpy_sum_bitwise():
    # Every length from 1 to 600, through one sum plan: both sides of
    # the 8-lane threshold, of the 128-sample block and of 256 (two
    # leaves), the 249-255 band whose right half (129+) splits again,
    # and rows over 512 whose halves split twice more.
    n_max = 600
    lens = np.arange(1, n_max + 1)
    assert set(range(249, 256)) <= set(lens.tolist())
    assert (lens > 512).sum() == n_max - 512
    padding = np.arange(n_max)[None, :] >= lens[:, None]
    rng = np.random.default_rng(0)
    noisy = rng.standard_normal((n_max, n_max)) * rng.uniform(1e-3, 1e3, (n_max, 1))
    infs = noisy.copy()
    infs[::3, 5] = np.inf
    infs[1::3, 0] = -np.inf
    infs[2::3, -1] = np.inf  # past every row but the longest
    neg_zero = np.full((n_max, n_max), -0.0)
    for rows in (noisy, infs, neg_zero):
        rows[padding] = np.nan  # never read
        got = _row_sums(rows, lens)
        want = np.asarray([rows[r, :n].sum() for r, n in enumerate(lens)])
        _assert_bitwise(got, want)
    # A plan of one row (the Eq. (1) sums of a lone cycle) reduces in
    # the same order.
    for n in (1, 7, 8, 100, 128, 129, 249, 255, 256, 300, 513, 600):
        _assert_bitwise(
            _row_sums(noisy[n - 1 : n], lens[n - 1 : n]), [noisy[n - 1, :n].sum()]
        )


def test_sum_plan_serves_every_stack_of_its_lengths():
    # The motion gate plans once and sums three stacks of the same
    # lengths (the axes, the centred axes, their squares); a plan must
    # read each stack afresh, whatever its padding holds.
    lens = np.asarray([3, 71, 128, 129, 138, 200, 252, 300, 520, 8, 16, 71])
    width = int(lens.max())
    plan = _SumPlan(lens, width)
    rng = np.random.default_rng(4)
    padding = np.arange(width)[None, :] >= lens[:, None]
    first = rng.standard_normal((lens.size, width))
    centred = first - first.mean(axis=1, keepdims=True)
    squares = centred * centred
    for stack, fill in ((first, np.nan), (centred, np.inf), (squares, -1e300)):
        stack[padding] = fill
        want = np.asarray([stack[r, :n].sum() for r, n in enumerate(lens)])
        _assert_bitwise(plan(stack), want)
        _assert_bitwise(plan(stack), want)  # a plan is reusable


def test_integrate_block_parity():
    rows = np.stack([_walky(80, s) for s in range(6)])
    dt = 0.01
    vel, disp = integrate_block(rows, dt)
    for r in range(rows.shape[0]):
        np.testing.assert_array_equal(vel[r], integrate_mean_removal(rows[r], dt))
        np.testing.assert_array_equal(
            disp[r], double_integrate_mean_removal(rows[r], dt)
        )
    # Mixed lengths in one call: each row's prefix of the padded
    # outputs is its own scalar integral.
    mixed = [_walky(n, n) for n in (2, 7, 80, 129, 300, 80, 16)]
    vel, disp = integrate_block(mixed, dt)
    assert vel.shape == disp.shape == (len(mixed), 300)
    for r, row in enumerate(mixed):
        _assert_bitwise(vel[r, : row.size], integrate_mean_removal(row, dt))
        _assert_bitwise(disp[r, : row.size], double_integrate_mean_removal(row, dt))


def test_measurement_block_parity():
    cfg = PTrackConfig()
    specs = ((60, 0), (60, 1), (33, 2), (90, 3), (3, 4))
    v_segs = [_walky(n, seed) for n, seed in specs]
    h_segs = [
        np.column_stack([_walky(n, seed + 10), _walky(n, seed + 20, freq=0.9)])
        for n, seed in specs
    ]
    # A still cycle (motion gate shut) and a cycle with no horizontal
    # motion (the direction fit fails, the projection is zeros).
    v_segs.append(np.zeros(50))
    h_segs.append(np.column_stack([_walky(50, 30), _walky(50, 31)]))
    v_segs.append(_walky(50, 32))
    h_segs.append(np.zeros((50, 2)))
    got = batched_stage_measurements(v_segs, h_segs, cfg)
    assert len(got) == len(v_segs)
    for (v_seg, h_seg), (g_a, g_ant, g_mot, g_off) in zip(
        zip(v_segs, h_segs), got
    ):
        w_a, w_ant, w_mot, w_off = _scalar_stage_measurement(v_seg, h_seg, cfg)
        np.testing.assert_array_equal(g_a, w_a)
        assert (g_ant, g_mot) == (w_ant, w_mot)
        assert g_off == w_off  # bitwise


#: Cycle lengths of the realistic round: under 4 (too short for an
#: offset), under 16 (too short for a walking solve), both sides of 8,
#: 128 and 256, and past 256 (their own scatter product); the 400-sample
#: rows pad the stack past one BLAS block.
_ROUND_LENGTHS = (
    3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 40, 64, 71, 100, 128, 129, 137,
    200, 249, 255, 256, 257, 300, 400,
)


def _realistic_round(repeats=12, seed=5):
    """A few hundred ``(v_seg, h_seg)`` cycles with repeated lengths.

    Real gait cycles — segmented out of filtered simulated walks —
    resampled to every length of :data:`_ROUND_LENGTHS`, plus still
    cycles (the motion gate shuts), cycles with no horizontal motion
    (the direction fit fails) and NaN rows on either axis. Also returns
    the walks, whose profiles own the cycles.
    """
    cfg = PTrackConfig()
    walks = synthesize_workload(2, 30.0, seed=seed)
    real = []
    for walk in walks:
        filt = butter_lowpass(
            walk.samples, cfg.lowpass_cutoff_hz, 100.0, cfg.lowpass_order
        )
        real += [filt[s.start : s.end] for s in segment_gait_cycles(filt[:, 2], 100.0)]
    rng = np.random.default_rng(seed)
    cycles = []
    for _ in range(repeats):
        for n in _ROUND_LENGTHS:
            src = real[rng.integers(len(real))]
            t = np.linspace(0.0, src.shape[0] - 1.0, n)
            cyc = np.column_stack(
                [np.interp(t, np.arange(src.shape[0]), src[:, c]) for c in range(3)]
            )
            cycles.append((cyc[:, 2].copy(), cyc[:, :2].copy()))
    for n in (90, 137, 300):
        still = 0.01 * rng.standard_normal(n)
        cycles.append((still, np.column_stack([_walky(n, n), _walky(n, n + 1)])))
        cycles.append((_walky(n, n + 2), np.zeros((n, 2))))
        nan_v, nan_h = _walky(n, n + 3), np.column_stack([_walky(n, n), _walky(n, 1)])
        nan_v[n // 2] = np.nan
        cycles.append((nan_v, nan_h.copy()))
        nan_h[n // 3, 1] = np.nan
        cycles.append((_walky(n, n + 4), nan_h))
    order = rng.permutation(len(cycles))
    return [cycles[i] for i in order], walks


def test_measurement_realistic_round_matches_scalar_bitwise():
    cfg = PTrackConfig()
    cycles, _walks = _realistic_round()
    got = batched_stage_measurements([v for v, _ in cycles], [h for _, h in cycles], cfg)
    assert len(got) == len(cycles)
    outcomes = set()
    for (v_seg, h_seg), g in zip(cycles, got):
        try:
            want = _scalar_stage_measurement(v_seg, h_seg, cfg)
        except SignalError as exc:
            assert isinstance(g, SignalError) and str(g) == str(exc)
            outcomes.add("short")
            continue
        g_a, g_ant, g_mot, g_off = g
        w_a, w_ant, w_mot, w_off = want
        _assert_bitwise(g_a, w_a)
        assert (g_ant, g_mot) == (w_ant, w_mot)
        _assert_bitwise(g_off, w_off)
        outcomes.add((w_ant, w_mot, w_off > 0.0))
    # Every branch ran: direction fit failed / succeeded, gate shut /
    # open, a nonzero offset, and a short moving cycle.
    assert outcomes >= {
        "short", (False, True, False), (True, False, False), (True, True, True)
    }


def test_measurement_projections_own_their_memory():
    # Staged projections live on in session stores and snapshots after
    # the round: none may be a view that pins (or sees the reuse of) the
    # round's stack.
    cfg = PTrackConfig()
    cycles, _walks = _realistic_round(repeats=1)
    got = batched_stage_measurements(
        [v for v, _ in cycles], [h for _, h in cycles], cfg
    )
    projections = [m[0] for m in got if not isinstance(m, Exception)]
    assert projections and all(a.flags.owndata for a in projections)


def test_stride_solutions_realistic_round_match_scalar_bitwise():
    cycles, walks = _realistic_round()
    dt = 0.01
    items = []
    for k, (v_seg, h_seg) in enumerate(cycles):
        try:
            a_seg = project_horizontal(h_seg, anterior_direction(h_seg))
        except SignalError:
            a_seg = None  # staging's direction fit failed
        gait = GaitType.STEPPING if k % 3 == 0 else GaitType.WALKING
        items.append((v_seg, h_seg, a_seg, gait, walks[k % 2].profile))
    got = batched_cycle_solutions(items, dt)
    solved = {GaitType.STEPPING: 0, GaitType.WALKING: 0}
    for (v_seg, h_seg, a_seg, gait, profile), g in zip(items, got):
        want = PTrackStrideEstimator(profile).cycle_stride(
            v_seg, h_seg, dt, gait, a_seg
        )
        if want is None:
            assert g is None
            continue
        _assert_bitwise(g, want)
        solved[gait] += 1
    # Enough walking geometries for the vectorized bounce block.
    assert solved[GaitType.WALKING] > _BLOCK_SCALAR_CUTOFF
    assert solved[GaitType.STEPPING] > 50


def test_bounce_solve_block_parity():
    h1, h2, d, m = _random_geometries(300, 11)
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    _assert_block_matches_scalar(h1, h2, d, m, bounce, valid)
