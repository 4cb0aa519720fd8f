"""Tests for the fleet-batched float64 kernels.

Two layers:

* **solver differential** — :func:`repro.core.bounce.solve_bounce_block`
  against the scalar :func:`~repro.core.bounce.solve_bounce` on
  hypothesis-randomized physical geometries: converged rows must be
  float64 bit-identical to scipy's ``brentq``, rejected geometries must
  come back ``valid=False``, and a starved iteration budget must
  surface as ``valid=False`` (the callers' scalar-fallback contract)
  rather than a wrong root.
* **kernel parity** — the fused extrema scan, the row-stacked
  integrations, the cycle-measurement stage and the bounce solve,
  each bit-identical to the scalar code it replaces: per-window
  ``scipy.signal.find_peaks`` + prominences, the scalar mean-removal
  integrals, the per-cycle projection/gate/offset of
  ``StreamingPTrack._stage``, and ``solve_bounce``.
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
from repro.core.batched import batched_stage_measurements, integrate_block
from repro.core.config import PTrackConfig
from repro.core.offset import cycle_offset
from repro.core.stride import stride_from_bounce_model, stride_rows_from_bounce
from repro.exceptions import SignalError
from repro.signal.batched import _finite_extrema, pack_windows
from repro.signal.integration import (
    double_integrate_mean_removal,
    integrate_mean_removal,
)
from repro.signal.peaks import peak_prominences
from repro.signal.projection import anterior_direction, project_horizontal
from repro.types import UserProfile


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


def test_integrate_block_parity():
    rows = np.stack([_walky(80, s) for s in range(6)])
    dt = 0.01
    vel, disp = integrate_block(rows, dt)
    for r in range(rows.shape[0]):
        np.testing.assert_array_equal(vel[r], integrate_mean_removal(rows[r], dt))
        np.testing.assert_array_equal(
            disp[r], double_integrate_mean_removal(rows[r], dt)
        )


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


def test_bounce_solve_block_parity():
    h1, h2, d, m = _random_geometries(300, 11)
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    _assert_block_matches_scalar(h1, h2, d, m, bounce, valid)
