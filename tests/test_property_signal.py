"""Property-based tests (hypothesis) for the DSP substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core.config import PTrackConfig
from repro.core.offset import (
    critical_points_for_offset,
    offset_from_points,
)
from repro.signal.correlation import (
    _best_lag_scalar,
    autocorrelation,
    batch_half_cycle_correlation,
    best_lag,
    half_cycle_correlation,
    normalized_cross_correlation,
)
from repro.signal.critical_points import (
    critical_points,
    zero_crossings,
)
from repro.signal.filters import detrend_mean, moving_average
from repro.signal.integration import (
    cumulative_trapezoid,
    double_integrate_mean_removal,
    integrate_mean_removal,
)
from repro.signal.peaks import detect_peaks, detect_valleys
from scalar_references import offset_from_points_scalar, zero_crossings_scalar

finite_signals = npst.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=8, max_value=200),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_detrend_mean_is_idempotent(x):
    once = detrend_mean(x)
    twice = detrend_mean(once)
    assert np.allclose(once, twice, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(finite_signals, st.integers(min_value=2, max_value=20))
def test_moving_average_bounded_by_input_range(x, width):
    y = moving_average(x, width)
    assert y.min() >= x.min() - 1e-9
    assert y.max() <= x.max() + 1e-9


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_signal_descends_between_consecutive_peaks(x):
    peaks = detect_peaks(x, min_prominence=0.1)
    # Between two accepted peaks the signal must dip strictly below
    # both (a local maximum descends on each side by construction).
    for a, b in zip(peaks, peaks[1:]):
        trough = x[a + 1 : b].min()
        assert trough < x[a] and trough < x[b]


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_peak_indices_strictly_inside(x):
    for idx in detect_peaks(x):
        assert 0 < idx < x.size - 1


@settings(max_examples=50, deadline=None)
@given(finite_signals, st.floats(min_value=0.01, max_value=0.2))
def test_integration_linear_in_input(x, dt):
    a = cumulative_trapezoid(x, dt)
    b = cumulative_trapezoid(2.0 * x, dt)
    assert np.allclose(b, 2.0 * a, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(finite_signals, st.floats(min_value=0.005, max_value=0.1))
def test_mean_removal_velocity_ends_at_zero(x, dt):
    # Trapezoid-consistent mean removal zeroes the final sample exactly
    # (up to floating-point rounding).
    vel = integrate_mean_removal(x, dt)
    scale = max(1.0, np.abs(x).max() * x.size * dt)
    assert abs(vel[-1]) < 1e-9 * scale


@settings(max_examples=50, deadline=None)
@given(finite_signals, st.floats(min_value=0.005, max_value=0.1))
def test_double_integration_invariant_to_bias(x, dt):
    biased = double_integrate_mean_removal(x + 42.0, dt)
    plain = double_integrate_mean_removal(x, dt)
    assert np.allclose(biased, plain, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(finite_signals, st.integers(min_value=1, max_value=50))
def test_autocorrelation_bounded(x, lag):
    if lag < x.size and x.std() > 0:
        assert -1.0 - 1e-9 <= autocorrelation(x, lag) <= 1.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_cross_correlation_symmetry(x):
    if x.std() > 0:
        # corr(x, x, lag) == corr(x, x, -lag) for autocorrelation use.
        lag = min(5, x.size - 2)
        if lag > 0:
            forward = normalized_cross_correlation(x, x, lag)
            backward = normalized_cross_correlation(x, x, -lag)
            assert forward == backward or abs(forward - backward) < 1e-9


@settings(max_examples=50, deadline=None)
@given(finite_signals)
def test_critical_points_sorted_unique(x):
    pts = critical_points(x - x.mean(), min_prominence=0.05)
    indices = [p.index for p in pts]
    assert indices == sorted(indices)
    assert len(indices) == len(set(indices))


@settings(max_examples=50, deadline=None)
@given(finite_signals, st.floats(min_value=0.0, max_value=1.0))
def test_hysteresis_monotone(x, hyst):
    centred = x - x.mean()
    loose = zero_crossings(centred, hysteresis=0.0)
    tight = zero_crossings(centred, hysteresis=hyst)
    assert len(tight) <= len(loose)


# ----------------------------------------------------------------------
# Vectorised kernels vs their retained scalar references
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(finite_signals, st.floats(min_value=0.0, max_value=2.0))
def test_zero_crossings_matches_scalar_reference(x, hyst):
    centred = x - x.mean()
    assert zero_crossings(centred, hyst) == zero_crossings_scalar(centred, hyst)


@settings(max_examples=100, deadline=None)
@given(finite_signals, finite_signals)
def test_offset_matching_matches_scalar_reference(v, a):
    n = min(v.size, a.size)
    v, a = v[:n] - v[:n].mean(), a[:n] - a[:n].mean()
    cfg = PTrackConfig()
    v_pts = [p for p in critical_points_for_offset(v, cfg) if p.kind.is_turning]
    a_pts = critical_points_for_offset(a, cfg)
    fast = offset_from_points(v_pts, a_pts, n, cfg)
    slow = offset_from_points_scalar(v_pts, a_pts, n, cfg)
    assert abs(fast - slow) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(finite_signals, finite_signals, st.integers(min_value=1, max_value=40))
def test_best_lag_matches_scalar_reference(x, y, max_lag):
    n = min(x.size, y.size)
    x, y = x[:n], y[:n]
    assert best_lag(x, y, max_lag) == _best_lag_scalar(x, y, max_lag)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_signals, min_size=1, max_size=6))
def test_batch_half_cycle_matches_per_cycle(segments):
    batch = batch_half_cycle_correlation(segments)
    assert len(batch) == len(segments)
    for seg, got in zip(segments, batch):
        arr = np.asarray(seg, dtype=float)
        if arr.size >= 4 and arr.std() > 0:
            assert abs(got - half_cycle_correlation(arr)) <= 1e-9
        else:
            assert got == 0.0
