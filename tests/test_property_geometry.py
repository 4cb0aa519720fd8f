"""Property-based tests for the biomechanical geometry (Eqs. 2-5)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bounce import solve_bounce
from repro.core.stride import stride_from_bounce_model
from repro.simulation.gait import bounce_from_stride, stride_from_bounce
from repro.types import UserProfile

legs = st.floats(min_value=0.6, max_value=1.2)
arms = st.floats(min_value=0.45, max_value=0.8)
bounces = st.floats(min_value=0.005, max_value=0.12)


@settings(max_examples=100, deadline=None)
@given(legs, st.floats(min_value=0.1, max_value=0.95))
def test_bounce_stride_round_trip(leg, stride_frac):
    stride = stride_frac * 2 * leg
    b = bounce_from_stride(stride, leg)
    assert 0 <= b <= leg
    assert stride_from_bounce(b, leg, k=2.0) == pytest.approx(stride, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(legs, bounces)
def test_stride_model_monotone_in_bounce(leg, b):
    profile = UserProfile(0.6, leg)
    assume(b + 0.01 < leg)
    assert stride_from_bounce_model(b + 0.01, profile) > stride_from_bounce_model(
        b, profile
    )


@settings(max_examples=100, deadline=None)
@given(
    arms,
    bounces,
    st.floats(min_value=0.005, max_value=0.15),
    st.floats(min_value=0.005, max_value=0.15),
)
def test_solve_bounce_round_trip(m, b, r1_extra, r2_extra):
    r1, r2 = b + r1_extra, b + r2_extra
    assume(r1 < 0.9 * m and r2 < 0.9 * m)
    h1, h2 = r1 - b, r2 - b
    d = np.sqrt(m**2 - (m - r1) ** 2) + np.sqrt(m**2 - (m - r2) ** 2)
    assert solve_bounce(h1, h2, d, m) == pytest.approx(b, abs=1e-5)


@settings(max_examples=50, deadline=None)
@given(arms, bounces, st.floats(min_value=0.02, max_value=0.1))
def test_solve_bounce_monotone_in_d(m, b, r_extra):
    r1 = r2 = b + r_extra
    assume(r1 < 0.85 * m)
    h1 = h2 = r1 - b
    d = 2 * np.sqrt(m**2 - (m - r1) ** 2)
    lower = solve_bounce(h1, h2, 0.9 * d, m)
    exact = solve_bounce(h1, h2, d, m)
    assert lower <= exact + 1e-9
