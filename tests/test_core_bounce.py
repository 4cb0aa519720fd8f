"""Unit tests for repro.core.bounce (Eqs. (3)-(5))."""

import numpy as np
import pytest

from repro.core.bounce import (
    direct_bounce,
    extract_cycle_moments,
    solve_bounce,
)
from repro.exceptions import GeometryError, SignalError
from repro.simulation.gait import bounce_from_stride


class TestSolveBounce:
    def _forward(self, b, r1, r2, m):
        """Build exact (h1, h2, d) from a known geometry (r in (0, m))."""
        h1, h2 = r1 - b, r2 - b
        d = np.sqrt(m**2 - (m - r1) ** 2) + np.sqrt(m**2 - (m - r2) ** 2)
        return h1, h2, d

    @pytest.mark.parametrize("b", [0.02, 0.05, 0.08])
    def test_round_trip(self, b):
        m = 0.6
        h1, h2, d = self._forward(b, 0.03, 0.10, m)
        assert solve_bounce(h1, h2, d, m) == pytest.approx(b, abs=1e-6)

    def test_symmetric_in_h1_h2(self):
        m = 0.6
        h1, h2, d = self._forward(0.06, 0.02, 0.09, m)
        assert solve_bounce(h1, h2, d, m) == pytest.approx(
            solve_bounce(h2, h1, d, m)
        )

    def test_monotone_decreasing_in_arm_length(self):
        h1, h2, d = self._forward(0.06, 0.02, 0.09, 0.6)
        solutions = [solve_bounce(h1, h2, d, m) for m in (0.5, 0.6, 0.7)]
        assert solutions[0] > solutions[1] > solutions[2]

    def test_small_d_clips_to_floor(self):
        # d smaller than even zero bounce explains -> floor (~0).
        assert solve_bounce(0.05, 0.05, 0.05, 0.6) < 0.01

    def test_excess_d_clips_to_cap(self):
        b = solve_bounce(-0.02, -0.02, 1.1, 0.6)
        assert b <= 0.30

    def test_rejects_impossible_d(self):
        with pytest.raises(GeometryError):
            solve_bounce(0.0, 0.0, 2.0, 0.6)
        with pytest.raises(GeometryError):
            solve_bounce(0.0, 0.0, -0.1, 0.6)

    def test_rejects_bad_arm(self):
        with pytest.raises(GeometryError):
            solve_bounce(0.0, 0.0, 0.1, 0.0)

    def test_rejects_empty_bracket(self):
        with pytest.raises(GeometryError):
            solve_bounce(0.65, 0.65, 0.5, 0.6)  # h >= m leaves no room


class TestDirectBounce:
    def test_recovers_oscillation_amplitude(self):
        amp, freq = 0.035, 1.9
        t = np.arange(int(100 / freq)) / 100.0
        omega = 2 * np.pi * freq
        accel = -amp * omega**2 * np.sin(omega * t)
        assert direct_bounce(accel, 0.01) == pytest.approx(2 * amp, abs=0.005)

    def test_rejects_too_short(self):
        with pytest.raises(SignalError):
            direct_bounce(np.zeros(1), 0.01)


class TestExtractCycleMoments:
    def _cycle_axes(self, clean_walk_trace, config, index=5):
        from repro.core.step_counter import PTrackStepCounter
        from repro.signal.filters import butter_lowpass
        from repro.signal.projection import anterior_direction, project_horizontal

        trace, _ = clean_walk_trace
        counter = PTrackStepCounter(config)
        _, classifications = counter.process(trace)
        c = classifications[index]
        filtered = butter_lowpass(
            trace.linear_acceleration, config.lowpass_cutoff_hz, trace.sample_rate_hz
        )
        v = filtered[c.start_index : c.end_index, 2]
        h = filtered[c.start_index : c.end_index, :2]
        a = project_horizontal(h, anterior_direction(h))
        return v, a, trace.dt

    def test_moment_ordering(self, clean_walk_trace, config):
        v, a, dt = self._cycle_axes(clean_walk_trace, config)
        m = extract_cycle_moments(v, a, dt)
        assert m.backmost_index < m.vertical_index < m.foremost_index

    def test_d_splits_add_up(self, clean_walk_trace, config):
        v, a, dt = self._cycle_axes(clean_walk_trace, config)
        m = extract_cycle_moments(v, a, dt)
        assert m.d1_m + m.d2_m == pytest.approx(m.d_m, rel=0.01)

    def test_d_matches_arm_geometry(self, clean_walk_trace, config, user):
        v, a, dt = self._cycle_axes(clean_walk_trace, config)
        m = extract_cycle_moments(v, a, dt)
        t1 = abs(user.arm_swing_forward_bias_rad - user.arm_swing_amplitude_rad)
        t2 = user.arm_swing_forward_bias_rad + user.arm_swing_amplitude_rad
        expected = user.arm_length_m * (np.sin(t1) + np.sin(t2))
        assert m.d_m == pytest.approx(expected, rel=0.1)

    def test_end_to_end_bounce_close_to_truth(self, clean_walk_trace, config, user):
        v, a, dt = self._cycle_axes(clean_walk_trace, config)
        m = extract_cycle_moments(v, a, dt)
        b = solve_bounce(m.h1_m, m.h2_m, m.d_m, user.arm_length_m)
        truth = bounce_from_stride(user.stride_m, user.leg_length_m)
        assert b == pytest.approx(truth, abs=0.015)

    def test_rejects_short_cycle(self):
        with pytest.raises(SignalError):
            extract_cycle_moments(np.zeros(8), np.zeros(8), 0.01)

    def test_rejects_no_arm_sweep(self):
        # A flat anterior axis has no arm sweep: its displacement
        # extremes collapse together and the geometry is rejected.
        t = np.linspace(0, 1, 100, endpoint=False)
        v = np.cos(4 * np.pi * t)
        flat = np.zeros_like(v)
        flat[50] = 1e-9  # break exact degeneracy without creating a sweep
        with pytest.raises(GeometryError):
            extract_cycle_moments(v, flat, 0.01)
