"""Golden-waveform tests for the offset metric (Eq. 1).

Each case is an analytically constructed cycle whose classification the
physics dictates; together they pin the metric's behaviour independent
of the simulator.
"""

import numpy as np
import pytest

from repro.core.config import PTrackConfig
from repro.core.offset import cycle_offset
from scalar_references import offset_from_points_scalar

CFG = PTrackConfig()
N = 120
T = np.linspace(0.0, 1.0, N, endpoint=False)


def _scale(x, target_std=2.5):
    return x / max(x.std(), 1e-12) * target_std


class TestRigidFamilies:
    """Single-source motions: both axes share one driver -> below delta."""

    def test_proportional_axes(self):
        driver = np.sin(2 * np.pi * T) + 0.4 * np.sin(4 * np.pi * T)
        v = _scale(driver)
        a = _scale(0.6 * driver)
        assert cycle_offset(v, a, CFG) < CFG.offset_threshold

    def test_antiproportional_axes(self):
        driver = np.sin(2 * np.pi * T)
        assert cycle_offset(_scale(driver), _scale(-driver), CFG) < CFG.offset_threshold

    def test_pendulum_harmonics(self):
        # Vertical at 2f from the centripetal term, anterior at f from
        # the tangential one: the classic swinging arm.
        v = _scale(np.cos(4 * np.pi * T))
        a = _scale(np.sin(2 * np.pi * T))
        assert cycle_offset(v, a, CFG) < CFG.offset_threshold

    def test_small_lag_still_rigid(self):
        # Elbow cushioning shifts the vertical by ~1 sample.
        driver = np.sin(2 * np.pi * T) + 0.3 * np.sin(4 * np.pi * T)
        v = _scale(np.roll(driver, 1))
        a = _scale(driver)
        assert cycle_offset(v, a, CFG) < CFG.offset_threshold

    def test_stepping_quarter_phase(self):
        # Pure body: both axes at the step frequency, quarter apart.
        v = _scale(np.cos(4 * np.pi * T))
        a = _scale(np.cos(4 * np.pi * T + np.pi / 2))
        assert cycle_offset(v, a, CFG) < CFG.offset_threshold


class TestSuperposedFamilies:
    """Two independent sources -> above delta."""

    def _walking_like(self, body_phase):
        # Vertical: bounce (2f) + weak arm residue; anterior: arm (f)
        # plus the body's ripple (2f) at an independent phase.
        v = _scale(
            np.cos(4 * np.pi * T + body_phase) + 0.3 * np.sin(2 * np.pi * T)
        )
        a = _scale(
            np.sin(2 * np.pi * T) + 0.5 * np.cos(4 * np.pi * T + body_phase + 1.3)
        )
        return v, a

    @pytest.mark.parametrize("body_phase", [0.7, 1.2, 2.0])
    def test_mixed_phases_exceed_delta(self, body_phase):
        v, a = self._walking_like(body_phase)
        assert cycle_offset(v, a, CFG) > CFG.offset_threshold

    def test_half_grid_lag_exceeds_delta(self):
        # Shifting one axis by half the critical-point grid spacing
        # maximises the mismatch; no rigid driver explains it. (A
        # *full*-grid shift would re-align with the next points — time
        # shifts are only detectable modulo the grid, which is why the
        # simulator's realism comes from per-component phase shifts.)
        driver = np.cos(4 * np.pi * T) + 0.5 * np.sin(2 * np.pi * T)
        v = _scale(np.roll(driver, N // 16))
        a = _scale(driver)
        assert cycle_offset(v, a, CFG) > CFG.offset_threshold


class TestMetricEdges:
    def test_silent_anterior_scores_zero(self):
        v = _scale(np.cos(4 * np.pi * T))
        a = np.zeros(N)
        assert cycle_offset(v, a, CFG) == 0.0

    def test_silent_vertical_scores_zero(self):
        v = np.zeros(N)
        a = _scale(np.sin(2 * np.pi * T))
        assert cycle_offset(v, a, CFG) == 0.0

    def test_noise_only_cycles_stay_low(self):
        rng = np.random.default_rng(0)
        lows = []
        for _ in range(10):
            v = _scale(rng.normal(size=N), 0.3)
            a = _scale(rng.normal(size=N), 0.3)
            lows.append(cycle_offset(v, a, CFG))
        # Sub-prominence noise produces few critical points; the
        # metric must not hallucinate walking from it.
        assert np.median(lows) < CFG.offset_threshold

    def test_scale_invariance(self):
        v = _scale(np.cos(4 * np.pi * T) + 0.3 * np.sin(2 * np.pi * T))
        a = _scale(np.sin(2 * np.pi * T) + 0.5 * np.cos(4 * np.pi * T + 1.3))
        base = cycle_offset(v, a, CFG)
        doubled = cycle_offset(2 * v, 2 * a, CFG)
        assert doubled == pytest.approx(base, rel=0.2)


class TestVectorizedMatchingEquivalence:
    """The searchsorted matcher must reproduce the per-point scan."""

    def _point_sets(self, rng):
        from repro.core.offset import critical_points_for_offset

        v = _scale(rng.normal(size=N)).cumsum()
        a = _scale(rng.normal(size=N)).cumsum()
        v -= v.mean()
        a -= a.mean()
        v_pts = [p for p in critical_points_for_offset(v, CFG) if p.kind.is_turning]
        a_pts = critical_points_for_offset(a, CFG)
        return v_pts, a_pts

    def test_matches_scalar_on_random_cycles(self):
        from repro.core.offset import offset_from_points

        rng = np.random.default_rng(21)
        compared = 0
        for _ in range(50):
            v_pts, a_pts = self._point_sets(rng)
            fast = offset_from_points(v_pts, a_pts, N, CFG)
            slow = offset_from_points_scalar(v_pts, a_pts, N, CFG)
            assert abs(fast - slow) <= 1e-12
            compared += 1
        assert compared == 50

    def test_matches_scalar_on_golden_waveforms(self):
        from repro.core.offset import critical_points_for_offset, offset_from_points

        driver = np.cos(4 * np.pi * T) + 0.5 * np.sin(2 * np.pi * T)
        for v, a in [
            (_scale(driver), _scale(0.6 * driver)),
            (_scale(np.roll(driver, N // 16)), _scale(driver)),
            (_scale(np.cos(4 * np.pi * T)), _scale(np.sin(2 * np.pi * T))),
        ]:
            v_pts = [
                p for p in critical_points_for_offset(v, CFG) if p.kind.is_turning
            ]
            a_pts = critical_points_for_offset(a, CFG)
            fast = offset_from_points(v_pts, a_pts, N, CFG)
            slow = offset_from_points_scalar(v_pts, a_pts, N, CFG)
            assert abs(fast - slow) <= 1e-12

    def test_unsorted_anterior_points_handled(self):
        # The scalar scan never needed sorted matching points; the
        # vectorised matcher sorts internally and must agree.
        from repro.core.offset import offset_from_points
        from repro.signal.critical_points import CriticalPoint, CriticalPointKind

        v_pts = [CriticalPoint(i, CriticalPointKind.PEAK) for i in (20, 60, 100)]
        a_pts = [
            CriticalPoint(i, CriticalPointKind.CROSSING) for i in (90, 15, 55, 110)
        ]
        fast = offset_from_points(v_pts, a_pts, N, CFG)
        slow = offset_from_points_scalar(v_pts, a_pts, N, CFG)
        assert abs(fast - slow) <= 1e-12
