"""Unit tests for repro.signal.projection."""

import numpy as np
import pytest

from repro.exceptions import SignalError
from repro.signal.projection import anterior_direction, project_horizontal


class TestAnteriorDirection:
    def _cloud(self, angle_rad, n=200, noise=0.05, seed=0):
        rng = np.random.default_rng(seed)
        main = rng.normal(0, 1, n)
        cross = rng.normal(0, noise, n)
        c, s = np.cos(angle_rad), np.sin(angle_rad)
        return np.column_stack([main * c - cross * s, main * s + cross * c])

    @pytest.mark.parametrize("angle", [0.0, 0.4, 1.1, np.pi / 2, 2.2])
    def test_recovers_orientation(self, angle):
        direction = anterior_direction(self._cloud(angle))
        recovered = np.arctan2(direction[1], direction[0]) % np.pi
        distance = abs(recovered - angle % np.pi)
        assert min(distance, np.pi - distance) < 0.05  # circular mod pi

    def test_unit_norm(self):
        d = anterior_direction(self._cloud(0.7))
        assert np.linalg.norm(d) == pytest.approx(1.0)

    def test_canonical_sign(self):
        d = anterior_direction(self._cloud(0.3))
        assert d[0] > 0

    def test_mean_offset_irrelevant(self):
        cloud = self._cloud(0.5) + np.array([100.0, -40.0])
        d = anterior_direction(cloud)
        assert np.arctan2(d[1], d[0]) % np.pi == pytest.approx(0.5, abs=0.05)

    def test_rejects_degenerate_cloud(self):
        with pytest.raises(SignalError):
            anterior_direction(np.zeros((10, 2)))

    def test_rejects_too_few_samples(self):
        with pytest.raises(SignalError):
            anterior_direction(np.zeros((2, 2)))


class TestProjectHorizontal:
    def test_projection_values(self):
        horiz = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = project_horizontal(horiz, np.array([1.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0, 1.0])

    def test_direction_normalised_internally(self):
        horiz = np.array([[2.0, 0.0]])
        out = project_horizontal(horiz, np.array([10.0, 0.0]))
        assert out[0] == pytest.approx(2.0)

    def test_round_trip_with_anterior_direction(self):
        rng = np.random.default_rng(2)
        main = rng.normal(0, 1, 300)
        angle = 0.9
        cloud = np.column_stack(
            [main * np.cos(angle), main * np.sin(angle)]
        )
        d = anterior_direction(cloud)
        projected = project_horizontal(cloud, d)
        assert np.std(projected) == pytest.approx(np.std(main), rel=0.02)

    def test_rejects_zero_direction(self):
        with pytest.raises(SignalError):
            project_horizontal(np.zeros((3, 2)), np.zeros(2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(SignalError):
            project_horizontal(np.zeros((3, 3)), np.array([1.0, 0.0]))
        with pytest.raises(SignalError):
            project_horizontal(np.zeros((3, 2)), np.array([1.0, 0.0, 0.0]))
