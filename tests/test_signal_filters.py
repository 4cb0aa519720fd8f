"""Unit tests for repro.signal.filters."""

import numpy as np
import pytest

from scipy import signal as sp_signal

from repro.exceptions import ConfigurationError, SignalError
from repro.signal.filters import (
    butter_lowpass,
    detrend_mean,
    gravity_component,
    lowpass_rows,
    moving_average,
)


def _tone(freq_hz: float, rate: float = 100.0, duration: float = 4.0) -> np.ndarray:
    t = np.arange(int(duration * rate)) / rate
    return np.sin(2 * np.pi * freq_hz * t)


class TestButterLowpass:
    def test_passes_low_frequency(self):
        x = _tone(1.0)
        y = butter_lowpass(x, 5.0, 100.0)
        assert np.std(y) == pytest.approx(np.std(x), rel=0.05)

    def test_attenuates_high_frequency(self):
        x = _tone(20.0)
        y = butter_lowpass(x, 5.0, 100.0)
        # Judge the interior: forward-backward filtering rings at the
        # very edges, which would mask the stop-band attenuation.
        assert np.std(y[100:-100]) < 0.02 * np.std(x)

    def test_mixture_keeps_only_low_band(self):
        x = _tone(1.0) + _tone(30.0)
        y = butter_lowpass(x, 5.0, 100.0)
        # After filtering, the 1 Hz component should dominate.
        spectrum = np.abs(np.fft.rfft(y))
        freqs = np.fft.rfftfreq(y.size, 0.01)
        assert freqs[np.argmax(spectrum)] == pytest.approx(1.0, abs=0.3)

    def test_zero_phase(self):
        # Zero-phase filtering must not delay the peak of a low tone.
        x = _tone(1.0)
        y = butter_lowpass(x, 5.0, 100.0)
        assert abs(int(np.argmax(x[:100])) - int(np.argmax(y[:100]))) <= 1

    def test_filters_2d_along_axis0(self):
        x = np.column_stack([_tone(1.0), _tone(30.0), _tone(2.0)])
        y = butter_lowpass(x, 5.0, 100.0)
        assert y.shape == x.shape
        assert np.std(y[100:-100, 1]) < 0.02 * np.std(x[:, 1])

    def test_short_signal_falls_back_to_smoothing(self):
        x = np.ones(10)
        y = butter_lowpass(x, 5.0, 100.0)
        assert y.shape == x.shape
        assert np.all(np.isfinite(y))

    def test_rejects_cutoff_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            butter_lowpass(_tone(1.0), 60.0, 100.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            butter_lowpass(_tone(1.0), 5.0, 0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ConfigurationError):
            butter_lowpass(_tone(1.0), 5.0, 100.0, order=0)

    def test_rejects_empty(self):
        with pytest.raises(SignalError):
            butter_lowpass(np.empty(0), 5.0, 100.0)


class TestLowpassRows:
    @pytest.mark.parametrize("n", [28, 57, 325])
    def test_kept_columns_equal_sosfiltfilt_per_row(self, n):
        # The backward pass stops at ``keep_from``; every column from
        # there on is scipy's zero-phase filter of the row, bit for bit.
        rows = np.random.default_rng(n).normal(size=(5, n))
        sos = sp_signal.butter(4, 5.0 / 50.0, btype="low", output="sos")
        want = sp_signal.sosfiltfilt(sos, rows, axis=-1)
        for keep_from in (0, 1, n // 3, n - 1):
            got = lowpass_rows(rows, 5.0, 100.0, 4, keep_from)
            assert np.array_equal(got, want[:, keep_from:])

    def test_short_rows_fall_back_per_row(self):
        rows = np.random.default_rng(3).normal(size=(3, 20))
        got = lowpass_rows(rows, 5.0, 100.0, 4, 4)
        for row, out in zip(rows, got):
            assert np.array_equal(out, butter_lowpass(row, 5.0, 100.0)[4:])

    def test_rejects_empty(self):
        with pytest.raises(SignalError):
            lowpass_rows(np.empty((3, 0)), 5.0, 100.0)


class TestMovingAverage:
    def test_constant_signal_unchanged(self):
        x = np.full(50, 3.0)
        assert np.allclose(moving_average(x, 5), 3.0)

    def test_width_one_is_copy(self):
        x = np.arange(10.0)
        y = moving_average(x, 1)
        assert np.array_equal(x, y)
        assert y is not x

    def test_reduces_noise_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=2000)
        y = moving_average(x, 9)
        assert np.std(y) < 0.5 * np.std(x)

    def test_width_larger_than_signal_clamped(self):
        x = np.arange(5.0)
        y = moving_average(x, 100)
        assert y.shape == x.shape
        assert np.all(np.isfinite(y))

    def test_edges_unbiased_for_constant(self):
        x = np.full(20, 7.0)
        y = moving_average(x, 7)
        assert y[0] == pytest.approx(7.0)
        assert y[-1] == pytest.approx(7.0)

    def test_rejects_2d(self):
        with pytest.raises(SignalError):
            moving_average(np.zeros((3, 3)), 2)

    def test_rejects_nan(self):
        with pytest.raises(SignalError):
            moving_average(np.array([1.0, np.nan]), 2)


class TestDetrendMean:
    def test_removes_mean(self):
        x = np.array([1.0, 2.0, 3.0])
        assert detrend_mean(x).mean() == pytest.approx(0.0)

    def test_preserves_shape_of_oscillation(self):
        x = _tone(2.0) + 5.0
        y = detrend_mean(x)
        assert np.allclose(y, _tone(2.0), atol=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(SignalError):
            detrend_mean(np.empty(0))


class TestGravityComponent:
    def test_static_signal_recovered(self):
        x = np.full(400, 9.81)
        g = gravity_component(x, 100.0)
        assert np.allclose(g, 9.81, atol=1e-6)

    def test_motion_removed_from_estimate(self):
        x = 9.81 + _tone(2.0)
        g = gravity_component(x, 100.0)
        assert np.allclose(g[50:-50], 9.81, atol=0.15)

    def test_short_signal_returns_mean(self):
        x = np.array([1.0, 2.0, 3.0])
        g = gravity_component(x, 100.0)
        assert np.allclose(g, 2.0)
