"""Unit tests for repro.signal.segmentation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SignalError
from repro.signal.segmentation import (
    Segment,
    segment_gait_cycles,
    sliding_windows,
)


def _gait_like(step_rate=1.9, duration=20.0, rate=100.0, amp=3.0):
    t = np.arange(int(duration * rate)) / rate
    return amp * np.sin(2 * np.pi * step_rate * t)


class TestSegment:
    def test_length(self):
        assert Segment(3, 10).length == 7

    def test_slice(self):
        seg = Segment(2, 5)
        assert seg.slice(np.arange(10)).tolist() == [2, 3, 4]

    def test_slice_2d(self):
        seg = Segment(0, 2)
        x = np.arange(12).reshape(4, 3)
        assert seg.slice(x).shape == (2, 3)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Segment(5, 5)
        with pytest.raises(ValueError):
            Segment(-1, 3)


class TestSegmentGaitCycles:
    def test_counts_two_steps_per_cycle(self):
        v = _gait_like(duration=20.0)
        cycles = segment_gait_cycles(v, 100.0)
        total_steps = sum(len(c.peak_indices) for c in cycles)
        # 1.9 steps/s for 20 s = 38 steps; pairing may drop the last one.
        assert 34 <= total_steps <= 38
        for c in cycles:
            assert len(c.peak_indices) == 2

    def test_cycles_ordered_and_disjoint_peaks(self):
        v = _gait_like()
        cycles = segment_gait_cycles(v, 100.0)
        peaks = [p for c in cycles for p in c.peak_indices]
        assert peaks == sorted(peaks)
        assert len(peaks) == len(set(peaks))

    def test_low_prominence_signal_ignored(self):
        v = _gait_like(amp=0.1)  # below the 0.6 m/s^2 floor
        assert segment_gait_cycles(v, 100.0) == []

    def test_too_slow_oscillation_ignored(self):
        v = _gait_like(step_rate=0.4)
        assert segment_gait_cycles(v, 100.0) == []

    def test_too_fast_oscillation_rate_gated(self):
        # An 8 Hz shake aliases through the peak spacing gate, but the
        # step rate implied by the accepted peaks must stay inside the
        # human band (the gate's purpose).
        v = _gait_like(step_rate=8.0)
        cycles = segment_gait_cycles(v, 100.0)
        steps = sum(len(c.peak_indices) for c in cycles)
        assert steps <= 3.2 * 20.0  # max_step_rate * duration

    def test_flat_signal(self):
        assert segment_gait_cycles(np.zeros(1000), 100.0) == []

    def test_boundaries_near_valleys(self):
        v = _gait_like(duration=10.0)
        cycles = segment_gait_cycles(v, 100.0)
        for c in cycles[1:-1]:
            # Boundary samples should sit near the valley level (-amp).
            assert v[c.start] < -1.5

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigurationError):
            segment_gait_cycles(np.zeros(100), 100.0, min_step_rate_hz=3.0, max_step_rate_hz=2.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            segment_gait_cycles(np.zeros(100), 0.0)

    def test_rejects_nan(self):
        v = np.zeros(100)
        v[3] = np.nan
        with pytest.raises(SignalError):
            segment_gait_cycles(v, 100.0)

    def test_empty_signal(self):
        assert segment_gait_cycles(np.empty(0), 100.0) == []


class TestSlidingWindows:
    def test_exact_tiling(self):
        assert list(sliding_windows(10, 5, 5)) == [(0, 5), (5, 10)]

    def test_overlap(self):
        assert list(sliding_windows(6, 4, 2)) == [(0, 4), (2, 6)]

    def test_window_larger_than_signal(self):
        assert list(sliding_windows(3, 10, 1)) == []

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            list(sliding_windows(10, 0, 1))
        with pytest.raises(ConfigurationError):
            list(sliding_windows(10, 2, 0))
