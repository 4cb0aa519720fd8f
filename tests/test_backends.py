"""Tests for the NumPy (float64) peak kernels every batched stage calls.

Each kernel must return exactly what scipy returns for the same input.
"""

import numpy as np
from scipy import signal as sp_signal

from repro.signal.peaks import _local_maxima, peak_prominences


def _gait_like(n=400, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 100.0
    return np.sin(2 * np.pi * 1.8 * t) + 0.2 * rng.standard_normal(n)


def test_numpy_local_maxima_matches_scipy():
    x = _gait_like()
    np.testing.assert_array_equal(_local_maxima(x), sp_signal.find_peaks(x)[0])
    assert _local_maxima(np.asarray([1.0, 2.0])).size == 0


def test_numpy_prominences_match_scipy():
    x = _gait_like(seed=1)
    peaks = _local_maxima(x)
    expected = sp_signal.peak_prominences(x, peaks)[0]
    np.testing.assert_array_equal(peak_prominences(x, peaks), expected)
