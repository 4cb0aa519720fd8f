"""Scalar references for the vectorised signal and offset kernels.

Each function is the per-sample (or per-point) specification a kernel
in ``src/`` replaces, kept here, verbatim in behaviour, as the
reference the kernel is checked against:

* :func:`local_maxima_reference` and :func:`peak_prominences_reference`
  for the scipy-backed :mod:`repro.signal.peaks` primitives;
* :func:`zero_crossings_scalar` for
  :func:`repro.signal.critical_points.zero_crossings`;
* :func:`offset_from_points_scalar` for
  :func:`repro.core.offset.offset_from_points`.

``benchmarks/bench_runtime.py`` also times the last two as the scalar
baselines of its kernel rows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import PTrackConfig
from repro.exceptions import SignalError
from repro.signal.critical_points import CriticalPoint, CriticalPointKind


def local_maxima_reference(x: np.ndarray) -> np.ndarray:
    """Strict local maxima, flat tops resolved to their centre."""
    n = x.size
    if n < 3:
        return np.empty(0, dtype=int)
    maxima = []
    i = 1
    while i < n - 1:
        if x[i] > x[i - 1]:
            # Walk over a potential plateau.
            j = i
            while j < n - 1 and x[j + 1] == x[j]:
                j += 1
            if j < n - 1 and x[j + 1] < x[j]:
                maxima.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return np.asarray(maxima, dtype=int)


def peak_prominences_reference(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence of each peak, by bounded scans."""
    arr = np.asarray(x, dtype=float)
    out = np.empty(len(peaks), dtype=float)
    for k, p in enumerate(peaks):
        height = arr[p]
        # Left search: lowest point until terrain exceeds the peak.
        left_min = height
        i = p - 1
        while i >= 0 and arr[i] <= height:
            left_min = min(left_min, arr[i])
            i -= 1
        # Right search symmetric.
        right_min = height
        i = p + 1
        while i < arr.size and arr[i] <= height:
            right_min = min(right_min, arr[i])
            i += 1
        out[k] = height - max(left_min, right_min)
    return out


def zero_crossings_scalar(
    x: np.ndarray, hysteresis: float = 0.0
) -> List[CriticalPoint]:
    """Zero crossings by a per-sample hysteresis state machine."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise SignalError(f"signal must be 1-D, got shape {arr.shape}")
    if hysteresis < 0:
        raise SignalError(f"hysteresis must be >= 0, got {hysteresis}")
    points: List[CriticalPoint] = []
    if arr.size < 2:
        return points
    armed_sign = 0  # sign the signal most recently exceeded hysteresis at
    for i in range(arr.size):
        v = arr[i]
        if v > hysteresis:
            sign = 1
        elif v < -hysteresis:
            sign = -1
        else:
            continue
        if armed_sign == 0:
            armed_sign = sign
        elif sign != armed_sign:
            points.append(CriticalPoint(i, CriticalPointKind.CROSSING))
            armed_sign = sign
    return points


def offset_from_points_scalar(
    vertical_points: Sequence[CriticalPoint],
    anterior_points: Sequence[CriticalPoint],
    n: int,
    config: Optional[PTrackConfig] = None,
) -> float:
    """The Eq. (1) offset by a per-point nearest-neighbour scan."""
    cfg = config if config is not None else PTrackConfig()
    if n < 2:
        raise SignalError(f"cycle length must be >= 2, got {n}")
    if not vertical_points or len(anterior_points) < 2:
        return 0.0
    cap = cfg.max_normalized_offset * n
    anterior_idx = np.asarray([p.index for p in anterior_points], dtype=float)

    total = 0.0
    prev_index = 0
    for point in vertical_points:
        weight = min((point.index - prev_index) / n, cfg.max_point_weight)
        prev_index = point.index
        mismatch = float(np.min(np.abs(anterior_idx - point.index)))
        mismatch = min(mismatch, cap)
        total += weight * mismatch / n
    return total
