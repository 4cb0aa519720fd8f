"""Peak and valley detection.

Peak detection over the (filtered) vertical acceleration is the
canonical step-counting primitive used by GFit-style pedometers,
Montage [6] and — as the *candidate generator* only — by PTrack itself.

A peak is a strict local maximum (plateaus resolve to their centre)
that clears a prominence floor and a minimum spacing to the previously
accepted peak. The hot paths dispatch to the C kernels in
:mod:`scipy.signal`, which implement the same definitions; the
differential tests assert bit-identical results against pure-Python
references (``tests/scalar_references.py``).
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np
from scipy import signal as sp_signal

from repro.exceptions import ConfigurationError, SignalError

__all__ = ["detect_peaks", "detect_valleys", "peak_prominences"]


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima, resolving flat tops to their centre.

    ``scipy.signal.find_peaks`` without conditions returns exactly the
    plateau-centre local maxima of the scalar reference, via a C scan
    instead of a Python loop.
    """
    if x.size < 3:
        return np.empty(0, dtype=int)
    return sp_signal.find_peaks(x)[0]


def peak_prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence of each peak.

    The prominence of a peak is its height above the higher of the two
    deepest valleys separating it from taller terrain on either side —
    the standard definition. The scipy C kernel performs the same
    bounded left/right scans as the scalar reference and produces
    bit-identical values.

    Args:
        x: 1-D signal.
        peaks: Indices of local maxima within ``x``.

    Returns:
        Array of prominences aligned with ``peaks``.
    """
    arr = np.asarray(x, dtype=float)
    idx = np.asarray(peaks, dtype=np.intp)
    if idx.size == 0:
        return np.empty(0, dtype=float)
    with warnings.catch_warnings():
        # scipy warns (and returns 0) for indices that are not local
        # maxima; the scalar reference returns 0 silently.
        warnings.simplefilter("ignore")
        return sp_signal.peak_prominences(arr, idx)[0]


def detect_peaks(
    x: np.ndarray,
    min_prominence: float = 0.0,
    min_distance: int = 1,
    min_height: Optional[float] = None,
) -> np.ndarray:
    """Detect peaks with prominence, spacing and height gates.

    Args:
        x: 1-D signal.
        min_prominence: Minimum topographic prominence a peak must have.
        min_distance: Minimum sample spacing between accepted peaks;
            when two candidates are closer, the more prominent survives.
        min_height: Optional absolute height floor.

    Returns:
        Sorted array of accepted peak indices.

    Raises:
        SignalError: If the signal is not a finite 1-D array.
        ConfigurationError: If gates are negative.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise SignalError(f"signal must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        return np.empty(0, dtype=int)
    if not np.all(np.isfinite(arr)):
        raise SignalError("signal contains non-finite values")
    if min_prominence < 0:
        raise ConfigurationError(f"min_prominence must be >= 0, got {min_prominence}")
    if min_distance < 1:
        raise ConfigurationError(f"min_distance must be >= 1, got {min_distance}")

    candidates = _local_maxima(arr)
    if candidates.size == 0:
        return candidates
    if min_height is not None:
        candidates = candidates[arr[candidates] >= min_height]
        if candidates.size == 0:
            return candidates
    proms = peak_prominences(arr, candidates)
    keep = proms >= min_prominence
    candidates, proms = candidates[keep], proms[keep]
    if candidates.size == 0 or min_distance == 1:
        return candidates
    return _enforce_min_distance(candidates, proms, min_distance, arr.size)


def _enforce_min_distance(
    candidates: np.ndarray,
    proms: np.ndarray,
    min_distance: int,
    size: int,
) -> np.ndarray:
    """Greedy spacing enforcement shared by the scalar and batched paths.

    Visit candidates from most to least prominent (stable order, so
    equal prominences resolve left to right) and accept those not
    within ``min_distance`` of an already accepted peak. The occupancy
    array makes each acceptance check O(min_distance) instead of
    O(accepted); the accepted set is identical to the quadratic scan
    because acceptance depends only on the previously accepted indices.
    """
    order = np.argsort(-proms, kind="stable")
    taken = np.zeros(size, dtype=bool)
    accepted: list[int] = []
    for idx in candidates[order]:
        i = int(idx)
        lo = max(0, i - min_distance + 1)
        if taken[lo : i + min_distance].any():
            continue
        taken[i] = True
        accepted.append(i)
    return np.asarray(sorted(accepted), dtype=int)


def detect_valleys(
    x: np.ndarray,
    min_prominence: float = 0.0,
    min_distance: int = 1,
) -> np.ndarray:
    """Detect valleys (peaks of the negated signal)."""
    return detect_peaks(-np.asarray(x, dtype=float), min_prominence, min_distance)
