"""Filtering primitives: low-pass, moving average, gravity separation.

The first stage of every pedestrian-tracking pipeline in the paper
(Fig. 2) is a low-pass filter that strips sensor noise above the gait
band (human gait lives below ~5 Hz; wrist sensor noise does not).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal

from repro.exceptions import ConfigurationError, SignalError

__all__ = [
    "butter_lowpass",
    "lowpass_rows",
    "moving_average",
    "detrend_mean",
    "gravity_component",
]


def _validate_1d(x: np.ndarray, name: str = "signal") -> np.ndarray:
    """Coerce ``x`` to a 1-D float array, rejecting empties and NaNs."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise SignalError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise SignalError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise SignalError(f"{name} contains non-finite values")
    return arr


@lru_cache(maxsize=64)
def _butter_sos(order: int, normalized_cutoff: float) -> np.ndarray:
    """Cached Butterworth SOS design.

    Filter design costs more than filtering a typical gait-cycle block;
    streaming callers re-filter small blocks with the same parameters
    thousands of times per minute, so the design is memoized on its
    exact parameter pair.
    """
    return sp_signal.butter(order, normalized_cutoff, btype="low", output="sos")


@lru_cache(maxsize=64)
def _sosfiltfilt_setup(
    order: int, normalized_cutoff: float
) -> tuple:
    """Cached (sos, steady-state zi, pad length) for zero-phase filtering.

    ``scipy.signal.sosfiltfilt`` recomputes the per-section steady-state
    initial conditions (a linear solve per section) on every call; for
    block-streaming callers that fixed cost dominates the actual
    filtering. The values depend only on the design, so they are
    memoized alongside it.
    """
    sos = _butter_sos(order, normalized_cutoff).copy()
    zi = sp_signal.sosfilt_zi(sos)
    n_sections = sos.shape[0]
    # scipy's default padlen for sosfiltfilt, reproduced exactly.
    ntaps = 2 * n_sections + 1
    ntaps -= min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    return sos, zi, 3 * int(ntaps)


def lowpass_rows(
    rows: np.ndarray,
    cutoff_hz: float,
    sample_rate_hz: float,
    order: int = 4,
    keep_from: int = 0,
) -> np.ndarray:
    """Zero-phase Butterworth low-pass of every row of a 2-D array.

    Row ``r`` of the result is ``butter_lowpass(rows[r], ...)[keep_from:]``
    bit for bit: each row is one signal, filtered along the last axis,
    so a stack of many short signals runs as one call. Only the output
    columns from ``keep_from`` on are returned, and the backward pass
    stops there: in reversed time its output at a column depends only on
    the columns after it, so the columns before ``keep_from`` are never
    computed. The result may be a non-contiguous view.

    Args:
        rows: ``(m, n)`` array of ``m`` signals of ``n`` samples.
        cutoff_hz: -3 dB cutoff frequency in Hz; must lie strictly
            below the Nyquist frequency.
        sample_rate_hz: Sampling rate in Hz.
        order: Filter order (of the underlying one-pass design).
        keep_from: First output column wanted (``0 <= keep_from < n``).

    Returns:
        ``(m, n - keep_from)`` filtered columns ``keep_from:``.

    Raises:
        ConfigurationError: If the cutoff, rate or order are invalid.
        SignalError: If a row is empty, or is short enough for the
            moving-average fallback and holds non-finite values.
    """
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    nyquist = sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ConfigurationError(
            f"cutoff_hz must be in (0, {nyquist}), got {cutoff_hz}"
        )
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    if rows.size == 0:
        raise SignalError("cannot filter an empty signal")
    n = rows.shape[-1]
    # filtfilt needs a minimum length related to the filter's impulse
    # response; fall back to a moving average for very short segments so
    # tiny gait-cycle tails do not crash the pipeline.
    if n <= 3 * (2 * order + 1):
        width = max(1, n // 4)
        return np.array([moving_average(row, width)[keep_from:] for row in rows])
    sos, zi, edge = _sosfiltfilt_setup(order, cutoff_hz / nyquist)
    # scipy's sosfiltfilt, operation for operation: odd extension by
    # ``edge`` samples a side, a forward pass, then a backward pass over
    # the reversed output, each seeded with the steady-state conditions
    # scaled by the first sample it filters.
    ext = np.concatenate(
        (
            2.0 * rows[:, :1] - rows[:, edge:0:-1],
            rows,
            2.0 * rows[:, -1:] - rows[:, -2 : -(edge + 2) : -1],
        ),
        axis=1,
    )
    zi = zi[:, None, :]
    fwd, _ = sp_signal.sosfilt(sos, ext, zi=zi * ext[:, :1])
    # Backward over extended columns ``edge + keep_from`` on only
    # (``edge >= 3``, so the slice stop is never -1).
    back, _ = sp_signal.sosfilt(
        sos, fwd[:, : edge + keep_from - 1 : -1], zi=zi * fwd[:, -1:]
    )
    # Undo the reversal and drop the right extension.
    return back[:, : edge - 1 : -1]


def butter_lowpass(
    x: np.ndarray,
    cutoff_hz: float,
    sample_rate_hz: float,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter.

    Uses forward-backward filtering (``filtfilt``) so gait peaks are not
    delayed relative to the raw signal — peak timestamps feed the
    critical-point offset metric, so phase distortion would directly
    corrupt the step counter. Reproduces ``scipy.signal.sosfiltfilt``
    bit for bit (asserted by the differential tests) with its setup
    cost memoized; each signal runs through :func:`lowpass_rows`.

    Args:
        x: 1-D signal (or 2-D array filtered along axis 0).
        cutoff_hz: -3 dB cutoff frequency in Hz; must lie strictly
            below the Nyquist frequency.
        sample_rate_hz: Sampling rate of ``x`` in Hz.
        order: Filter order (of the underlying one-pass design).

    Returns:
        The filtered signal, same shape as ``x``.

    Raises:
        ConfigurationError: If the cutoff or rate are invalid.
        SignalError: If the signal is empty.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        out = lowpass_rows(arr[None, :], cutoff_hz, sample_rate_hz, order)[0]
    else:
        out = lowpass_rows(arr.T, cutoff_hz, sample_rate_hz, order).T
    return np.ascontiguousarray(out)


def moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Centred moving average with edge truncation.

    Args:
        x: 1-D signal.
        width: Window width in samples; values < 2 return a copy.

    Returns:
        Smoothed signal of the same length; edges use the samples that
        actually fall inside the window, so no padding bias appears.
    """
    arr = _validate_1d(x)
    if width < 2:
        return arr.copy()
    if width > arr.size:
        width = arr.size
    kernel = np.ones(width)
    summed = np.convolve(arr, kernel, mode="same")
    counts = np.convolve(np.ones(arr.size), kernel, mode="same")
    return summed / counts


def detrend_mean(x: np.ndarray) -> np.ndarray:
    """Remove the mean of a signal (the 'mean-removal' primitive).

    This is the first half of the mean-removal integration technique of
    Wang et al. [26]: within a segment whose endpoints have zero
    velocity, the acceleration mean equals the integration drift per
    unit time, so subtracting it cancels the drift.
    """
    arr = _validate_1d(x)
    return arr - arr.mean()


def gravity_component(
    x: np.ndarray,
    sample_rate_hz: float,
    cutoff_hz: float = 0.3,
) -> np.ndarray:
    """Estimate the quasi-static (gravity) component of an accelerometer axis.

    Platform APIs expose linear acceleration by subtracting exactly this
    kind of slow component [25]; the sensing substrate uses it when a
    simulated device reports raw (gravity-inclusive) readings.

    Args:
        x: 1-D raw accelerometer axis.
        sample_rate_hz: Sampling rate in Hz.
        cutoff_hz: Cutoff separating posture/gravity from motion.

    Returns:
        The low-frequency component, same length as ``x``.
    """
    arr = _validate_1d(x)
    if arr.size < 8:
        return np.full_like(arr, arr.mean())
    return butter_lowpass(arr, cutoff_hz, sample_rate_hz, order=2)
