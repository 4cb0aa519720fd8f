"""Mean-removal integration (displacement from acceleration).

A naive double integral of accelerometer data drifts quadratically with
any bias. The paper adopts the *mean-removal* technique of Wang et al.
(MOLE, MobiCom'15) [26]: when a segment is known to start and end at
zero velocity, the true acceleration integrates to exactly zero over
the segment, so the sample mean *is* the bias — removing it cancels the
drift and brings displacement accuracy to the millimetre level.

The PTrack stride estimator uses this on three quantities per gait
cycle — ``h1``, ``h2`` (vertical device displacements) and ``d``
(anterior arm travel) — all of which satisfy the zero-velocity-endpoint
requirement by construction (SIII-C1).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import IntegrationError, SignalError

__all__ = [
    "cumulative_trapezoid",
    "integrate_mean_removal",
    "double_integrate_mean_removal",
    "peak_to_peak_displacement",
]


def _validate(x: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise SignalError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise IntegrationError(f"{name} needs at least 2 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise SignalError(f"{name} contains non-finite values")
    return arr


def cumulative_trapezoid(x: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoidal integral with an initial zero sample.

    Args:
        x: 1-D integrand sampled uniformly.
        dt: Sample period in seconds.

    Returns:
        Array of the same length as ``x``; element ``i`` is the
        integral from sample 0 to sample ``i`` (element 0 is 0).
    """
    arr = _validate(x, "integrand")
    if dt <= 0:
        raise IntegrationError(f"dt must be positive, got {dt}")
    out = np.empty_like(arr)
    out[0] = 0.0
    np.cumsum((arr[1:] + arr[:-1]) * (dt / 2.0), out=out[1:])
    return out


def integrate_mean_removal(x: np.ndarray, dt: float) -> np.ndarray:
    """Single integral of a zero-endpoint-velocity segment.

    The integrand's mean is removed first, which forces the integral to
    return to zero at the segment end — exactly the physical constraint
    ("the object's velocity equals zero at both ends") that justifies
    the removal.

    Args:
        x: 1-D acceleration (or velocity) segment.
        dt: Sample period in seconds.

    Returns:
        The integrated signal (velocity, or displacement), same length.
        Its final sample is exactly zero: the removed constant is the
        *trapezoid-consistent* mean (endpoint samples weighted by 1/2),
        so the discrete integral of the residual vanishes identically
        rather than only up to discretisation error.
    """
    arr = _validate(x, "segment")
    trapezoid_mean = (arr.sum() - 0.5 * (arr[0] + arr[-1])) / (arr.size - 1)
    return cumulative_trapezoid(arr - trapezoid_mean, dt)


def double_integrate_mean_removal(x: np.ndarray, dt: float) -> np.ndarray:
    """Displacement from acceleration with per-stage mean removal.

    Stage 1 removes the acceleration mean and integrates to velocity;
    stage 2 removes the *velocity* mean and integrates to displacement.
    The second removal maps the displacement into its oscillatory
    component around the segment trend — for wrist signals this strips
    the constant forward-walking baseline ``v0`` that the paper notes
    cannot be recovered from integration anyway (SII, "Stride estimation
    with mixed signals").

    Args:
        x: 1-D acceleration segment with zero velocity at both ends.
        dt: Sample period in seconds.

    Returns:
        Detrended displacement, same length as ``x``.
    """
    velocity = integrate_mean_removal(x, dt)
    return cumulative_trapezoid(velocity - velocity.mean(), dt)


def peak_to_peak_displacement(x: np.ndarray, dt: float) -> float:
    """Peak-to-peak displacement of a zero-endpoint-velocity segment.

    Convenience wrapper used for the direct bounce measurement in the
    stepping case (device rigid w.r.t. the body): the body's vertical
    oscillation amplitude is the peak-to-peak excursion of the doubly
    integrated vertical acceleration.

    Args:
        x: 1-D acceleration segment.
        dt: Sample period in seconds.

    Returns:
        ``max - min`` of the displacement, in the integrand's distance
        unit (metres for m/s^2 input).
    """
    disp = double_integrate_mean_removal(x, dt)
    return float(disp.max() - disp.min())
