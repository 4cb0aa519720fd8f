"""Acceleration projection onto vertical and anterior directions.

SIII-B2 of the paper: the vertical axis comes from the platform's
attitude-aware motion APIs [25]; the anterior (walking) direction is
*recovered from the data* — during gait the arm swings back and forth
along the anterior direction, so the horizontal acceleration samples
scatter along a dominant line whose orientation a least-squares fit
reveals.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SignalError

__all__ = ["anterior_direction", "project_horizontal"]


def anterior_direction(horizontal: np.ndarray) -> np.ndarray:
    """Dominant horizontal direction of motion via total least squares.

    The horizontal acceleration cloud of a swinging arm (or a stepping
    body) is elongated along the anterior axis. Ordinary least squares
    of y-on-x degenerates for near-vertical orientations, so the fit is
    total least squares — the principal eigenvector of the 2x2 scatter
    matrix — which treats both axes symmetrically.

    The returned unit vector's sign is chosen so its first nonzero
    component is positive; the offset metric and the half-cycle test
    are both sign-invariant, so the 180-degree ambiguity (which the
    paper resolves only for heading purposes) is harmless here.

    Args:
        horizontal: Array of shape (N, 2) of horizontal accelerations.

    Returns:
        Unit vector of shape (2,) along the anterior direction.

    Raises:
        SignalError: If fewer than 3 samples or a degenerate (isotropic
            zero-variance) cloud is supplied.
    """
    arr = np.asarray(horizontal, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SignalError(f"horizontal must have shape (N, 2), got {arr.shape}")
    if arr.shape[0] < 3:
        raise SignalError(f"need at least 3 samples, got {arr.shape[0]}")
    centred = arr - arr.mean(axis=0)
    scatter = centred.T @ centred
    if not np.all(np.isfinite(scatter)):
        raise SignalError("horizontal contains non-finite values")
    if np.allclose(scatter, 0.0):
        raise SignalError("horizontal acceleration has no variance; no direction")
    eigvals, eigvecs = np.linalg.eigh(scatter)
    direction = eigvecs[:, int(np.argmax(eigvals))]
    # Canonical sign: first component positive (or second if first ~ 0).
    if abs(direction[0]) > 1e-12:
        if direction[0] < 0:
            direction = -direction
    elif direction[1] < 0:
        direction = -direction
    return direction / np.linalg.norm(direction)


def project_horizontal(
    horizontal: np.ndarray,
    direction: np.ndarray,
) -> np.ndarray:
    """Project horizontal accelerations onto a unit direction.

    Args:
        horizontal: Array of shape (N, 2).
        direction: Unit vector of shape (2,) (e.g. from
            :func:`anterior_direction`).

    Returns:
        1-D array of shape (N,): the anterior acceleration.
    """
    arr = np.asarray(horizontal, dtype=float)
    d = np.asarray(direction, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SignalError(f"horizontal must have shape (N, 2), got {arr.shape}")
    if d.shape != (2,):
        raise SignalError(f"direction must have shape (2,), got {d.shape}")
    norm = np.linalg.norm(d)
    if not np.isfinite(norm) or norm < 1e-12:
        raise SignalError("direction must be a nonzero finite vector")
    return arr @ (d / norm)
