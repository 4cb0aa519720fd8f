"""The critical-point offset metric — Eq. (1) of the paper.

For every critical point ``n_v`` found on the vertical axis of one
gait-cycle candidate, the metric measures how far (in samples) the
nearest critical point on the anterior axis sits:

    delta(n_v) = w(n_v) * |n_v - c(n_v)| / n

with ``n`` the cycle length and ``w(n_v)`` the normalised gap between
``n_v`` and the previous critical point on the same (vertical) axis.
The cycle's offset is the sum over all vertical critical points; since
the weights sum to roughly one, this is a weighted mean of normalised
mismatches.

Rigid single-source motions (arm gestures, spoofers, pure stepping)
keep the two axes synchronous, so the offset stays tiny; walking's
superposed arm + body sources pull critical points apart and the offset
exceeds the paper's threshold delta = 0.0325.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import PTrackConfig
from repro.exceptions import SignalError
from repro.signal.critical_points import CriticalPoint, critical_points

__all__ = ["cycle_offset", "critical_points_for_offset", "offset_from_points"]


def critical_points_for_offset(
    x: np.ndarray,
    config: PTrackConfig,
) -> List[CriticalPoint]:
    """Critical points of one detrended cycle axis.

    Prominence and hysteresis gates are absolute (m/s^2): human gait
    and gesture accelerations occupy a known physical band, and
    per-axis adaptive gates would asymmetrically drop one axis's bumps
    (inflating the offset of genuinely rigid motions whose two
    projections have different amplitudes).

    Args:
        x: One axis of a gait-cycle candidate.
        config: PTrack configuration.

    Returns:
        Time-ordered critical points of the mean-removed signal.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 4:
        raise SignalError(f"cycle axis must be 1-D with >= 4 samples, got {arr.shape}")
    centred = arr - arr.mean()
    if float(centred.std()) <= 0.0:
        return []
    min_dist = max(1, arr.size // 16)
    return critical_points(
        centred,
        min_prominence=config.critical_point_prominence,
        min_distance=min_dist,
        crossing_hysteresis=config.crossing_hysteresis,
    )


def offset_from_points(
    vertical_points: Sequence[CriticalPoint],
    anterior_points: Sequence[CriticalPoint],
    n: int,
    config: Optional[PTrackConfig] = None,
) -> float:
    """Eq. (1) evaluated on pre-extracted critical points.

    Args:
        vertical_points: Critical points of the vertical axis.
        anterior_points: Critical points of the anterior axis.
        n: Number of samples in the cycle.
        config: PTrack configuration (for the mismatch cap).

    Returns:
        The aggregated offset (sum of per-point ``delta(n_v)``).
    """
    cfg = config if config is not None else PTrackConfig()
    if n < 2:
        raise SignalError(f"cycle length must be >= 2, got {n}")
    if not vertical_points or len(anterior_points) < 2:
        # A silent axis carries no evidence of two independent motion
        # sources: walking always has strong structure on *both*
        # projections (Fig. 3a), so a one-sided cycle is not walking.
        return 0.0
    cap = cfg.max_normalized_offset * n
    # Nearest-neighbour matching against the *sorted* anterior indices:
    # each vertical point's nearest anterior point is one of the two
    # bracketing entries found by binary search, so the whole matching
    # collapses to one searchsorted plus elementwise minima (the
    # per-point scan is the reference in ``tests/scalar_references.py``).
    anterior_idx = np.sort(np.asarray([p.index for p in anterior_points], dtype=float))
    vertical_idx = np.asarray([p.index for p in vertical_points], dtype=float)
    pos = np.searchsorted(anterior_idx, vertical_idx)
    left = anterior_idx[np.clip(pos - 1, 0, anterior_idx.size - 1)]
    right = anterior_idx[np.clip(pos, 0, anterior_idx.size - 1)]
    mismatch = np.minimum(np.abs(vertical_idx - left), np.abs(right - vertical_idx))
    np.minimum(mismatch, cap, out=mismatch)  # "matching point disappears" (Fig. 3a)
    # w(n_v): normalised gap to the previous same-axis critical point,
    # capped so a sparse cycle's first point cannot dominate.
    weights = np.minimum(
        np.diff(vertical_idx, prepend=0.0) / n, cfg.max_point_weight
    )
    return float(np.sum(weights * mismatch / n))


def cycle_offset(
    vertical: np.ndarray,
    anterior: np.ndarray,
    config: Optional[PTrackConfig] = None,
) -> float:
    """Aggregated critical-point offset of one gait-cycle candidate.

    Args:
        vertical: Vertical acceleration of the candidate cycle.
        anterior: Anterior acceleration of the same cycle (equal length).
        config: PTrack configuration; defaults preserve the paper's
            delta-compatible scaling.

    Returns:
        The offset value compared against ``config.offset_threshold``.

    Raises:
        SignalError: On mismatched lengths or degenerate segments.
    """
    cfg = config if config is not None else PTrackConfig()
    v = np.asarray(vertical, dtype=float)
    a = np.asarray(anterior, dtype=float)
    if v.shape != a.shape:
        raise SignalError(f"axis length mismatch: {v.shape} vs {a.shape}")
    # Reference points are the vertical axis's *turning* points; they
    # are matched against the anterior axis's turning and crossing
    # points.  This mirrors the paper's synchronisation definition: a
    # rigid motion reaches turning points on both axes together, or a
    # turning point on one axis while the other crosses zero.
    v_points = [p for p in critical_points_for_offset(v, cfg) if p.kind.is_turning]
    # The matching set uses a relaxed prominence gate: a rigid motion
    # whose direction favours one axis still produces the *same* bumps
    # (scaled down) on the other, and dropping them there would fake
    # asynchrony where there is none.
    relaxed = cfg.with_overrides(
        critical_point_prominence=(
            cfg.matching_prominence_factor * cfg.critical_point_prominence
        ),
        crossing_hysteresis=cfg.matching_prominence_factor * cfg.crossing_hysteresis,
    )
    a_points = critical_points_for_offset(a, relaxed)
    return offset_from_points(v_points, a_points, v.size, cfg)
