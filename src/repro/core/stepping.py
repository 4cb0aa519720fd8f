"""The stepping admission tests (SIII-B1, "Identifying user's stepping").

Stepping — walking with the arm rigid w.r.t. the body (handbag, pocket,
phone call) — looks rigid to the offset metric and would be discarded
with the interference. Two observations re-admit it:

1. On the anterior axis stepping is an *always-ahead* movement: the
   same (co)sine-like pattern repeats for the left and the right step,
   so the auto-correlation ``C`` of one cycle at its half-cycle lag is
   large and positive. Arm gestures are back-and-forth: direction
   reversals flip the waveform (sine becomes cosine), so their
   half-cycle correlation is not reliably positive.
2. The body's vertical and anterior accelerations keep a fixed
   quarter-period phase difference (Kim et al. [22]); arbitrary
   gestures do not guarantee any stable phase relation.

PTrack confirms stepping only when both hold for several consecutive
cycles (3 in the paper, crediting 6 steps at once — Fig. 4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PTrackConfig
from repro.exceptions import SignalError
from repro.signal.correlation import (
    batch_half_cycle_correlation,
    batch_phase_difference_fraction,
    half_cycle_correlation,
    phase_difference_fraction,
)

__all__ = [
    "stepping_correlation",
    "has_fixed_phase_difference",
    "batch_stepping_tests",
]


def stepping_correlation(anterior: np.ndarray) -> float:
    """The half-cycle auto-correlation ``C`` of one candidate cycle.

    Args:
        anterior: Anterior acceleration of the cycle.

    Returns:
        ``C`` in [-1, 1]; positive values support stepping.
    """
    return half_cycle_correlation(np.asarray(anterior, dtype=float))


def has_fixed_phase_difference(
    vertical: np.ndarray,
    anterior: np.ndarray,
    config: Optional[PTrackConfig] = None,
) -> Tuple[bool, float]:
    """Check the quarter-period vertical/anterior phase signature.

    The per-step-period phase difference is computed from the lag that
    maximises the cross-correlation of the two axes. Because the
    recovered anterior direction carries a 180-degree sign ambiguity, a
    difference of ``target`` and ``0.5 + target`` (mod 1) are both
    accepted — flipping the anterior sign shifts the phase by half a
    period.

    Args:
        vertical: Vertical acceleration of the cycle.
        anterior: Anterior acceleration of the cycle.
        config: PTrack configuration (target and tolerance).

    Returns:
        Tuple ``(matches, phase_fraction)`` where ``phase_fraction`` is
        the measured per-step phase difference in [0, 1).
    """
    cfg = config if config is not None else PTrackConfig()
    v = np.asarray(vertical, dtype=float)
    a = np.asarray(anterior, dtype=float)
    if v.shape != a.shape:
        raise SignalError(f"axis length mismatch: {v.shape} vs {a.shape}")
    frac = phase_difference_fraction(v, a)

    def _circular_distance(x: float, y: float) -> float:
        d = abs(x - y) % 1.0
        return min(d, 1.0 - d)

    target = cfg.phase_difference_target
    tol = cfg.phase_difference_tolerance
    matches = (
        _circular_distance(frac, target) <= tol
        or _circular_distance(frac, (target + 0.5) % 1.0) <= tol
    )
    return matches, frac


def _phase_matches(frac: float, cfg: PTrackConfig) -> bool:
    """The quarter-period acceptance test on a measured phase fraction."""
    target = cfg.phase_difference_target
    tol = cfg.phase_difference_tolerance
    for centre in (target, (target + 0.5) % 1.0):
        d = abs(frac - centre) % 1.0
        if min(d, 1.0 - d) <= tol:
            return True
    return False


def batch_stepping_tests(
    verticals: Sequence[np.ndarray],
    anteriors: Sequence[np.ndarray],
    config: Optional[PTrackConfig] = None,
) -> Tuple[List[float], List[float], List[bool]]:
    """Both stepping admission tests over many candidate cycles at once.

    Evaluates the half-cycle auto-correlation on each axis
    (length-grouped batch) and the quarter-period phase signature
    (vectorised lag search) for every cycle. A cycle that the per-cycle
    path would reject with a :class:`SignalError` (too short, silent
    axis) reads ``(0.0, 0.0, False)`` — the same values the decision
    flow records for a failed admission.

    Args:
        verticals: Vertical-axis cycle arrays.
        anteriors: Anterior-axis cycle arrays (aligned with
            ``verticals``).
        config: PTrack configuration (phase target and tolerance).

    Returns:
        ``(anterior_C, vertical_C, phase_ok)``: three lists of Python
        scalars, one entry per cycle.
    """
    cfg = config if config is not None else PTrackConfig()
    if len(verticals) != len(anteriors):
        raise SignalError(
            f"axis count mismatch: {len(verticals)} vs {len(anteriors)}"
        )
    corr_a = batch_half_cycle_correlation(anteriors)
    corr_v = batch_half_cycle_correlation(verticals)
    fracs = batch_phase_difference_fraction(list(zip(verticals, anteriors)))
    finite = np.isfinite(fracs)
    phase_ok = [
        ok and _phase_matches(frac, cfg)
        for ok, frac in zip(finite.tolist(), fracs.tolist())
    ]
    return (
        np.where(finite, corr_a, 0.0).tolist(),
        np.where(finite, corr_v, 0.0).tolist(),
        phase_ok,
    )
