"""Acceleration segmentation into gait-cycle candidates.

The existing step-counting stack reused by PTrack (Fig. 2, grayed
modules) ends with *acceleration segmentation*: the filtered vertical
acceleration is cut into candidate gait cycles, each spanning two
step peaks (left + right leg), delimited at valleys so that every
segment starts and ends near zero vertical velocity — the precondition
of the mean-removal integration used later by the stride estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, SignalError
from repro.signal.peaks import detect_peaks, detect_valleys

__all__ = [
    "Segment",
    "segment_gait_cycles",
    "pair_cycles",
    "sliding_windows",
]


@dataclass(frozen=True)
class Segment:
    """A half-open sample range ``[start, end)`` within a trace.

    Attributes:
        start: First sample index (inclusive).
        end: One past the last sample index (exclusive).
        peak_indices: Step-peak indices falling inside the segment.
    """

    start: int
    end: int
    peak_indices: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid segment [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Number of samples covered by the segment."""
        return self.end - self.start

    def slice(self, x: np.ndarray) -> np.ndarray:
        """Extract this segment from an array (along axis 0)."""
        return np.asarray(x)[self.start : self.end]


def segment_gait_cycles(
    vertical: np.ndarray,
    sample_rate_hz: float,
    min_step_rate_hz: float = 1.2,
    max_step_rate_hz: float = 3.2,
    min_prominence: float = 0.6,
) -> List[Segment]:
    """Segment vertical acceleration into two-step gait-cycle candidates.

    The detector finds step peaks whose spacing is plausible for human
    gait, then pairs consecutive peaks into cycles. Cycle boundaries are
    placed at the valley preceding the first peak and the valley
    following the second, so boundaries sit near zero vertical velocity.

    This stage is deliberately permissive: vigorous arm activities also
    produce qualifying peak trains and *will* appear as candidates.
    Rejecting them is the job of PTrack's gait-type identification, not
    of this module (the paper keeps the same split).

    Args:
        vertical: Filtered vertical (linear) acceleration, m/s^2.
        sample_rate_hz: Sampling rate in Hz.
        min_step_rate_hz: Slowest admissible stepping rate.
        max_step_rate_hz: Fastest admissible stepping rate.
        min_prominence: Peak prominence floor in m/s^2; suppresses
            micro-motions such as mouse moves or keystrokes, which the
            paper notes are eliminated before gait identification.

    Returns:
        List of candidate cycles; each carries its two step peaks.

    Raises:
        ConfigurationError: If the rate band is empty or negative.
        SignalError: If the input is not a finite 1-D signal.
    """
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    if not 0 < min_step_rate_hz < max_step_rate_hz:
        raise ConfigurationError(
            f"need 0 < min_step_rate_hz < max_step_rate_hz, got "
            f"({min_step_rate_hz}, {max_step_rate_hz})"
        )
    v = np.asarray(vertical, dtype=float)
    if v.ndim != 1:
        raise SignalError(f"vertical must be 1-D, got shape {v.shape}")
    if v.size == 0:
        return []
    if not np.all(np.isfinite(v)):
        raise SignalError("vertical contains non-finite values")

    min_gap = max(1, int(round(sample_rate_hz / max_step_rate_hz)))
    max_gap = int(round(sample_rate_hz / min_step_rate_hz))
    peaks = detect_peaks(v, min_prominence=min_prominence, min_distance=min_gap)
    if peaks.size < 2:
        return []
    valleys = detect_valleys(v, min_prominence=min_prominence * 0.5, min_distance=min_gap)
    _, start, end, p1, p2 = pair_cycles(
        peaks,
        np.zeros(peaks.size, dtype=np.intp),
        valleys,
        np.zeros(1, dtype=np.intp),
        np.full(1, v.size, dtype=np.intp),
        min_gap,
        max_gap,
    )
    return [
        Segment(s, e, (a, b))
        for s, e, a, b in zip(start.tolist(), end.tolist(), p1.tolist(), p2.tolist())
    ]


def pair_cycles(
    peaks: np.ndarray,
    owners: np.ndarray,
    valleys: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    min_gap: int,
    max_gap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pair consecutive step peaks into cycles, every window at once.

    The one pairing rule of :func:`segment_gait_cycles` and of the
    fleet-batched segmenter (:mod:`repro.signal.batched`). Indices are
    flat: window ``w`` holds ``lens[w]`` samples from ``starts[w]``,
    windows do not overlap, and ``peaks`` (with their windows
    ``owners``) and ``valleys`` are sorted. A single window is
    ``starts=[0]``, ``lens=[n]``.

    Within a window, peaks form *runs* broken after every gap longer
    than ``max_gap`` (too long for two consecutive steps). Walking a
    run from its first peak pairs ranks ``(0, 1), (2, 3), ...``; an odd
    last peak stays unpaired. A cycle reaches from the last valley
    before its first peak to the first valley after its second; where
    the window holds no such valley, the bound sits ``min_gap`` samples
    beyond the peak, clamped to the window. A cycle is kept when it
    spans at least 4 samples.

    Returns:
        ``(owners, start, end, p1, p2)`` per cycle, flat, in window
        then time order: the half-open span ``[start, end)`` and its
        two step peaks.
    """
    if peaks.size < 2:
        none = np.empty(0, dtype=np.intp)
        return none, none, none, none, none
    # A run breaks after a long gap and at every window boundary; a
    # peak's parity is its rank counted from its run's first peak.
    breaks = (np.diff(peaks) > max_gap) | (owners[1:] != owners[:-1])
    index = np.arange(peaks.size)
    head = np.zeros(peaks.size, dtype=np.intp)
    head[1:] = np.where(breaks, index[1:], 0)
    np.maximum.accumulate(head, out=head)
    first = np.flatnonzero(~breaks & ((index[:-1] - head[:-1]) % 2 == 0))
    p1 = peaks[first]
    p2 = peaks[first + 1]
    owner = owners[first]
    lo = starts[owner]
    hi = lo + lens[owner]
    start = np.maximum(lo, p1 - min_gap)
    end = np.minimum(hi, p2 + min_gap + 1)
    if valleys.size:
        # The nearest valley on each side counts only inside the window.
        left = np.searchsorted(valleys, p1) - 1
        before = valleys[np.maximum(left, 0)]
        start = np.where((left >= 0) & (before >= lo), before, start)
        right = np.searchsorted(valleys, p2, side="right")
        after = valleys[np.minimum(right, valleys.size - 1)]
        end = np.where((right < valleys.size) & (after < hi), after + 1, end)
    keep = end - start >= 4
    return owner[keep], start[keep], end[keep], p1[keep], p2[keep]


def sliding_windows(
    n_samples: int,
    window: int,
    hop: int,
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, end)`` index pairs of a hopping window.

    Args:
        n_samples: Total number of samples available.
        window: Window length in samples.
        hop: Hop (stride) between window starts in samples.

    Yields:
        Half-open ranges fully contained in ``[0, n_samples)``.

    Raises:
        ConfigurationError: If window or hop are not positive.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if hop < 1:
        raise ConfigurationError(f"hop must be >= 1, got {hop}")
    start = 0
    while start + window <= n_samples:
        yield start, start + window
        start += hop
