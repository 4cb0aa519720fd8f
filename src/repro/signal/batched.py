"""Fleet-batched signal kernels: many windows per C-kernel dispatch.

The scalar pipeline pays one scipy dispatch per window per primitive
(peaks, valleys, prominences) — microseconds of Python/marshalling
around nanoseconds of scanning. When a serving fleet stages hundreds of
windows per ingest round, that overhead dominates. The kernels here
amortise it: all windows are packed into **one** concatenated signal
with ``+inf`` separator samples and scanned by a single kernel call.

The separator trick preserves bit-identical semantics per window:

* a ``+inf`` sample is taller than any finite neighbour, so no window
  sample adjacent to it can start a rise or end a fall — exactly the
  border behaviour of an isolated window (edge samples are never
  peaks);
* the prominence scan stops at the first sample *higher* than the
  peak, so an ``+inf`` wall bounds the scan to the window interior —
  the same sample set an isolated scan covers.

Spacing enforcement and cycle pairing cannot cross separators either:
they run per window through the exact helpers the scalar detectors use
(:func:`repro.signal.peaks._enforce_min_distance`,
:func:`repro.signal.segmentation._pair_cycles`), so every decision is
shared code, not a re-implementation. The differential tests assert
window-for-window identity against :func:`repro.signal.peaks.detect_peaks`
and :func:`repro.signal.segmentation.segment_gait_cycles`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, SignalError
from repro.signal.peaks import _enforce_min_distance, _local_maxima
from repro.signal.peaks import peak_prominences as _peak_prominences
from repro.signal.segmentation import Segment, _pair_cycles

__all__ = [
    "pack_windows",
    "multi_window_extrema",
    "multi_window_extrema_pair",
    "batched_segment_windows",
    "crossing_indices",
    "batched_crossing_indices",
]

Windows = Union[np.ndarray, Sequence[np.ndarray]]


def pack_windows(
    windows: Windows,
    negate: bool = False,
    out: Optional[np.ndarray] = None,
    fill: float = np.inf,
) -> tuple:
    """Concatenate windows with separator samples (``+inf`` by default).

    Args:
        windows: A sequence of 1-D float64 windows (ragged lengths
            allowed), or a 2-D array treated as equal-length rows.
        negate: Pack the negated samples (for valley detection);
            separators keep their ``fill`` value.
        out: Optional preallocated 1-D scratch of at least the packed
            size (e.g. from a
            :class:`repro.serving.batch.FleetBatchBuffer`); a fresh
            array is allocated when absent or too small.
        fill: Separator sample value. ``+inf`` isolates extremum and
            prominence scans; ``0.0`` isolates hysteresis crossing
            scans (a zero sample is never armed).

    Returns:
        Tuple ``(concat, starts, lens)``: the packed signal (one
        separator after every window, including the last), each
        window's start offset, and each window's length.
    """
    if isinstance(windows, np.ndarray) and windows.ndim == 2:
        g, n = windows.shape
        total = g * (n + 1)
        if out is not None and out.size >= total:
            packed = out[:total].reshape(g, n + 1)
        else:
            packed = np.empty((g, n + 1))
        np.multiply(windows, -1.0, out=packed[:, :n]) if negate else np.copyto(
            packed[:, :n], windows
        )
        packed[:, n] = fill
        lens = np.full(g, n, dtype=np.intp)
        starts = np.arange(g, dtype=np.intp) * (n + 1)
        return packed.reshape(total), starts, lens
    lens = np.asarray([w.size for w in windows], dtype=np.intp)
    starts = np.zeros(lens.size, dtype=np.intp)
    if lens.size:
        np.cumsum(lens[:-1] + 1, out=starts[1:])
    total = int(lens.sum()) + lens.size
    if out is not None and out.size >= total:
        concat = out[:total]
    else:
        concat = np.empty(total)
    # One C-level concatenate (windows interleaved with a shared
    # one-sample separator) beats a per-window Python copy loop. The
    # negated variant negates the whole packed signal, then restores
    # the separators (negation of a copy is bitwise-exact).
    if lens.size:
        sep = np.empty(1)
        sep[0] = fill
        parts: list = []
        for w in windows:
            parts.append(w)
            parts.append(sep)
        np.concatenate(parts, out=concat)
        if negate:
            np.negative(concat, out=concat)
            concat[starts + lens] = fill
    return concat, starts, lens


def multi_window_extrema(
    windows: Windows,
    min_prominences: Union[float, Sequence[float]],
    min_distances: Union[int, Sequence[int]],
    negate: bool = False,
    scratch: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Per-window peak (or valley) detection in one kernel dispatch.

    Semantically ``[detect_peaks(w, p, d) for w, p, d in zip(...)]``
    (or ``detect_valleys`` with ``negate=True``), evaluated with a
    single local-maxima scan and a single prominence scan over the
    packed signal. Windows must already be finite 1-D float64 — the
    callers own validation, mirroring where the scalar detectors
    validate.

    Args:
        windows: Windows to scan (sequence of 1-D arrays or 2-D rows).
        min_prominences: Prominence floor, scalar or one per window.
        min_distances: Spacing gate, scalar or one per window.
        negate: Detect valleys instead of peaks.
        scratch: Optional packing scratch (see :func:`pack_windows`).

    Returns:
        One sorted window-local index array per window.
    """
    concat, starts, lens = pack_windows(windows, negate=negate, out=scratch)
    return _extrema_from_packed(
        concat, starts, lens, min_prominences, min_distances
    )


def multi_window_extrema_pair(
    windows: Windows,
    peak_prominences: Union[float, Sequence[float]],
    valley_prominences: Union[float, Sequence[float]],
    min_distances: Union[int, Sequence[int]],
    scratch: Optional[np.ndarray] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Peaks *and* valleys of the same windows from one packing.

    Semantically the ``multi_window_extrema(...)`` /
    ``multi_window_extrema(..., negate=True)`` pair, but the windows
    are packed once: the valley pass negates the packed signal in
    place and restores the ``+inf`` separators, which is bitwise
    identical to packing the negated windows (float64 negation is
    exact), then reuses the same buffer.

    Args:
        windows: Windows to scan (sequence of 1-D arrays or 2-D rows).
        peak_prominences: Peak-prominence floor, scalar or per window.
        valley_prominences: Valley-prominence floor, scalar or per
            window.
        min_distances: Spacing gate, scalar or one per window.
        scratch: Optional packing scratch (see :func:`pack_windows`).

    Returns:
        Tuple ``(peaks_per, valleys_per)`` of per-window sorted
        window-local index arrays.
    """
    concat, starts, lens = pack_windows(windows, out=scratch)
    peaks_per = _extrema_from_packed(
        concat, starts, lens, peak_prominences, min_distances
    )
    if lens.size:
        np.negative(concat, out=concat)
        concat[starts + lens] = np.inf
    valleys_per = _extrema_from_packed(
        concat, starts, lens, valley_prominences, min_distances
    )
    return peaks_per, valleys_per


def _finite_extrema(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fused maxima + prominence scan over a packed signal.

    Returns ``(candidates, prominences)`` for every *finite* local
    maximum of ``x``. On a :func:`pack_windows` signal the non-finite
    samples are exactly the ``+inf`` separators, so dropping
    non-finite peaks is the packed equivalent of the per-window
    interior filter — one call replaces the maxima scan, the interior
    mask and the prominence scan. Both scans are the scipy C kernels
    the scalar detectors use, so every value is bit-identical to a
    per-window :func:`repro.signal.peaks.detect_peaks` pass.
    """
    candidates = _local_maxima(x)
    if candidates.size:
        candidates = candidates[np.isfinite(x[candidates])]
    if candidates.size == 0:
        return candidates, np.empty(0)
    return candidates, _peak_prominences(x, candidates)


def _extrema_from_packed(
    concat: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    min_prominences: Union[float, Sequence[float]],
    min_distances: Union[int, Sequence[int]],
) -> List[np.ndarray]:
    """Shared post-packing half of the multi-window extrema scans."""
    n_windows = lens.size
    empty = np.empty(0, dtype=int)
    results: List[np.ndarray] = [empty] * n_windows
    if n_windows == 0:
        return results
    proms_floor = np.broadcast_to(
        np.asarray(min_prominences, dtype=float), (n_windows,)
    )
    distances = np.broadcast_to(
        np.asarray(min_distances, dtype=np.intp), (n_windows,)
    )
    # One fused scan replaces the local_maxima + prominence pair. It
    # drops non-finite candidates, which here is exactly the interior
    # filter: the separators are the only non-finite samples in the
    # packed signal (callers validate window samples finite), and every
    # separator index is a window's one-past-the-end position.
    candidates, proms = _finite_extrema(concat)
    if candidates.size == 0:
        return results
    win_ids = np.searchsorted(starts, candidates, side="right") - 1
    local = candidates - starts[win_ids]
    keep = proms >= proms_floor[win_ids]
    win_ids, local, proms = win_ids[keep], local[keep], proms[keep]
    m = win_ids.size
    if m == 0:
        return results
    # Candidates arrive in ascending packed order, so searchsorted cuts
    # recover each window's (still sorted) slice without np.split.
    bounds = np.empty(n_windows + 1, dtype=np.intp)
    bounds[0] = 0
    bounds[-1] = m
    if n_windows > 1:
        bounds[1:-1] = win_ids.searchsorted(np.arange(1, n_windows))
    # Spacing fast path: when a window's surviving candidates are
    # already >= min_distance apart, the greedy enforcement cannot
    # reject anything — accept the slice wholesale and run the scalar
    # greedy loop only for the (rare) crowded windows.
    if m > 1:
        tight = (win_ids[1:] == win_ids[:-1]) & (
            local[1:] - local[:-1] < distances[win_ids[1:]]
        )
        crowded = set(win_ids[1:][tight].tolist())
    else:
        crowded = set()
    bl = bounds.tolist()
    for w in range(n_windows):
        lo, hi = bl[w], bl[w + 1]
        if lo == hi:
            continue
        cand = local[lo:hi]
        if hi - lo == 1 or w not in crowded or int(distances[w]) == 1:
            results[w] = cand
            continue
        results[w] = _enforce_min_distance(
            cand, proms[lo:hi], int(distances[w]), int(lens[w])
        )
    return results


def batched_segment_windows(
    windows: Sequence[np.ndarray],
    sample_rate_hz: float,
    min_step_rate_hz: float = 1.2,
    max_step_rate_hz: float = 3.2,
    min_prominence: float = 0.6,
    scratch: Optional[np.ndarray] = None,
) -> List[Union[List[Segment], Exception]]:
    """Gait-cycle segmentation of many windows per kernel dispatch.

    Semantically ``[segment_gait_cycles(w, ...) for w in windows]``
    with the peak/valley scans batched across all windows. A window
    that the scalar segmenter would reject (non-finite samples) yields
    its exception *in place* instead of raising, so one poisoned
    session cannot take down a fleet round — the caller decides the
    isolation policy.

    Args:
        windows: Vertical-acceleration windows, one per session.
        sample_rate_hz: Shared sampling rate.
        min_step_rate_hz: Slowest admissible stepping rate.
        max_step_rate_hz: Fastest admissible stepping rate.
        min_prominence: Step-peak prominence floor.
        scratch: Optional packing scratch.

    Returns:
        Per window, either the cycle list or the exception the scalar
        segmenter would have raised.

    Raises:
        ConfigurationError: On an invalid rate band (a caller mistake,
            not a per-session condition).
    """
    if sample_rate_hz <= 0:
        raise ConfigurationError(
            f"sample_rate_hz must be positive, got {sample_rate_hz}"
        )
    if not 0 < min_step_rate_hz < max_step_rate_hz:
        raise ConfigurationError(
            f"need 0 < min_step_rate_hz < max_step_rate_hz, got "
            f"({min_step_rate_hz}, {max_step_rate_hz})"
        )
    n_windows = len(windows)
    results: List[Union[List[Segment], Exception]] = [[] for _ in range(n_windows)]
    if n_windows == 0:
        return results
    min_gap = max(1, int(round(sample_rate_hz / max_step_rate_hz)))
    max_gap = int(round(sample_rate_hz / min_step_rate_hz))
    live = []
    for i, w in enumerate(windows):
        if w.ndim != 1:
            results[i] = SignalError(
                f"vertical must be 1-D, got shape {w.shape}"
            )
        elif w.size == 0:
            results[i] = []
        elif not np.isfinite(w).all():
            results[i] = SignalError("vertical contains non-finite values")
        else:
            live.append(i)
    if not live:
        return results
    live_windows = [windows[i] for i in live]
    peaks_per, valleys_per = multi_window_extrema_pair(
        live_windows,
        min_prominence,
        min_prominence * 0.5,
        min_gap,
        scratch=scratch,
    )
    for i, peaks, valleys in zip(live, peaks_per, valleys_per):
        if peaks.size < 2:
            continue
        results[i] = _pair_cycles(
            windows[i].size, peaks, valleys, min_gap, max_gap
        )
    return results


def crossing_indices(x: np.ndarray, hysteresis: float) -> np.ndarray:
    """Zero-crossing sample indices with amplitude hysteresis.

    The index-array core of
    :func:`repro.signal.critical_points.zero_crossings` (same armed-sign
    state machine, vectorised), returned without the
    :class:`~repro.signal.critical_points.CriticalPoint` wrappers the
    batched offset kernel would immediately unwrap.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size < 2:
        return np.empty(0, dtype=np.intp)
    signs = np.zeros(arr.size, dtype=np.int8)
    signs[arr > hysteresis] = 1
    signs[arr < -hysteresis] = -1
    armed = np.flatnonzero(signs)
    if armed.size < 2:
        return np.empty(0, dtype=np.intp)
    armed_signs = signs[armed]
    flips = np.flatnonzero(armed_signs[1:] != armed_signs[:-1]) + 1
    return armed[flips]


def batched_crossing_indices(
    windows: Sequence[np.ndarray],
    hysteresis: float,
    scratch: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Per-window :func:`crossing_indices` in one packed state machine.

    Windows are packed with ``0.0`` separators — a zero sample sits
    inside the hysteresis band, is never armed, and therefore cannot
    form a flip pair — and flips are additionally required to pair two
    armed samples of the *same* window, so the first armed sample of a
    window never reports the last armed sample of the previous window
    as a crossing. Per window the armed subsequence and its flips are
    exactly the scalar machine's.
    """
    n_windows = len(windows)
    empty = np.empty(0, dtype=np.intp)
    results: List[np.ndarray] = [empty] * n_windows
    if n_windows == 0:
        return results
    concat, starts, _lens = pack_windows(windows, out=scratch, fill=0.0)
    signs = np.zeros(concat.size, dtype=np.int8)
    signs[concat > hysteresis] = 1
    signs[concat < -hysteresis] = -1
    armed = np.flatnonzero(signs)
    if armed.size < 2:
        return results
    owners = starts.searchsorted(armed, side="right") - 1
    armed_signs = signs[armed]
    flips = (armed_signs[1:] != armed_signs[:-1]) & (
        owners[1:] == owners[:-1]
    )
    hits = armed[1:][flips]
    if hits.size == 0:
        return results
    win_ids = owners[1:][flips]
    local = hits - starts[win_ids]
    bounds = np.empty(n_windows + 1, dtype=np.intp)
    bounds[0] = 0
    bounds[-1] = hits.size
    if n_windows > 1:
        bounds[1:-1] = win_ids.searchsorted(np.arange(1, n_windows))
    for w in range(n_windows):
        lo, hi = int(bounds[w]), int(bounds[w + 1])
        if lo != hi:
            results[w] = local[lo:hi]
    return results
