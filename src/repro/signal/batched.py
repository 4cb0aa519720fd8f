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

Spacing enforcement cannot cross separators either: it runs per
crowded window through the helper the scalar detectors use
(:func:`repro.signal.peaks._enforce_min_distance`). One extrema core
(:func:`_kept_extrema`) returns the kept peaks as flat indices into the
packed signal with the window each belongs to, and
:func:`batched_segment_windows` pairs them into cycles on those same
flat indices, every window at once, through
:func:`repro.signal.segmentation.pair_cycles` — the pairing rule the
scalar segmenter calls with one window. No per-window list is built
between the scan and the caller.

A right-padded ``(rows, stride)`` stack is a packed signal too, with
window ``r`` starting at ``r * stride``: :func:`stack_extrema` fills
the padding with ``+inf`` (the stride leaves at least one separator
column) and :func:`stack_crossings` with ``0.0``. A zero sample sits
inside the hysteresis band and is never armed, and a flip must pair two
armed samples of one row, so the hysteresis state machine restarts at
every row as the scalar :func:`crossing_indices` does. Both return flat
indices ``r * stride + j``, so callers keep working on the stack's own
indices.

The differential tests assert window-for-window identity against
:func:`repro.signal.peaks.detect_peaks`,
:func:`repro.signal.peaks.detect_valleys`, :func:`crossing_indices` and
a scalar pairing walk.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, SignalError
from repro.signal.peaks import _enforce_min_distance, _local_maxima
from repro.signal.peaks import peak_prominences as _peak_prominences
from repro.signal.segmentation import pair_cycles

__all__ = [
    "pack_windows",
    "WindowCycles",
    "batched_segment_windows",
    "stack_extrema",
    "crossing_indices",
    "stack_crossings",
]

def pack_windows(
    windows: Sequence[np.ndarray],
    out: Optional[np.ndarray] = None,
) -> tuple:
    """Concatenate 1-D windows with ``+inf`` separator samples.

    Args:
        windows: A sequence of 1-D float64 windows (ragged lengths
            allowed).
        out: Optional preallocated 1-D scratch of at least the packed
            size (e.g. from a
            :class:`repro.runtime.buffers.FleetBatchBuffer`); a fresh
            array is allocated when absent or too small.

    Returns:
        Tuple ``(concat, starts, lens)``: the packed signal (one
        separator after every window, including the last), each
        window's start offset, and each window's length.
    """
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
    # one-sample separator) beats a per-window Python copy loop.
    if lens.size:
        sep = np.full(1, np.inf)
        parts: list = []
        for w in windows:
            parts.append(w)
            parts.append(sep)
        np.concatenate(parts, out=concat)
    return concat, starts, lens


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


def _kept_extrema(
    signal: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    min_prominences: Union[float, Sequence[float]],
    min_distances: Union[int, Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """The extrema core: kept peaks of a packed signal, as flat indices.

    ``signal`` holds window ``w`` at ``starts[w]`` for ``lens[w]``
    samples, each followed by ``+inf`` up to the next window (a
    :func:`pack_windows` signal, or a padded stack read flat). Per
    window this is :func:`repro.signal.peaks.detect_peaks` with that
    window's prominence floor and spacing gate.

    Returns:
        ``(kept, owners)``: the kept peaks' sorted flat indices and the
        window each belongs to.
    """
    n_windows = lens.size
    proms_floor = np.broadcast_to(
        np.asarray(min_prominences, dtype=float), (n_windows,)
    )
    distances = np.broadcast_to(
        np.asarray(min_distances, dtype=np.intp), (n_windows,)
    )
    # One fused scan replaces the local_maxima + prominence pair. It
    # drops non-finite candidates, which here is exactly the interior
    # filter: the +inf fill is the only non-finite data in the signal
    # (callers validate window samples finite), and every fill run
    # starts one past a window's end.
    candidates, proms = _finite_extrema(signal)
    owners = np.searchsorted(starts, candidates, side="right") - 1
    keep = proms >= proms_floor[owners]
    candidates, owners, proms = candidates[keep], owners[keep], proms[keep]
    if candidates.size < 2:
        return candidates, owners
    # Spacing fast path: when a window's surviving candidates are
    # already >= min_distance apart, the greedy enforcement cannot
    # reject anything — keep them wholesale and run the scalar greedy
    # loop only for the (rare) crowded windows.
    tight = (owners[1:] == owners[:-1]) & (
        np.diff(candidates) < distances[owners[1:]]
    )
    if not tight.any():
        return candidates, owners
    keep = np.ones(candidates.size, dtype=bool)
    for w in np.unique(owners[1:][tight]).tolist():
        lo, hi = owners.searchsorted([w, w + 1])
        local = candidates[lo:hi] - starts[w]
        kept = _enforce_min_distance(
            local, proms[lo:hi], int(distances[w]), int(lens[w])
        )
        keep[lo:hi] = np.isin(local, kept)
    return candidates[keep], owners[keep]


def _stack_padding(stack: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Mask of the columns past each row's length in a padded stack."""
    return np.arange(stack.shape[1]) >= np.asarray(lens)[:, None]


def stack_extrema(
    stack: np.ndarray,
    lens: np.ndarray,
    min_prominences: Union[float, Sequence[float]],
    min_distances: Union[int, Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Peaks *and* valleys of every row of a padded stack, as flat indices.

    Row ``r`` of the C-contiguous ``(rows, stride)`` float64 ``stack``
    holds a finite window in ``stack[r, :lens[r]]``, with
    ``stride > max(lens)``; what follows is ignored. Per row this is
    ``detect_peaks(row, p, d)`` and ``detect_valleys(row, p, d)`` with
    that row's prominence floor ``p`` and spacing gate ``d``, every
    index lifted by ``r * stride`` — the stack *is* the packed signal:
    filled with ``+inf`` past each row's end, it carries the separator
    semantics of :func:`pack_windows` (the spare column separates the
    longest rows), and ``flat // stride`` names a point's row.

    The stack is consumed: on return it holds the negated rows with
    ``+inf`` padding (the valley pass negates it in place; float64
    negation is exact).

    Returns:
        ``(peaks, valleys)``: sorted flat index arrays.
    """
    rows, stride = stack.shape
    padding = _stack_padding(stack, lens)
    np.copyto(stack, np.inf, where=padding)
    flat = stack.reshape(-1)
    starts = np.arange(rows) * stride
    peaks, _ = _kept_extrema(flat, starts, lens, min_prominences, min_distances)
    np.negative(stack, out=stack, where=~padding)
    valleys, _ = _kept_extrema(flat, starts, lens, min_prominences, min_distances)
    return peaks, valleys


class WindowCycles(NamedTuple):
    """Every window's gait-cycle candidates, on the packed scan's flat indices.

    Window ``w`` starts at flat index ``window_starts[w]``, so a flat
    index ``i`` of its cycles is ``i - window_starts[w]`` in the window.
    Cycle ``c`` belongs to window ``owners[c]``, spans
    ``[starts[c], ends[c])`` and pairs the step peaks ``p1[c] < p2[c]``;
    cycles are in window order, then time order. ``errors[w]`` is the
    exception the scalar segmenter raises on window ``w`` (which then
    has no cycles), else ``None``.
    """

    window_starts: np.ndarray
    owners: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    errors: List[Optional[Exception]]


_NO_SAMPLES = np.empty(0)


def batched_segment_windows(
    windows: Sequence[np.ndarray],
    sample_rate_hz: float,
    min_step_rate_hz: float = 1.2,
    max_step_rate_hz: float = 3.2,
    min_prominence: float = 0.6,
    scratch: Optional[np.ndarray] = None,
) -> WindowCycles:
    """Gait-cycle segmentation of many windows per kernel dispatch.

    Per window, the cycles of ``segment_gait_cycles(w, ...)``: the
    windows are packed once, checked finite once, scanned for peaks
    and valleys by one kernel call each and paired together by
    :func:`repro.signal.segmentation.pair_cycles`. A window that the
    scalar segmenter would reject (non-finite samples, not 1-D) gets
    its exception in ``errors`` instead of raising, so one poisoned
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
        The cycles of every window, flat (see :class:`WindowCycles`).

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
    min_gap = max(1, int(round(sample_rate_hz / max_step_rate_hz)))
    max_gap = int(round(sample_rate_hz / min_step_rate_hz))
    errors: List[Optional[Exception]] = [None] * len(windows)
    packable = list(windows)
    for i, w in enumerate(windows):
        if w.ndim != 1:
            errors[i] = SignalError(
                f"vertical must be 1-D, got shape {w.shape}"
            )
            packable[i] = _NO_SAMPLES
    concat, starts, lens = pack_windows(packable, out=scratch)
    # One finiteness check for the round: the separators are the only
    # non-finite samples a clean packing holds. A failing window is
    # packed again as an empty one, so it yields no cycles.
    finite = np.isfinite(concat)
    if np.count_nonzero(finite) != concat.size - lens.size:
        bad = np.flatnonzero(~finite)
        owner = np.searchsorted(starts, bad, side="right") - 1
        owner = owner[bad != starts[owner] + lens[owner]]
        for w in np.unique(owner).tolist():
            errors[w] = SignalError("vertical contains non-finite values")
            packable[w] = _NO_SAMPLES
        concat, starts, lens = pack_windows(packable, out=scratch)
    peaks, owners = _kept_extrema(concat, starts, lens, min_prominence, min_gap)
    # The valley pass reads the negated packing: negate in place and
    # restore the separators (float64 negation is exact).
    np.negative(concat, out=concat)
    concat[starts + lens] = np.inf
    valleys, _ = _kept_extrema(
        concat, starts, lens, min_prominence * 0.5, min_gap
    )
    return WindowCycles(
        starts,
        *pair_cycles(peaks, owners, valleys, starts, lens, min_gap, max_gap),
        errors,
    )


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


def stack_crossings(
    stack: np.ndarray, lens: np.ndarray, hysteresis: float
) -> np.ndarray:
    """Per-row :func:`crossing_indices` of a padded stack, as flat indices.

    Same layout as :func:`stack_extrema` (row ``r``'s window is
    ``stack[r, :lens[r]]``, a crossing at ``j`` reads
    ``r * stride + j``), with ``hysteresis >= 0``. The padding is
    zeroed in place — a zero sample sits inside the hysteresis band,
    is never armed, and so cannot form a flip pair — and flips must
    pair two armed samples of the *same* row, so a row's first armed
    sample never reports the previous row's last one. Per row the
    armed subsequence and its flips are exactly the scalar machine's.
    Crossings are sign-blind: a negated stack gives the same indices.

    Returns:
        Sorted flat indices of every row's crossings.
    """
    stride = stack.shape[1]
    np.copyto(stack, 0.0, where=_stack_padding(stack, lens))
    flat = stack.reshape(-1)
    below = flat < -hysteresis
    armed = np.flatnonzero((flat > hysteresis) | below)
    if armed.size < 2:
        return np.empty(0, dtype=np.intp)
    armed_below = below[armed]
    rows = armed // stride
    flips = (armed_below[1:] != armed_below[:-1]) & (rows[1:] == rows[:-1])
    return armed[1:][flips]
