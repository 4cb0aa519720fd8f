"""Flat cycle pairing and admission against their scalar references.

:func:`repro.signal.segmentation.pair_cycles` pairs the step peaks of
every window of a round at once, on flat indices, and
:func:`repro.core.rounds.admit_cycles` admits a round's cycles with
one mask. The inputs here are synthetic peak/valley index sets, not
signals, so the corner cases of the walk (run breaks at either parity,
gaps of exactly ``max_gap``, missing valleys, clamped ends, short
spans, split pairs, settle cuts) are reached directly. The references
are the per-window walk and the per-session admission loop in
``scalar_segmentation``.
"""

from typing import List, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounds import admit_cycles
from repro.signal.batched import WindowCycles
from repro.signal.segmentation import Segment, pair_cycles
from scalar_segmentation import (
    admit_cycles_loop,
    pair_cycles_walk,
    window_segments,
)


class Window(NamedTuple):
    n: int
    peaks: List[int]
    valleys: List[int]
    origin: int = 0
    settled_end: int = 10**9
    last_peak: int = -1


def _flat_round(windows: Sequence[Window], min_gap: int, max_gap: int):
    """Pair every window at once, as a fleet round lays them out: each
    window followed by one separator sample."""
    lens = np.asarray([w.n for w in windows], dtype=np.intp)
    starts = np.zeros(lens.size, dtype=np.intp)
    np.cumsum(lens[:-1] + 1, out=starts[1:])
    peaks = np.asarray(
        [p + s for w, s in zip(windows, starts) for p in w.peaks], dtype=np.intp
    )
    owners = np.asarray(
        [i for i, w in enumerate(windows) for _ in w.peaks], dtype=np.intp
    )
    valleys = np.asarray(
        [v + s for w, s in zip(windows, starts) for v in w.valleys],
        dtype=np.intp,
    )
    paired = pair_cycles(peaks, owners, valleys, starts, lens, min_gap, max_gap)
    return WindowCycles(starts, *paired, [None] * len(windows))


def _check_round(windows: Sequence[Window], min_gap: int, max_gap: int):
    """Assert flat pairing and admission equal the scalar references;
    return the reference segments and admitted spans per window."""
    cycles = _flat_round(windows, min_gap, max_gap)
    rc = admit_cycles(
        cycles,
        [w.origin for w in windows],
        [w.settled_end for w in windows],
        [w.last_peak for w in windows],
    )
    assert len(rc.bounds) == len(windows) + 1
    admitted = [
        list(zip(rc.starts[lo:hi], rc.ends[lo:hi], rc.peaks[lo:hi]))
        for lo, hi in zip(rc.bounds, rc.bounds[1:])
    ]
    refs, spans = [], []
    for i, w in enumerate(windows):
        ref = pair_cycles_walk(w.n, w.peaks, w.valleys, min_gap, max_gap)
        assert window_segments(cycles, i) == ref
        ref_spans, watermark = admit_cycles_loop(
            w.origin, w.settled_end, w.last_peak, ref
        )
        assert admitted[i] == ref_spans
        # The session commits the last admitted peak as its watermark.
        assert (admitted[i][-1][2][-1] if admitted[i] else w.last_peak) == (
            watermark
        )
        refs.append(ref)
        spans.append(ref_spans)
    return refs, spans


@st.composite
def rounds(draw):
    max_gap = draw(st.integers(2, 30))
    min_gap = draw(st.integers(1, max_gap))
    gap = st.one_of(
        st.just(max_gap), st.just(max_gap + 1), st.integers(1, 2 * max_gap)
    )
    windows = []
    for _ in range(draw(st.integers(1, 5))):
        # Most windows hold a peak train; the rest hold no peak.
        peaks = [draw(st.integers(0, 6))] if draw(st.integers(0, 5)) else []
        for g in draw(st.lists(gap, max_size=9)) if peaks else []:
            peaks.append(peaks[-1] + g)
        last = peaks[-1] if peaks else draw(st.integers(-1, 20))
        n = max(0, last + draw(st.integers(1, min_gap + 4)))
        valleys = sorted(
            draw(st.sets(st.integers(0, n - 1), max_size=len(peaks) + 2))
            if n
            else ()
        )
        # A session's watermark is often exactly a consumed peak.
        marks = st.integers(-3, n - 1)
        if peaks:
            marks = st.one_of(marks, st.sampled_from(peaks))
        origin = draw(st.integers(0, 1000))
        windows.append(
            Window(
                n,
                peaks,
                valleys,
                origin,
                origin + draw(st.integers(0, n + 3)),
                origin + draw(marks),
            )
        )
    return min_gap, max_gap, windows


@settings(max_examples=300, deadline=None)
@given(rounds())
def test_flat_pairing_and_admission_match_scalar(case):
    min_gap, max_gap, windows = case
    _check_round(windows, min_gap, max_gap)


def test_run_break_at_odd_rank_restarts_parity():
    # Break after rank 0: the walk pairs (40, 50) and (60, 70); a
    # parity counted from the window's first peak pairs (50, 60).
    refs, _ = _check_round([Window(100, [10, 40, 50, 60, 70], [])], 3, 15)
    assert [s.peak_indices for s in refs[0]] == [(40, 50), (60, 70)]


def test_run_break_at_even_rank_restarts_parity():
    refs, _ = _check_round([Window(100, [10, 20, 30, 60, 70], [])], 3, 15)
    assert [s.peak_indices for s in refs[0]] == [(10, 20), (60, 70)]


def test_gap_of_exactly_max_gap_pairs():
    refs, _ = _check_round(
        [Window(60, [10, 25], []), Window(60, [10, 26], [])], 3, 15
    )
    assert [len(r) for r in refs] == [1, 0]


def test_windows_with_no_or_one_peak_never_pair_across():
    # Flat neighbours across a window boundary sit within max_gap.
    refs, _ = _check_round(
        [
            Window(30, [28], [29]),
            Window(0, [], []),
            Window(30, [1], [0]),
            Window(30, [], [5]),
            Window(30, [3, 12], []),
        ],
        2,
        15,
    )
    assert [len(r) for r in refs] == [0, 0, 0, 0, 1]


def test_missing_valleys_fall_back_inside_the_window():
    # Valleys exist only in the neighbouring windows (flat before p1
    # and after p2); the fallbacks clamp at the window's own edges.
    refs, _ = _check_round(
        [
            Window(20, [], [18]),
            Window(40, [2, 12], []),
            Window(20, [], [1]),
        ],
        5,
        15,
    )
    assert refs[1] == [Segment(0, 18, (2, 12))]


def test_end_clamped_at_window_length():
    refs, _ = _check_round([Window(22, [10, 20], [4])], 5, 15)
    assert refs[0] == [Segment(4, 22, (10, 20))]


def test_short_spans_are_dropped():
    refs, _ = _check_round(
        [Window(3, [0, 1], [2]), Window(3, [1, 2], []), Window(5, [0, 1], [3])],
        1,
        15,
    )
    assert refs == [[], [], [Segment(0, 4, (0, 1))]]


def test_watermark_splitting_a_pair_keeps_only_the_fresh_peak():
    _, spans = _check_round(
        [Window(60, [10, 20, 30, 40], [5, 25, 45], 100, 10**9, 115)], 3, 15
    )
    assert spans[0] == [(105, 126, (120,)), (125, 146, (130, 140))]
    _, spans = _check_round(
        [Window(60, [10, 20, 30, 40], [5, 25, 45], 100, 10**9, 110)], 3, 15
    )
    assert spans[0] == [(105, 126, (120,)), (125, 146, (130, 140))]
    _, spans = _check_round(
        [Window(60, [10, 20, 30, 40], [5, 25, 45], 100, 10**9, 120)], 3, 15
    )
    assert spans[0] == [(125, 146, (130, 140))]


def test_settled_end_cuts_the_round():
    _, spans = _check_round(
        [Window(60, [10, 20, 30, 40], [5, 25, 45], 100, 145, -1)], 3, 15
    )
    assert spans[0] == [(105, 126, (110, 120))]


@pytest.mark.parametrize("last_peak", [-1, 140])
def test_nothing_admitted_leaves_the_watermark(last_peak):
    _, spans = _check_round(
        [Window(60, [10, 20, 30, 40], [5, 25, 45], 100, 125, last_peak)], 3, 15
    )
    assert spans == [[]]
