"""Scalar references for the flat cycle pairing and admission rule.

``pair_cycles_walk`` is the per-window pairing walk and
``admit_cycles_loop`` the per-session admission loop that
:func:`repro.signal.segmentation.pair_cycles` and
:func:`repro.core.rounds.admit_cycles` replace. They are kept here,
verbatim in behaviour, as the references the flat forms are checked
against, and ``window_segments`` reads one window of a flat result
back as the reference's ``Segment`` list.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

from repro.signal.segmentation import Segment

Span = Tuple[int, int, Tuple[int, ...]]


def pair_cycles_walk(
    n: int,
    peaks: Sequence[int],
    valleys: Sequence[int],
    min_gap: int,
    max_gap: int,
) -> List[Segment]:
    """Pair consecutive step peaks of one ``n``-sample window into cycles."""
    cycles: List[Segment] = []
    plist = [int(p) for p in peaks]
    vlist = [int(v) for v in valleys]
    nv = len(vlist)
    i = 0
    while i + 1 < len(plist):
        p1, p2 = plist[i], plist[i + 1]
        if p2 - p1 > max_gap:
            # Gap too long to be two consecutive steps; slide forward.
            i += 1
            continue
        li = bisect.bisect_left(vlist, p1)
        ri = bisect.bisect_right(vlist, p2)
        start = vlist[li - 1] if li else max(0, p1 - min_gap)
        end = vlist[ri] + 1 if ri < nv else min(n, p2 + min_gap + 1)
        if end - start >= 4:
            cycles.append(Segment(start, end, (p1, p2)))
        i += 2
    return cycles


def admit_cycles_loop(
    buf_start: int,
    settled_end: int,
    last_peak: int,
    segments: Sequence[Segment],
) -> Tuple[List[Span], int]:
    """Admit one window's settled, unconsumed cycles, one at a time.

    Returns the admitted ``(abs_start, abs_end, new_peaks)`` and the
    consumed-peak watermark after the loop.
    """
    admitted: List[Span] = []
    for seg in segments:
        abs_start = buf_start + seg.start
        abs_end = buf_start + seg.end
        if abs_end > settled_end:
            continue
        new_peaks = tuple(
            buf_start + int(p)
            for p in seg.peak_indices
            if buf_start + int(p) > last_peak
        )
        if not new_peaks:
            continue
        last_peak = max(last_peak, new_peaks[-1])
        admitted.append((abs_start, abs_end, new_peaks))
    return admitted, last_peak


def window_segments(cycles, w: int) -> List[Segment]:
    """Window ``w``'s cycles of a ``WindowCycles``, window-local."""
    base = int(cycles.window_starts[w])
    mine = cycles.owners == w
    return [
        Segment(s - base, e - base, (a - base, b - base))
        for s, e, a, b in zip(
            cycles.starts[mine].tolist(),
            cycles.ends[mine].tolist(),
            cycles.p1[mine].tolist(),
            cycles.p2[mine].tolist(),
        )
    ]
