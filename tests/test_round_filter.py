"""The round's filter stage, block by block.

Stage 1 of a round gathers every due session's pending filter blocks as
rows of row-major stacks, low-passes each stack along its rows and
stops the backward pass at the first row any block of the stack keeps.
Every block's kept rows must still be exactly ``butter_lowpass`` of
that block alone — scipy's ``sosfiltfilt`` bit for bit above the
moving-average floor, so the reference does not share the round's
filter code — whatever shares its stack: interior hop blocks, a
stream's first block (clipped at the buffer start), a block alone in
its length group, a full :data:`~repro.core.rounds.FILTER_STACK_BLOCKS`
stack, and end-of-stream tails of mixed lengths, down to one short
enough for the moving-average fallback.
"""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.core import rounds as rounds_module
from repro.core.rounds import FILTER_STACK_BLOCKS
from repro.core.streaming import StreamingPTrack
from repro.serving import SessionPool
from repro.signal.filters import butter_lowpass
from scalar_drain import ScalarDrain

RATE = 100.0
N_SESSIONS = FILTER_STACK_BLOCKS + 6
#: Samples per session in the three appends. Session 0 joins late, so
#: its first, clipped block is alone in its length group; session 1
#: stops after 20 samples, so its flush filters a moving-average tail;
#: the rest end ragged, so their tails fall into several length groups.
FIRST = [10, 20] + [400] * (N_SESSIONS - 2)
SECOND = [300, 0] + [100] * (N_SESSIONS - 2)
THIRD = [0, 0] + [(k % 5) * 17 for k in range(2, N_SESSIONS)]
#: Longest tail the low-pass filters as a moving average (order 4).
MOVING_AVERAGE_FLOOR = 3 * (2 * 4 + 1)


@pytest.fixture(scope="module")
def traces():
    rng = np.random.default_rng(2024)
    total = [a + b + c for a, b, c in zip(FIRST, SECOND, THIRD)]
    return [rng.normal(0.0, 2.0, size=(n, 3)) for n in total]


def _serve(append, flush, traces):
    """Feed every session its three appends, then flush; return the
    per-session credits."""
    credits = [([], []) for _ in traces]
    at = [0] * len(traces)
    for sizes in (FIRST, SECOND, THIRD):
        batches = []
        for k, n in enumerate(sizes):
            batches.append(traces[k][at[k] : at[k] + n])
            at[k] += n
        for k, (steps, strides) in enumerate(append(batches)):
            credits[k][0].extend(steps)
            credits[k][1].extend(strides)
    for k, (steps, strides) in enumerate(flush()):
        credits[k][0].extend(steps)
        credits[k][1].extend(strides)
    return credits


def _checked_seams(monkeypatch):
    """Hold every filtered block the round commits to ``butter_lowpass``
    of that block alone; return the list of committed blocks."""
    seen = []
    hop_apply = StreamingPTrack.apply_filtered_block
    tail_apply = StreamingPTrack.apply_final_block

    def expected(sess, lo, hi, final):
        cfg = sess.config
        raw = sess.raw_block(lo, hi)
        rows = butter_lowpass(
            raw, cfg.lowpass_cutoff_hz, sess.sample_rate_hz, cfg.lowpass_order
        )
        if hi - lo > MOVING_AVERAGE_FLOOR:
            sos = sp_signal.butter(
                cfg.lowpass_order,
                cfg.lowpass_cutoff_hz / (sess.sample_rate_hz / 2.0),
                btype="low",
                output="sos",
            )
            reference = sp_signal.sosfiltfilt(sos, raw, axis=0)
            assert np.array_equal(rows, reference)
        return rows[final - lo :]

    def check_hop(sess, lo, hi, final, rows):
        hop = sess._hop
        assert np.array_equal(rows[:hop], expected(sess, lo, hi, final)[:hop])
        seen.append(("hop", hi - lo, final - lo < sess._pad))
        hop_apply(sess, lo, hi, final, rows)

    def check_tail(sess, lo, hi, final, rows):
        assert np.array_equal(rows, expected(sess, lo, hi, final))
        seen.append(("tail", hi - lo, final - lo < sess._pad))
        tail_apply(sess, lo, hi, final, rows)

    monkeypatch.setattr(StreamingPTrack, "apply_filtered_block", check_hop)
    monkeypatch.setattr(StreamingPTrack, "apply_final_block", check_tail)
    return seen


def _spy_stacks(monkeypatch):
    """Record the ``(rows, length)`` of every low-pass stack."""
    shapes = []
    lowpass = rounds_module.lowpass_rows

    def spy(stack, *args, **kwargs):
        shapes.append(stack.shape)
        return lowpass(stack, *args, **kwargs)

    monkeypatch.setattr(rounds_module, "lowpass_rows", spy)
    return shapes


def test_round_filter_rows_equal_blockwise_lowpass(monkeypatch, traces):
    seen = _checked_seams(monkeypatch)
    shapes = _spy_stacks(monkeypatch)
    pool = SessionPool(RATE)
    sids = pool.add_sessions([None] * N_SESSIONS)
    _serve(lambda batches: pool.append(sids, batches),
           lambda: pool.flush(sids), traces)
    assert not pool.failed_sessions

    # Every case the stage must get right actually ran.
    hops = [(length, clipped) for kind, length, clipped in seen if kind == "hop"]
    tails = {length for kind, length, _clipped in seen if kind == "tail"}
    assert any(clipped for _length, clipped in hops)
    assert any(not clipped for _length, clipped in hops)
    assert (3 * FILTER_STACK_BLOCKS, 2 * 100 + 125) in shapes
    assert any(rows == 3 for rows, _length in shapes)
    assert len(tails) >= 3
    assert min(tails) <= MOVING_AVERAGE_FLOOR < max(tails)


def test_round_filter_keeps_credits_and_op_stats(traces):
    pool = SessionPool(RATE)
    sids = pool.add_sessions([None] * N_SESSIONS)
    got = _serve(lambda batches: pool.append(sids, batches),
                 lambda: pool.flush(sids), traces)
    # The reference filters every block alone, one low-pass call each.
    drains = [ScalarDrain(StreamingPTrack(RATE)) for _ in traces]
    want = _serve(
        lambda batches: [d.append(b) for d, b in zip(drains, batches)],
        lambda: [d.flush() for d in drains],
        traces,
    )
    assert [pool.session(s).op_stats for s in sids] == [
        d.session.op_stats for d in drains
    ]
    key = lambda credits: [  # noqa: E731
        [(e.index, e.cycle_id, e.gait_type) for e in steps]
        for steps, _strides in credits
    ]
    assert key(got) == key(want)
