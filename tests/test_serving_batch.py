"""Tests for the fleet-batched serving path.

Three layers:

* kernel differentials — every batched signal/measurement kernel
  against its scalar reference, bit for bit, on ragged inputs
  (hypothesis-driven where the input space is wide);
* pool equivalence — :class:`SessionPool` against serial sessions:
  credits, op-stats, chunk invariance, sessions joining/leaving
  mid-stream, failed-session exclusion, the batched flush;
* scratch-buffer mechanics — :class:`FleetBatchBuffer` growth/reuse.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import (
    batched_cycle_solutions,
    batched_stage_measurements,
)
from repro.core.config import PTrackConfig
from repro.core.streaming import StreamingPTrack
from repro.core.stride import PTrackStrideEstimator
from repro.exceptions import SignalError
from repro.faults.policy import FaultPolicy
from repro.serving import (
    NO_CREDITS,
    BatchedSessionPool,
    FleetBatchBuffer,
    SessionPool,
    synthesize_workload,
)
from repro.core import rounds as rounds_module
from repro.serving import pool as pool_module
from repro.signal.batched import (
    _kept_extrema,
    batched_segment_windows,
    crossing_indices,
    pack_windows,
    stack_crossings,
    stack_extrema,
)
from repro.signal.peaks import detect_peaks, detect_valleys
from repro.signal.segmentation import segment_gait_cycles
from repro.types import GaitType, UserProfile
from scalar_drain import scalar_measure
from scalar_segmentation import pair_cycles_walk, window_segments

RATE = 100.0


def _walky(n, seed, freq=1.8, noise=0.25):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    return np.sin(2 * np.pi * freq * t) + noise * rng.standard_normal(n)


# ----------------------------------------------------------------------
# Kernel differentials
# ----------------------------------------------------------------------

ragged_windows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=160),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=8,
)


def _packed_extrema(windows, proms, dists, negate=False):
    """Kept extrema of the packed windows (of the negated windows with
    ``negate``: their valleys), split into window-local lists."""
    if negate:
        windows = [-w for w in windows]
    concat, starts, lens = pack_windows(windows)
    kept, owners = _kept_extrema(concat, starts, lens, proms, dists)
    return [kept[owners == w] - starts[w] for w in range(len(windows))]


@settings(max_examples=40, deadline=None)
@given(ragged_windows, st.floats(0.05, 1.0), st.integers(1, 12))
def test_packed_extrema_matches_scalar(specs, prom, dist):
    windows = [_walky(n, seed) for n, seed in specs]
    for negate, scalar in ((False, detect_peaks), (True, detect_valleys)):
        got = _packed_extrema(windows, prom, dist, negate=negate)
        for w, g in zip(windows, got):
            np.testing.assert_array_equal(
                g, scalar(w, min_prominence=prom, min_distance=dist)
            )


def test_packed_extrema_per_window_params():
    windows = [_walky(120, 3), _walky(80, 4), _walky(50, 5)]
    proms = [0.2, 0.5, 0.9]
    dists = [1, 5, 9]
    got = _packed_extrema(windows, proms, dists)
    for w, p, d, g in zip(windows, proms, dists, got):
        np.testing.assert_array_equal(
            g, detect_peaks(w, min_prominence=p, min_distance=d)
        )


@settings(max_examples=40, deadline=None)
@given(ragged_windows, st.floats(0.01, 0.8))
def test_batched_crossing_indices_matches_scalar(specs, hyst):
    # The stack form: windows right-padded into one stack whose padding
    # holds armed garbage of both signs, crossings as r * stride + j.
    windows = [_walky(n, seed, noise=0.4) for n, seed in specs]
    lens = np.asarray([w.size for w in windows])
    stride = int(lens.max()) + 1
    stack = 5.0 * np.random.default_rng(len(windows)).choice(
        [-1.0, 1.0], (len(windows), stride)
    )
    for row, w in zip(stack, windows):
        row[: w.size] = w
    got = stack_crossings(stack, lens, hyst)
    np.testing.assert_array_equal(got, np.sort(got))
    for r, w in enumerate(windows):
        np.testing.assert_array_equal(
            got[got // stride == r] - r * stride, crossing_indices(w, hyst)
        )


def _rows_of(flat, stride, count):
    """Split sorted flat stack indices into per-row local index arrays."""
    return [flat[flat // stride == r] - r * stride for r in range(count)]


def test_stack_extrema_and_crossings_match_scalar_row_by_row(monkeypatch):
    # Windows right-padded into one stack whose padding holds garbage
    # (NaN, and values far above and below every window): per row,
    # the flat-index kernels must be the scalar detectors exactly.
    import repro.signal.batched as signal_batched

    greedy = []
    enforce = signal_batched._enforce_min_distance
    monkeypatch.setattr(
        signal_batched,
        "_enforce_min_distance",
        lambda *args: greedy.append(args) or enforce(*args),
    )
    rng = np.random.default_rng(12)
    windows = [_walky(int(n), int(n), noise=0.6) for n in rng.integers(4, 301, 40)]
    windows += [_walky(4, 1), _walky(300, 2)]
    windows += [np.zeros(50), np.full(37, 2.5)]  # constant rows
    # Plateaus touching a row's start and end: never extrema.
    windows += [
        np.asarray([0.0, 1.0, 3.0, 3.0, 3.0]),
        np.asarray([3.0, 3.0, 1.0, 0.0, 2.0, 2.0]),
        np.asarray([-1.0, -1.0, 0.5, -2.0, -2.0, -2.0]),
    ]
    # Crowded rows: candidates every ~2 samples against wide spacing.
    windows += [np.sin(2.9 * np.arange(n)) + 0.3 * _walky(n, n) for n in (90, 211)]
    count = len(windows)
    proms = rng.uniform(0.05, 0.8, count)
    dists = rng.integers(1, 12, count)
    dists[-2:] = 9
    lens = np.asarray([w.size for w in windows])
    stride = int(lens.max()) + 1
    stack = rng.choice([np.nan, -1e6, 1e6], (count, stride))
    for row, w in zip(stack, windows):
        row[: w.size] = w
    fresh = stack.copy()
    peaks, valleys = stack_extrema(stack, lens, proms, dists)
    assert {args[2] for args in greedy} >= {9}  # crowded rows ran the greedy
    np.testing.assert_array_equal(peaks, np.sort(peaks))
    np.testing.assert_array_equal(valleys, np.sort(valleys))
    for r, (w, pk, vl) in enumerate(
        zip(windows, _rows_of(peaks, stride, count), _rows_of(valleys, stride, count))
    ):
        np.testing.assert_array_equal(
            pk, detect_peaks(w, min_prominence=proms[r], min_distance=dists[r])
        )
        np.testing.assert_array_equal(
            vl, detect_valleys(w, min_prominence=proms[r], min_distance=dists[r])
        )
    # Crossings are sign-blind: the stack stack_extrema leaves behind
    # (negated rows, +inf padding) gives the same rows as a fresh one.
    for hyst in (0.0, 0.2, 0.7):
        for source in (fresh.copy(), stack.copy()):
            got = _rows_of(stack_crossings(source, lens, hyst), stride, count)
            for w, g in zip(windows, got):
                np.testing.assert_array_equal(g, crossing_indices(w, hyst))


@settings(max_examples=25, deadline=None)
@given(ragged_windows)
def test_batched_segment_windows_matches_scalar(specs):
    windows = [_walky(max(n, 0), seed) for n, seed in specs]
    got = batched_segment_windows(windows, RATE)
    assert got.errors == [None] * len(windows)
    # The scalar walk over the scalar detectors, not the flat pairing
    # every segmenter now shares.
    min_gap, max_gap = round(RATE / 3.2), round(RATE / 1.2)
    for w, window in enumerate(windows):
        peaks = detect_peaks(window, min_prominence=0.6, min_distance=min_gap)
        valleys = detect_valleys(
            window, min_prominence=0.3, min_distance=min_gap
        )
        ref = pair_cycles_walk(window.size, peaks, valleys, min_gap, max_gap)
        assert window_segments(got, w) == ref
        assert ref == segment_gait_cycles(window, RATE)


def test_batched_segment_windows_poisoned_window_in_place():
    good = _walky(200, 7)
    bad = good.copy()
    bad[50] = np.nan
    wide = good.reshape(-1, 1)
    results = batched_segment_windows([good, bad, good, wide, good], RATE)
    ref = segment_gait_cycles(good, RATE)
    assert ref
    for w in (0, 2, 4):
        assert results.errors[w] is None
        assert window_segments(results, w) == ref
    for w in (1, 3):
        assert isinstance(results.errors[w], SignalError)
        assert window_segments(results, w) == []
    assert "non-finite" in str(results.errors[1])
    assert "1-D" in str(results.errors[3])


def test_pack_windows_separators_and_negation():
    windows = [_walky(9, 0), np.empty(0), _walky(4, 1)]
    concat, starts, lens = pack_windows(windows)
    assert concat.size == sum(w.size for w in windows) + len(windows)
    for s, n, w in zip(starts, lens, windows):
        np.testing.assert_array_equal(concat[s : s + n], w)
        assert concat[s + n] == np.inf
    neg, starts2, _ = pack_windows([-w for w in windows])
    np.testing.assert_array_equal(starts, starts2)
    for s, n, w in zip(starts2, lens, windows):
        np.testing.assert_array_equal(neg[s : s + n], -w)
        assert neg[s + n] == np.inf


def _per_cycle(measured):
    """A :class:`StageMeasurements` as one ``(a_seg, anterior_ok,
    motion_ok, offset)`` tuple per cycle, or the cycle's exception."""
    rows = zip(
        measured.a_segs, measured.anterior_ok, measured.motion_ok, measured.offsets
    )
    return [measured.errors.get(i, row) for i, row in enumerate(rows)]


def _solves(v_segs, a_segs, gaits, profiles, dt):
    """``batched_cycle_solutions`` as one ``(stride_m, bounce_m)`` pair
    per cycle, ``None`` where unsolved (the scalar estimator's form)."""
    sol = batched_cycle_solutions(v_segs, a_segs, gaits, profiles, dt)
    return [
        (stride, bounce) if ok else None
        for stride, bounce, ok in zip(sol.stride_m, sol.bounce_m, sol.solved)
    ]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=4, max_value=140),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_batched_stage_measurements_matches_scalar(specs):
    cfg = PTrackConfig()
    v_segs = [_walky(n, seed) for n, seed in specs]
    h_segs = [
        np.column_stack([_walky(n, seed + 1), _walky(n, seed + 2, freq=0.9)])
        for n, seed in specs
    ]
    got = _per_cycle(batched_stage_measurements(v_segs, h_segs, cfg))
    assert len(got) == len(specs)
    for v, h, m in zip(v_segs, h_segs, got):
        a_ref, ant_ref, mot_ref, off_ref = scalar_measure(v, h, cfg)
        a_seg, anterior_ok, motion_ok, offset = m
        assert anterior_ok == ant_ref
        assert motion_ok == mot_ref
        assert offset == off_ref  # bitwise
        np.testing.assert_array_equal(a_seg, a_ref)


def test_batched_stage_measurements_short_moving_cycle_errors_in_place():
    cfg = PTrackConfig()
    # 3-sample cycle with enough variance to pass the motion gate: the
    # scalar path raises out of the offset extraction.
    v = np.asarray([0.0, 5.0, -5.0])
    h = np.column_stack([v, v * 0.5])
    ok_v = _walky(80, 1)
    ok_h = np.column_stack([_walky(80, 2), _walky(80, 3)])
    got = _per_cycle(batched_stage_measurements([ok_v, v], [ok_h, h], cfg))
    assert isinstance(got[1], SignalError)
    a_ref, ant_ref, mot_ref, off_ref = scalar_measure(ok_v, ok_h, cfg)
    assert got[0][1] == ant_ref and got[0][2] == mot_ref
    assert got[0][3] == off_ref


@pytest.mark.parametrize("gait", [GaitType.STEPPING, GaitType.WALKING])
def test_batched_cycle_solutions_matches_scalar(gait):
    profile = UserProfile(arm_length_m=0.7, leg_length_m=0.9, calibration_k=2.0)
    estimator = PTrackStrideEstimator(profile)
    dt = 1.0 / RATE
    items = []
    for seed in range(6):
        n = 60 + 7 * seed
        v = _walky(n, seed)
        h = np.column_stack([_walky(n, seed + 50), _walky(n, seed + 90)])
        a = _walky(n, seed + 130)
        items.append((v, h, a, gait, profile))
    got = _solves(*zip(*[(v, a, g, p) for v, _h, a, g, p in items]), dt)
    for (v, h, a, g, _p), solved in zip(items, got):
        assert solved == estimator.cycle_stride(v, h, dt, g, a)


def test_batched_cycle_solutions_skips_unsolvable():
    profile = UserProfile(arm_length_m=0.7, leg_length_m=0.9, calibration_k=2.0)
    v = _walky(8, 0)  # too short for a WALKING solve
    h = np.column_stack([v, v])
    got = _solves([v], [None], [GaitType.WALKING], [profile], 1.0 / RATE)
    assert got == [None]


# ----------------------------------------------------------------------
# Pool equivalence
# ----------------------------------------------------------------------


def _serve_serially(workloads, batch):
    results = []
    for w in workloads:
        sess = StreamingPTrack(RATE, profile=w.profile)
        steps, strides = [], []
        for off in range(0, w.samples.shape[0], batch):
            st_, sr = sess.append(w.samples[off : off + batch])
            steps.extend(st_)
            strides.extend(sr)
        st_, sr = sess.flush()
        steps.extend(st_)
        strides.extend(sr)
        results.append((steps, strides, sess.op_stats.as_dict()))
    return results


def _serve_batched(workloads, batch, **kw):
    pool = SessionPool(RATE, **kw)
    sids = pool.add_sessions([w.profile for w in workloads])
    results = [([], []) for _ in sids]
    longest = max(w.samples.shape[0] for w in workloads)
    for off in range(0, longest, batch):
        live = [k for k, w in enumerate(workloads) if off < w.samples.shape[0]]
        out = pool.append(
            [sids[k] for k in live],
            [workloads[k].samples[off : off + batch] for k in live],
        )
        for k, (st_, sr) in zip(live, out):
            results[k][0].extend(st_)
            results[k][1].extend(sr)
    for k, (st_, sr) in enumerate(pool.flush(sids)):
        results[k][0].extend(st_)
        results[k][1].extend(sr)
    return [
        (steps, strides, pool.session(sids[k]).op_stats.as_dict())
        for k, (steps, strides) in enumerate(results)
    ], pool


def _assert_credits_identical(got, ref):
    assert len(got) == len(ref)
    for (s1, r1, o1), (s2, r2, o2) in zip(got, ref):
        assert [(e.index, e.time, e.gait_type) for e in s1] == [
            (e.index, e.time, e.gait_type) for e in s2
        ]
        assert [(e.time, e.length_m, e.bounce_m) for e in r1] == [
            (e.time, e.length_m, e.bounce_m) for e in r2
        ]
        assert o1 == o2


def test_batched_pool_bit_identical_to_serial_and_lockstep():
    # The former ``BatchedSessionPool`` name reaches the same pool.
    assert BatchedSessionPool is SessionPool
    workloads = synthesize_workload(6, 16.0, seed=21)
    serial = _serve_serially(workloads, batch=64)
    batched, _ = _serve_batched(workloads, batch=64)
    _assert_credits_identical(batched, serial)


def test_batched_pool_ragged_session_lengths():
    # Sessions leave mid-stream: shorter traces stop receiving batches
    # while the rest keep going.
    import dataclasses

    workloads = [
        dataclasses.replace(w, samples=w.samples[: (k + 2) * 300])
        for k, w in enumerate(synthesize_workload(5, 20.0, seed=22))
    ]
    serial = _serve_serially(workloads, batch=96)
    batched, _ = _serve_batched(workloads, batch=96)
    _assert_credits_identical(batched, serial)


def test_batched_pool_scratch_keys_are_length_free():
    # The measurement and solve kernels pad every cycle of a round into
    # one stack of their own: after a ragged run no scratch key names a
    # length.
    import dataclasses

    workloads = [
        dataclasses.replace(w, samples=w.samples[: (k + 2) * 300])
        for k, w in enumerate(synthesize_workload(5, 20.0, seed=22))
    ]
    _, pool = _serve_batched(workloads, batch=96)
    keys = set(pool._buffers._store)
    assert "segment_pack" in keys  # the pool's round used its scratch
    assert not [key for key in keys if any(ch.isdigit() for ch in key)]


def test_batched_pool_session_joins_mid_round():
    workloads = synthesize_workload(3, 14.0, seed=23)
    late = workloads[2]
    pool = SessionPool(RATE)
    sids = pool.add_sessions([w.profile for w in workloads[:2]])
    acc = {sid: ([], []) for sid in sids}
    batch = 128
    n = workloads[0].samples.shape[0]
    late_sid = None
    for off in range(0, n, batch):
        ids = list(sids)
        data = [w.samples[off : off + batch] for w in workloads[:2]]
        if off >= 512:
            if late_sid is None:
                (late_sid,) = pool.add_sessions([late.profile])
                acc[late_sid] = ([], [])
            ids.append(late_sid)
            data.append(late.samples[off - 512 : off - 512 + batch])
        for sid, (st_, sr) in zip(ids, pool.append(ids, data)):
            acc[sid][0].extend(st_)
            acc[sid][1].extend(sr)
    for sid, (st_, sr) in zip(
        list(sids) + [late_sid], pool.flush(list(sids) + [late_sid])
    ):
        acc[sid][0].extend(st_)
        acc[sid][1].extend(sr)
    # Serial references: the two originals see the full trace, the
    # late joiner sees its suffix-aligned stream.
    refs = _serve_serially(workloads[:2], batch=batch)
    for sid, (steps, strides, _ops) in zip(sids, refs):
        assert [e.index for e in acc[sid][0]] == [e.index for e in steps]
        assert [e.length_m for e in acc[sid][1]] == [
            e.length_m for e in strides
        ]
    sess = StreamingPTrack(RATE, profile=late.profile)
    ref_steps, ref_strides = [], []
    for off in range(0, n - 512, batch):
        st_, sr = sess.append(late.samples[off : off + batch])
        ref_steps.extend(st_)
        ref_strides.extend(sr)
    st_, sr = sess.flush()
    ref_steps.extend(st_)
    ref_strides.extend(sr)
    assert [e.index for e in acc[late_sid][0]] == [e.index for e in ref_steps]
    assert [e.length_m for e in acc[late_sid][1]] == [
        e.length_m for e in ref_strides
    ]


def test_batched_pool_failed_session_excluded_from_pack():
    workloads = synthesize_workload(4, 12.0, seed=24)
    pool = SessionPool(RATE)
    sids = pool.add_sessions([w.profile for w in workloads])
    batch = 128
    # Poison session 1 on the second append with a wrong-dtype batch.
    out = pool.append(sids, [w.samples[:batch] for w in workloads])
    assert all(isinstance(o, tuple) for o in out)
    bad = workloads[1].samples[batch : 2 * batch].astype(np.float32)
    data = [w.samples[batch : 2 * batch] for w in workloads]
    data[1] = bad
    pool.append(sids, data)
    assert sids[1] in pool.failed_sessions
    # The survivors keep crediting bit-identically to serial sessions.
    acc = {sid: ([], []) for sid in sids}
    n = workloads[0].samples.shape[0]
    for off in range(2 * batch, n, batch):
        out = pool.append(sids, [w.samples[off : off + batch] for w in workloads])
        for sid, (st_, sr) in zip(sids, out):
            acc[sid][0].extend(st_)
            acc[sid][1].extend(sr)
    for sid, (st_, sr) in zip(sids, pool.flush(sids)):
        acc[sid][0].extend(st_)
        acc[sid][1].extend(sr)
    assert acc[sids[1]] == ([], [])
    serial = _serve_serially(
        [w for k, w in enumerate(workloads) if k != 1], batch=batch
    )
    for (steps, strides, _), sid in zip(serial, [sids[0], sids[2], sids[3]]):
        # Credits delivered before the poisoning are not in acc; match
        # on the suffix the serial trace credits after that point.
        got = [e.index for e in acc[sid][0]]
        ref = [e.index for e in steps]
        assert got == ref[len(ref) - len(got) :]


def test_batched_pool_isolates_a_segmentation_failure():
    # A finite upload near the float64 limit passes strict ingest, but
    # the low-pass filter overflows it, so the session's segmentation
    # window turns non-finite inside a packed round.
    workloads = synthesize_workload(4, 16.0, seed=26)
    pool = SessionPool(RATE)
    sids = pool.add_sessions([w.profile for w in workloads])
    batch = 100
    acc = {sid: ([], []) for sid in sids}
    n = workloads[0].samples.shape[0]
    for off in range(0, n, batch):
        data = [w.samples[off : off + batch] for w in workloads]
        if off == 6 * batch:
            data[2] = np.full_like(data[2], 1e308)
            assert np.isfinite(data[2]).all()
        for sid, (st_, sr) in zip(sids, pool.append(sids, data)):
            acc[sid][0].extend(st_)
            acc[sid][1].extend(sr)
    for sid, (st_, sr) in zip(sids, pool.flush(sids)):
        acc[sid][0].extend(st_)
        acc[sid][1].extend(sr)
    assert list(pool.failed_sessions) == [sids[2]]
    assert pool.failed_sessions[sids[2]] == (
        "SignalError: vertical contains non-finite values"
    )
    survivors = [0, 1, 3]
    serial = _serve_serially([workloads[k] for k in survivors], batch=batch)
    got = [
        (*acc[sids[k]], pool.session(sids[k]).op_stats.as_dict())
        for k in survivors
    ]
    _assert_credits_identical(got, serial)
    assert all(steps for steps, _, _ in got)


def test_batched_pool_chunk_invariant_credits():
    workloads = synthesize_workload(4, 15.0, seed=25)
    a, _ = _serve_batched(workloads, batch=64)
    b, _ = _serve_batched(workloads, batch=512)
    for (s1, r1, _o1), (s2, r2, _o2) in zip(a, b):
        assert [(e.index, e.time) for e in s1] == [(e.index, e.time) for e in s2]
        assert [(e.time, e.length_m) for e in r1] == [
            (e.time, e.length_m) for e in r2
        ]


def test_batched_pool_filter_stack_cap_keeps_credits(monkeypatch):
    # A cap below the fleet size splits every filter length group into
    # several column-stacked calls (plus a one-block remainder call);
    # filtering is per column, so credits must not move.
    workloads = synthesize_workload(5, 14.0, seed=29)
    serial = _serve_serially(workloads, batch=64)
    monkeypatch.setattr(rounds_module, "FILTER_STACK_BLOCKS", 2)
    capped, _ = _serve_batched(workloads, batch=64)
    _assert_credits_identical(capped, serial)


def test_batched_pool_telemetry_instruments():
    from repro.telemetry.registry import MetricsRegistry

    reg = MetricsRegistry()
    workloads = synthesize_workload(3, 10.0, seed=27)
    pool = SessionPool(RATE, telemetry=reg)
    sids = pool.add_sessions([w.profile for w in workloads])
    for off in range(0, workloads[0].samples.shape[0], 256):
        pool.append(sids, [w.samples[off : off + 256] for w in workloads])
    pool.flush(sids)
    snap = reg.snapshot()
    # The pool publishes its pool series plus one occupancy
    # distribution of its fleet rounds.
    assert snap["counters"]["serving_pool_appends_total"] > 0
    occupancy = snap["histograms"]["serving_batch_round_occupancy"]
    assert occupancy["count"] > 0
    assert occupancy["sum"] >= occupancy["count"]
    assert snap["gauges"]["serving_pool_sessions"] == 3
    assert snap["histograms"]["serving_pool_round_seconds"]["count"] > 0


def test_batched_pool_stage_histograms_count_rounds(monkeypatch):
    # One observation per stage per fleet round, flush rounds included
    # (ragged sessions, so flush chunks drain uneven tails); credits do
    # not depend on whether the clock is read, and with telemetry off
    # it is not read at all.
    import dataclasses

    from repro.telemetry.registry import MetricsRegistry

    workloads = [
        dataclasses.replace(w, samples=w.samples[: (k + 3) * 250])
        for k, w in enumerate(synthesize_workload(4, 12.0, seed=31))
    ]
    reg = MetricsRegistry()
    timed, _ = _serve_batched(workloads, batch=80, telemetry=reg)

    class _NoClock:
        @staticmethod
        def perf_counter():
            raise AssertionError("clock read with telemetry off")

    monkeypatch.setattr(pool_module, "time", _NoClock)
    monkeypatch.setattr(rounds_module, "time", _NoClock)
    untimed, _ = _serve_batched(workloads, batch=80)
    _assert_credits_identical(timed, untimed)
    hists = reg.snapshot()["histograms"]
    rounds = hists["serving_batch_round_occupancy"]["count"]
    assert rounds > 0
    for name in rounds_module.ROUND_STAGES:
        stage = hists[f"serving_batch_stage_{name}_seconds"]
        assert stage["count"] == rounds
        assert stage["sum"] >= 0.0


# ----------------------------------------------------------------------
# Batched end-of-stream flush
# ----------------------------------------------------------------------


def _spy_lowpass(monkeypatch):
    """Record the ``(rows, length)`` shape of every low-pass call of the
    batched round (three rows per block)."""
    shapes = []
    lowpass = rounds_module.lowpass_rows

    def spy(stack, *args, **kwargs):
        shapes.append(stack.shape)
        return lowpass(stack, *args, **kwargs)

    monkeypatch.setattr(rounds_module, "lowpass_rows", spy)
    return shapes


def _credit_key(credits):
    steps, strides = credits
    return (
        [(e.index, e.time, e.gait_type, e.cycle_id) for e in steps],
        [
            (e.time, e.length_m, e.bounce_m, e.gait_type, e.cycle_id)
            for e in strides
        ],
    )


def _ragged_traces(n, duration_s, seed, cut):
    """``n`` walks cut to ``cut(k)`` samples (``None`` = whole walk)."""
    workloads = synthesize_workload(n, duration_s, seed=seed)
    traces = [
        w.samples if cut(k) is None else w.samples[: cut(k)]
        for k, w in enumerate(workloads)
    ]
    return traces, [w.profile for w in workloads]


def _flush_pool(traces, profiles, batch, flush_at=None, extra=None, **kw):
    """Feed ``traces`` lock-step through a pool, then flush.

    ``flush_at`` picks (and orders) the positions flushed; ``extra``
    maps a position to one more batch buffered through the session's
    split-phase ``ingest`` right before the flush (its parked gap-reset
    credits are the flush's to deliver). Returns the pool, its ids and
    the flush output.
    """
    pool = SessionPool(RATE, **kw)
    sids = pool.add_sessions(profiles)
    longest = max(t.shape[0] for t in traces)
    for off in range(0, longest, batch):
        live = [k for k, t in enumerate(traces) if off < t.shape[0]]
        pool.append(
            [sids[k] for k in live],
            [traces[k][off : off + batch] for k in live],
        )
    for k, samples in (extra or {}).items():
        pool.session(sids[k]).ingest(samples)
    positions = range(len(sids)) if flush_at is None else flush_at
    return pool, sids, pool.flush([sids[k] for k in positions])


def _flush_serial(traces, profiles, batch, flush_at=None, extra=None,
                  **kw):
    """The per-session reference of :func:`_flush_pool`."""
    sessions = [StreamingPTrack(RATE, profile=p, **kw) for p in profiles]
    for sess, trace in zip(sessions, traces):
        for off in range(0, trace.shape[0], batch):
            sess.append(trace[off : off + batch])
    for k, samples in (extra or {}).items():
        sessions[k].ingest(samples)
    positions = range(len(sessions)) if flush_at is None else flush_at
    return sessions, [sessions[k].flush() for k in positions]


def _assert_flush_identical(traces, profiles, batch, flush_at=None,
                            extra=None, **kw):
    """SessionPool.flush == per-session flush, in credits and op-stats;
    returns the pool."""
    sessions, ref = _flush_serial(
        traces, profiles, batch, flush_at=flush_at, extra=extra, **kw
    )
    pool, sids, got = _flush_pool(
        traces, profiles, batch, flush_at=flush_at, extra=extra, **kw
    )
    assert not pool.failed_sessions
    assert [_credit_key(c) for c in got] == [_credit_key(c) for c in ref]
    assert [pool.session(sid).op_stats.as_dict() for sid in sids] == [
        s.op_stats.as_dict() for s in sessions
    ]
    return pool, sids, got


def test_batched_flush_ragged_tails_bit_identical(monkeypatch):
    # Ragged lengths put the tails into several final-filter length
    # groups; the last session is added but never fed (head == 0).
    lengths = [1200 + 37 * k for k in range(6)] + [1200, 1200]
    traces, profiles = _ragged_traces(8, 16.0, seed=41,
                                      cut=lambda k: lengths[k])
    traces.append(np.empty((0, 3)))
    profiles.append(profiles[0])
    pool, sids, got = _assert_flush_identical(traces, profiles, batch=96)
    assert got[-1] is NO_CREDITS
    assert pool.session(sids[-1]).op_stats.passes == 0
    # The tail round's own filter calls: equal-length tails stack into
    # one call per length group, several groups.
    shapes = _spy_lowpass(monkeypatch)
    pool, sids, _ = _flush_pool(traces, profiles, 96, flush_at=[])
    shapes.clear()
    pool.flush(sids)
    tail_lengths = [length for _rows, length in shapes]
    assert len(tail_lengths) == len(set(tail_lengths)) >= 3
    assert max(rows for rows, _length in shapes) >= 6


def test_batched_flush_degraded_tails_bit_identical():
    policy = FaultPolicy()
    traces, profiles = _ragged_traces(4, 12.0, seed=42, cut=lambda k: None)
    nan = np.full((3, 3), np.nan)
    # Session 0 ends in a short defect the flush must quarantine;
    # session 1 ends inside an unrecoverable gap.
    traces[0] = np.vstack([traces[0], nan])
    traces[1] = np.vstack([traces[1], np.full((80, 3), np.nan)])
    # Session 2 buffers a gap reset right before the flush, so the
    # credits the reset parked are the flush's to deliver.
    extra = {2: np.vstack([np.full((60, 3), np.nan), traces[3][:200]])}
    pool, sids, got = _assert_flush_identical(
        traces, profiles, batch=128, extra=extra, fault_policy=policy
    )
    ops = [pool.session(sid).op_stats for sid in sids]
    assert ops[0].samples_rejected >= 3
    assert ops[1].gaps_reset >= 1 and ops[2].gaps_reset >= 1
    assert got[2][0]  # the parked pre-gap tail plus the post-gap tail


def test_batched_flush_subset_and_repeated_ids():
    traces, profiles = _ragged_traces(
        5, 12.0, seed=43, cut=lambda k: 900 + 61 * k
    )
    _assert_flush_identical(traces, profiles, batch=128,
                            flush_at=[3, 0, 4, 3])


def test_batched_flush_chunked_sessions(monkeypatch):
    monkeypatch.setattr(pool_module, "FLUSH_STACK_SESSIONS", 2)
    traces, profiles = _ragged_traces(
        5, 12.0, seed=44, cut=lambda k: 1000 + 29 * k
    )
    _assert_flush_identical(traces, profiles, batch=128)


def test_batched_flush_collects_same_observations():
    traces, profiles = _ragged_traces(
        4, 12.0, seed=46, cut=lambda k: 1000 + 53 * k
    )
    sessions, _ref = _flush_serial(traces, profiles, 128,
                                   collect_observations=True)
    pool, sids, _got = _assert_flush_identical(
        traces, profiles, batch=128, collect_observations=True
    )
    drained = pool.take_observations()
    want = [s.take_pending_observations() for s in sessions]
    assert any(want)
    assert [drained.get(sid, []) for sid in sids] == want


TAIL_SENTINEL = 77.25  # finite and under FaultPolicy's saturation rail


def _fail_lowpass_on_sentinel(monkeypatch):
    """Make the batched round's low-pass raise on every stack holding
    :data:`TAIL_SENTINEL`."""
    lowpass = rounds_module.lowpass_rows

    def failing(stack, *args, **kwargs):
        if (stack == TAIL_SENTINEL).any():
            raise FloatingPointError("tail filter blew up")
        return lowpass(stack, *args, **kwargs)

    monkeypatch.setattr(rounds_module, "lowpass_rows", failing)


def test_batched_flush_isolates_failing_tail(monkeypatch):
    policy = FaultPolicy()
    # Sessions 2 and 3 have equal lengths, so their tails share a
    # stacked filter call that must be retried solo to find the owner.
    lengths = [1000, 1031, 1062, 1062, 1124]
    traces, profiles = _ragged_traces(5, 12.0, seed=47,
                                      cut=lambda k: lengths[k])
    sessions, ref = _flush_serial(traces, profiles, 128,
                                  fault_policy=policy)
    # The victim ends on a gap reset (parked credits) and a short
    # post-gap run whose last sample only its tail block reads.
    post_gap = traces[3][:200].copy()
    post_gap[-1] = TAIL_SENTINEL
    extra = {2: np.vstack([np.full((60, 3), np.nan), post_gap])}
    _fail_lowpass_on_sentinel(monkeypatch)
    pool, sids, got = _flush_pool(
        traces, profiles, 128, extra=extra, fault_policy=policy
    )
    assert list(pool.failed_sessions) == [sids[2]]
    assert "tail filter blew up" in pool.failed_sessions[sids[2]]
    # Parked and drained credits are dropped, not half-delivered.
    assert got[2] is NO_CREDITS
    for k in (0, 1, 3, 4):
        assert _credit_key(got[k]) == _credit_key(ref[k])
        assert (
            pool.session(sids[k]).op_stats.as_dict()
            == sessions[k].op_stats.as_dict()
        )
    # Fail-fast pools propagate the kernel's own exception.
    with pytest.raises(FloatingPointError, match="tail filter blew up"):
        _flush_pool(
            traces, profiles, 128, extra=extra, fault_policy=policy,
            isolate_failures=False,
        )


# ----------------------------------------------------------------------
# FleetBatchBuffer
# ----------------------------------------------------------------------


def test_fleet_batch_buffer_growth_and_reuse():
    buf = FleetBatchBuffer()
    a = buf.request("x", 16)
    assert a.shape == (16,) and a.dtype == np.float64
    b = buf.request("x", 8)
    assert b.base is a.base or b.base is a  # same backing storage
    c = buf.request("x", (4, 8))
    assert c.shape == (4, 8)
    big = buf.request("x", 1024)
    assert big.size == 1024
    assert buf.nbytes >= 1024 * 8
    d = buf.request("ints", 10, dtype=np.intp)
    assert d.dtype == np.intp
    buf.clear()
    assert buf.nbytes == 0
