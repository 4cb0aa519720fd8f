"""Arrival-order fuzzing for the ingest gateway.

The gateway's contract: credits are a pure function of each session's
*delivered* sample stream — bit-identical to a serial replay of the
delivered batches in sequence order, for **any** arrival schedule.
Hypothesis drives the schedule space (burst sizes, quiet gaps,
reorderings within a session's window, disconnects, staggered joins)
and every example is checked against the serial oracle; the
differential profiles additionally pin the whole driver stack to one
answer: ``serial == pooled == gateway`` (and ``== sharded`` in the
slow profile). The pool-kill profile extends the contract to
durability: killing the backing pool mid-schedule and adopting one
restored from its ``ptrack-session-v1`` snapshot must leave the
credits equal to the uninterrupted serial replay.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingPTrack
from repro.serving import (
    IngestGateway,
    SessionPool,
    serve_fleet,
    serve_schedule,
    synthesize_arrival_schedule,
    synthesize_workload,
)
from repro.telemetry import MetricsRegistry

RATE = 100.0

fuzz = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
fuzz_heavy = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# One fleet for the whole module: the schedules vary, the walks do not.
_FLEET = synthesize_workload(3, 20.0, seed=2024)
_TRACES = [w.samples for w in _FLEET]
_PROFILES = [w.profile for w in _FLEET]
_LENGTHS = [t.shape[0] for t in _TRACES]


#: A ragged arrival process: every structural knob hypothesis can turn.
schedules = st.builds(
    lambda seed, batch, burst_lo, burst_span, quiet_hi, disc, reorder,
    join: synthesize_arrival_schedule(
        _LENGTHS,
        seed=seed,
        batch_samples=batch,
        burst_batches=(burst_lo, burst_lo + burst_span),
        quiet_ticks=(0, quiet_hi),
        disconnect_prob=disc,
        reorder_prob=reorder,
        join_spread_ticks=join,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    batch=st.integers(min_value=32, max_value=512),
    burst_lo=st.integers(min_value=1, max_value=3),
    burst_span=st.integers(min_value=0, max_value=3),
    quiet_hi=st.integers(min_value=0, max_value=3),
    disc=st.sampled_from([0.0, 0.1]),
    reorder=st.sampled_from([0.0, 0.25]),
    join=st.integers(min_value=0, max_value=5),
)


def _signature(steps, strides):
    return (
        [(e.index, e.time) for e in steps],
        [(e.time, e.length_m) for e in strides],
    )


def _serial(slices_by_session):
    """The oracle: one StreamingPTrack per session, delivered order."""
    out = {}
    for i, slices in slices_by_session.items():
        sess = StreamingPTrack(RATE, profile=_PROFILES[i])
        steps, strides = [], []
        for start, stop in slices:
            st_, sr = sess.append(_TRACES[i][start:stop])
            steps.extend(st_)
            strides.extend(sr)
        st_, sr = sess.flush()
        steps.extend(st_)
        strides.extend(sr)
        out[i] = _signature(steps, strides)
    return out


def _gateway(schedule, pool=None):
    gw = IngestGateway(
        RATE,
        pool=pool,
        reorder_window=max(8, schedule.max_seq_skew),
        telemetry=MetricsRegistry(),
    )
    credits = serve_schedule(gw, schedule, _TRACES, profiles=_PROFILES)
    return gw, {i: _signature(*c) for i, c in credits.items()}


def _pooled(slices_by_session, pool):
    """The delivered streams through a pool, slice per tick."""
    items = sorted(slices_by_session.items())
    sids = {
        i: pool.add_session(_PROFILES[i]) for i, _ in items if _
    }
    acc = {i: ([], []) for i in sids}
    depth = max((len(s) for _, s in items), default=0)
    for k in range(depth):
        live = [i for i, slices in items if k < len(slices)]
        out = pool.append(
            [sids[i] for i in live],
            [
                _TRACES[i][slice(*dict(items)[i][k])]
                for i in live
            ],
        )
        for i, (st_, sr) in zip(live, out):
            acc[i][0].extend(st_)
            acc[i][1].extend(sr)
    for i, (st_, sr) in zip(
        sids, pool.flush([sids[i] for i in sids])
    ):
        acc[i][0].extend(st_)
        acc[i][1].extend(sr)
    return {i: _signature(*c) for i, c in acc.items()}


class TestArrivalOrderInvariance:
    @fuzz_heavy
    @given(schedule=schedules)
    def test_gateway_matches_serial_replay(self, schedule):
        """For any generated schedule: gateway == serial replay,
        nothing shed, everything delivered accounted."""
        gw, credits = _gateway(schedule)
        assert gw.stats.samples_shed == 0
        assert gw.stats.duplicates == 0
        assert gw.stats.samples_ingested == schedule.n_samples
        oracle = _serial(schedule.delivered_slices())
        assert credits == {i: s for i, s in oracle.items() if s != ([], [])}

    @fuzz
    @given(
        window=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_window_bounded_shuffle_is_invisible(self, window, seed):
        """Offering a session's batches in ANY order with seq skew <=
        reorder_window credits identically to in-order arrival."""
        trace = _TRACES[0]
        batches = [
            (k, trace[lo : lo + 256])
            for k, lo in enumerate(range(0, trace.shape[0], 256))
        ]
        # Windowed Fisher-Yates: repeatedly emit one of the first
        # window+1 remaining batches — every arrival is at most
        # `window` slots ahead of the in-order frontier.
        rng = np.random.default_rng(seed)
        remaining = list(batches)
        shuffled = []
        while remaining:
            j = int(rng.integers(0, min(window + 1, len(remaining))))
            shuffled.append(remaining.pop(j))

        def run(order):
            gw = IngestGateway(
                RATE, reorder_window=window, telemetry=MetricsRegistry()
            )
            sid = gw.add_session(_PROFILES[0])
            out = ([], [])
            for seq, batch in order:
                res = gw.offer(sid, batch, seq=seq)
                assert res.ok, res
                for _, (st_, sr) in gw.tick().items():
                    out[0].extend(st_)
                    out[1].extend(sr)
            for _, (st_, sr) in gw.flush().items():
                out[0].extend(st_)
                out[1].extend(sr)
            return _signature(*out)

        assert run(shuffled) == run(batches)

    @fuzz
    @given(schedule=schedules)
    def test_differential_serial_pooled_batched_gateway(self, schedule):
        """serial == pooled == gateway on one schedule."""
        delivered = {
            i: s for i, s in schedule.delivered_slices().items() if s
        }
        oracle = _serial(delivered)
        pooled = _pooled(delivered, SessionPool(RATE))
        assert pooled == oracle
        _, gw_credits = _gateway(schedule)
        nonempty = {i: s for i, s in oracle.items() if s != ([], [])}
        assert gw_credits == nonempty
        _, gw_given = _gateway(schedule, pool=SessionPool(RATE))
        assert gw_given == nonempty

    @fuzz
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        capacity_s=st.sampled_from([2.0, 4.0]),
    )
    def test_shedding_is_deterministic(self, seed, capacity_s):
        """Under pressure, (seed, schedule, capacity) pins both the
        shed accounting and the credits, bit for bit."""
        schedule = synthesize_arrival_schedule(
            _LENGTHS,
            seed=seed,
            batch_samples=128,
            burst_batches=(2, 6),
            quiet_ticks=(0, 1),
        )

        def run():
            gw = IngestGateway(
                RATE, capacity_s=capacity_s, telemetry=MetricsRegistry()
            )
            credits = serve_schedule(
                gw, schedule, _TRACES, profiles=_PROFILES
            )
            return gw.stats.as_dict(), {
                i: _signature(*c) for i, c in credits.items()
            }

        stats_a, credits_a = run()
        stats_b, credits_b = run()
        assert stats_a == stats_b
        assert credits_a == credits_b
        assert (
            stats_a["samples_accepted"] + stats_a["samples_shed"]
            == schedule.n_samples
        )


def _gateway_with_pool_kill(schedule, cut_frac):
    """Replay a schedule tick by tick; partway through, kill the pool
    and adopt one restored from a pickled snapshot.

    The gateway's mailboxes survive the kill, so any samples still
    buffered for reordering at the cut must drain into the restored
    pool on the following ticks — the durability contract for the
    ingest path.
    """
    gw = IngestGateway(
        RATE,
        reorder_window=max(8, schedule.max_seq_skew),
        telemetry=MetricsRegistry(),
    )
    cut = max(1, int(cut_frac * schedule.n_ticks))
    sid_of = {}
    acc = {}
    for tick, events in enumerate(schedule.events):
        if tick == cut:
            blob = pickle.loads(pickle.dumps(gw.pool.snapshot()))
            gw.adopt_pool(SessionPool.from_snapshot(blob))
        for ev in events:
            if ev.session not in sid_of:
                sid_of[ev.session] = gw.add_session(_PROFILES[ev.session])
                acc[ev.session] = ([], [])
            res = gw.offer(
                sid_of[ev.session],
                _TRACES[ev.session][ev.start : ev.stop],
                seq=ev.seq,
            )
            assert res.ok, res
        reverse = {sid: i for i, sid in sid_of.items()}
        for sid, (s, r) in gw.tick().items():
            acc[reverse[sid]][0].extend(s)
            acc[reverse[sid]][1].extend(r)
    reverse = {sid: i for i, sid in sid_of.items()}
    for sid, (s, r) in gw.flush().items():
        acc[reverse[sid]][0].extend(s)
        acc[reverse[sid]][1].extend(r)
    return gw, {i: _signature(*c) for i, c in acc.items()}


class TestPoolKillRestore:
    @fuzz_heavy
    @given(
        schedule=schedules,
        cut_frac=st.sampled_from([0.1, 0.5, 0.9]),
    )
    def test_mid_schedule_pool_kill_matches_serial(self, schedule, cut_frac):
        """For any schedule and kill point: killing the pool mid-stream
        and restoring it from its snapshot leaves the credits equal to
        the uninterrupted serial replay — the mailboxes drain into the
        restored pool with arrival-order invariance intact."""
        gw, credits = _gateway_with_pool_kill(schedule, cut_frac)
        assert gw.stats.samples_shed == 0
        oracle = _serial(schedule.delivered_slices())
        assert credits == {i: s for i, s in oracle.items() if i in credits}
        for i, sig in oracle.items():
            if i not in credits:
                assert sig == ([], [])


@pytest.mark.slow
class TestFullStackDifferential:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(schedule=schedules)
    def test_serial_pooled_sharded_batched_gateway(self, schedule):
        """The full chain, sharded driver included: every driver in the
        repo credits the same delivered streams identically."""
        delivered = {
            i: s for i, s in schedule.delivered_slices().items() if s
        }
        oracle = _serial(delivered)
        pooled = _pooled(delivered, SessionPool(RATE))
        # Sharded: serve_fleet over the delivered streams (contiguous
        # concatenation — chunk-invariance makes the upload cadence
        # irrelevant).
        idx = sorted(delivered)
        report = serve_fleet(
            [
                np.concatenate(
                    [_TRACES[i][a:b] for a, b in delivered[i]], axis=0
                )
                for i in idx
            ],
            RATE,
            profiles=[_PROFILES[i] for i in idx],
            workers=2,
            sessions_per_shard=1,
        )
        sharded = {
            i: _signature(list(s.steps), list(s.strides))
            for i, s in zip(idx, report.sessions)
        }
        _, gateway = _gateway(schedule)
        nonempty = {i: s for i, s in oracle.items() if s != ([], [])}
        assert pooled == oracle
        assert sharded == oracle
        assert gateway == nonempty
