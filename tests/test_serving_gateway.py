"""Tests for repro.serving.gateway: mailboxes, backpressure, scheduling.

The arrival-order *fuzzing* suite (hypothesis strategies over ragged
schedules) lives in ``tests/test_gateway_fuzz.py``; this module covers
the deterministic unit and edge-case behaviour: sequence-ordered
bounded mailboxes, exactly-once shed accounting, failure isolation,
the clock seam, the ragged-schedule generator and the gateway-level
fault injectors.
"""

import numpy as np
import pytest

from repro.core.streaming import StreamingPTrack
from repro.exceptions import ConfigurationError
from repro.faults import (
    MailboxFlood,
    StalledProducer,
    inject_schedule_faults,
)
from repro.runtime import ManualClock
from repro.serving import (
    IngestGateway,
    SessionMailbox,
    SessionPool,
    serve_schedule,
    synthesize_arrival_schedule,
    synthesize_workload,
)
from repro.telemetry import MetricsRegistry

RATE = 100.0


def _batch(n, fill=0.0):
    return np.full((n, 3), fill, dtype=np.float64)


def _signature(steps, strides):
    return (
        [(e.index, e.time) for e in steps],
        [(e.time, e.length_m) for e in strides],
    )


def _serial_replay(samples, slices, profile):
    """The equivalence oracle: one StreamingPTrack fed the delivered
    slices in sequence order."""
    sess = StreamingPTrack(RATE, profile=profile)
    steps, strides = [], []
    for start, stop in slices:
        st, sr = sess.append(samples[start:stop])
        steps.extend(st)
        strides.extend(sr)
    st, sr = sess.flush()
    steps.extend(st)
    strides.extend(sr)
    return steps, strides


@pytest.fixture(scope="module")
def fleet():
    return synthesize_workload(4, 25.0, seed=11)


class TestSessionMailbox:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="capacity_samples"):
            SessionMailbox(0)
        with pytest.raises(ConfigurationError, match="reorder_window"):
            SessionMailbox(10, reorder_window=-1)
        with pytest.raises(ConfigurationError, match="seq"):
            SessionMailbox(10).offer(_batch(1), seq=-1)

    def test_in_order_fifo(self):
        mb = SessionMailbox(100)
        a, b = _batch(10, 1.0), _batch(10, 2.0)
        assert mb.offer(a).ok and mb.offer(b).ok
        assert mb.queued_samples == 20
        out = mb.take_ready()
        assert [o[0, 0] for o in out] == [1.0, 2.0]
        assert mb.queued_samples == 0 and mb.take_ready() == []

    def test_mixed_auto_and_explicit_seq_rejected(self):
        mb = SessionMailbox(100)
        mb.offer(_batch(1), seq=0)
        with pytest.raises(ConfigurationError, match="explicit"):
            mb.offer(_batch(1))

    def test_reorder_held_and_released_in_order(self):
        mb = SessionMailbox(100, reorder_window=2)
        assert mb.offer(_batch(5, 2.0), seq=2).ok
        assert mb.stalled  # held behind missing 0 and 1
        assert mb.take_ready() == []
        assert mb.offer(_batch(5, 0.0), seq=0).ok
        assert mb.offer(_batch(5, 1.0), seq=1).ok
        out = mb.take_ready()
        assert [o[0, 0] for o in out] == [0.0, 1.0, 2.0]
        assert not mb.stalled

    def test_reorder_window_shed(self):
        mb = SessionMailbox(1000, reorder_window=1)
        res = mb.offer(_batch(5), seq=2)  # next=0, window=1 -> too far
        assert res.reason == "reorder_window" and res.shed == 5
        assert mb.shed_batches == 1 and mb.shed_samples == 5

    def test_window_measured_from_frontier(self):
        # An in-order burst may keep running ahead: each arrival only
        # has to stay within window of the furthest accounted slot.
        mb = SessionMailbox(10_000, reorder_window=1)
        for seq in range(6):
            assert mb.offer(_batch(5), seq=seq).ok
        # seq 7 is 1 past the frontier (6): in window even though it is
        # far beyond next_seq + window.
        assert mb.offer(_batch(5), seq=7).ok

    def test_duplicate_detection(self):
        mb = SessionMailbox(100, reorder_window=2)
        mb.offer(_batch(5), seq=0)
        assert mb.offer(_batch(5), seq=0).reason == "duplicate"  # held
        mb.take_ready()
        assert mb.offer(_batch(5), seq=0).reason == "duplicate"  # delivered
        assert mb.duplicates == 2

    def test_capacity_sheds_newest_whole_batch(self):
        mb = SessionMailbox(25)
        assert mb.offer(_batch(20), seq=0).ok
        res = mb.offer(_batch(10), seq=1)
        assert res.reason == "capacity" and res.shed == 10
        # The shed batch is whole: nothing was partially queued.
        assert mb.queued_samples == 20
        # A smaller follow-up still fits.
        assert mb.offer(_batch(5), seq=2).ok

    def test_shed_seq_never_stalls_the_stream(self):
        mb = SessionMailbox(25, reorder_window=4)
        mb.offer(_batch(20), seq=0)
        assert mb.offer(_batch(10), seq=1).reason == "capacity"
        assert len(mb.take_ready()) == 1
        # seq 1 was shed; seq 2 must deliver without waiting for it.
        mb.offer(_batch(10, 2.0), seq=2)
        out = mb.take_ready()
        assert len(out) == 1 and out[0][0, 0] == 2.0
        assert mb.next_seq == 3

    def test_shed_seq_reoffer_is_duplicate(self):
        mb = SessionMailbox(25, reorder_window=4)
        mb.offer(_batch(20), seq=0)
        assert mb.offer(_batch(10), seq=1).reason == "capacity"
        # Retrying the shed seq does not double-count shed samples.
        assert mb.offer(_batch(10), seq=1).reason == "duplicate"
        assert mb.shed_samples == 10 and mb.shed_batches == 1

    def test_drain_skips_gaps_and_counts_them(self):
        mb = SessionMailbox(100, reorder_window=4)
        mb.offer(_batch(5, 0.0), seq=0)
        mb.offer(_batch(5, 3.0), seq=3)  # 1 and 2 never arrive
        out = mb.drain()
        assert [o[0, 0] for o in out] == [0.0, 3.0]
        assert mb.gap_skips == 2
        assert mb.next_seq == 4

    def test_drain_does_not_count_shed_seqs_as_gaps(self):
        mb = SessionMailbox(12, reorder_window=4)
        mb.offer(_batch(10), seq=0)
        assert mb.offer(_batch(10), seq=1).reason == "capacity"
        mb.offer(_batch(2, 2.0), seq=2)
        out = mb.drain()
        assert [o.shape[0] for o in out] == [10, 2]
        assert mb.gap_skips == 0  # seq 1 was shed, not missing

    def test_discard(self):
        mb = SessionMailbox(100, reorder_window=4)
        mb.offer(_batch(5), seq=0)
        mb.offer(_batch(5), seq=2)
        assert mb.discard() == 10
        assert mb.queued_samples == 0 and mb.take_ready() == []
        assert mb.next_seq == 3

    def test_saturation(self):
        mb = SessionMailbox(100)
        assert mb.saturation == 0.0
        mb.offer(_batch(25))
        assert mb.saturation == pytest.approx(0.25)


class TestGatewayConstruction:
    def test_rejects_non_empty_pool(self):
        pool = SessionPool(RATE)
        pool.add_session()
        with pytest.raises(ConfigurationError, match="empty"):
            IngestGateway(RATE, pool=pool)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity_s"):
            IngestGateway(RATE, capacity_s=0.0)

    def test_unknown_session_id(self):
        gw = IngestGateway(RATE, telemetry=MetricsRegistry())
        with pytest.raises(ConfigurationError, match="unknown session"):
            gw.offer(99, _batch(5))


class TestGatewayEquivalence:
    def test_bursty_arrivals_match_serial(self, fleet):
        """Arbitrary per-tick burst sizes: credits == serial replay."""
        gw = IngestGateway(RATE, telemetry=MetricsRegistry())
        sids = [gw.add_session(w.profile) for w in fleet]
        results = {sid: ([], []) for sid in sids}
        offsets = [0] * len(fleet)
        rng = np.random.default_rng(7)
        while any(
            off < w.samples.shape[0] for off, w in zip(offsets, fleet)
        ):
            for k, w in enumerate(fleet):
                n_batches = int(rng.integers(0, 4))
                for _ in range(n_batches):
                    if offsets[k] >= w.samples.shape[0]:
                        break
                    chunk = int(rng.integers(1, 400))
                    gw.offer(
                        sids[k],
                        w.samples[offsets[k] : offsets[k] + chunk],
                    )
                    offsets[k] = min(
                        offsets[k] + chunk, w.samples.shape[0]
                    )
            for sid, (st, sr) in gw.tick().items():
                results[sid][0].extend(st)
                results[sid][1].extend(sr)
        for sid, (st, sr) in gw.flush().items():
            results[sid][0].extend(st)
            results[sid][1].extend(sr)
        for sid, w in zip(sids, fleet):
            serial = _serial_replay(
                w.samples, [(0, w.samples.shape[0])], w.profile
            )
            assert _signature(*results[sid]) == _signature(*serial)
            assert len(serial[0]) > 0

    def test_close_session_returns_all_credits(self, fleet):
        w = fleet[0]
        gw = IngestGateway(RATE, telemetry=MetricsRegistry())
        sid = gw.add_session(w.profile)
        half = w.samples.shape[0] // 2
        gw.offer(sid, w.samples[:half])
        mid = gw.tick().get(sid, ([], []))
        gw.offer(sid, w.samples[half:])
        # No tick between offer and close: close drains the mailbox.
        steps, strides = gw.close_session(sid)
        all_steps = list(mid[0]) + steps
        all_strides = list(mid[1]) + strides
        serial = _serial_replay(
            w.samples, [(0, w.samples.shape[0])], w.profile
        )
        assert _signature(all_steps, all_strides) == _signature(*serial)

    def test_offers_after_close_shed_as_closed(self, fleet):
        gw = IngestGateway(RATE, telemetry=MetricsRegistry())
        sid = gw.add_session(fleet[0].profile)
        gw.close_session(sid)
        res = gw.offer(sid, _batch(50))
        assert res.reason == "closed" and res.shed == 50
        assert gw.stats.shed_closed == 50
        assert gw.close_session(sid) == ([], [])  # idempotent

    def test_join_mid_stream(self, fleet):
        """A session added after others are underway is unaffected."""
        early, late = fleet[0], fleet[1]
        gw = IngestGateway(RATE, telemetry=MetricsRegistry())
        sid_e = gw.add_session(early.profile)
        results = {0: ([], []), 1: ([], [])}
        sid_l = None
        batch = 300
        for i, off in enumerate(range(0, early.samples.shape[0], batch)):
            gw.offer(sid_e, early.samples[off : off + batch])
            if i == 3:
                sid_l = gw.add_session(late.profile)
            if sid_l is not None:
                lo = (i - 3) * batch
                gw.offer(sid_l, late.samples[lo : lo + batch])
            for sid, (st, sr) in gw.tick().items():
                key = 0 if sid == sid_e else 1
                results[key][0].extend(st)
                results[key][1].extend(sr)
        # Feed the late session's remainder.
        off = (i - 2) * batch
        while off < late.samples.shape[0]:
            gw.offer(sid_l, late.samples[off : off + batch])
            off += batch
            for sid, (st, sr) in gw.tick().items():
                key = 0 if sid == sid_e else 1
                results[key][0].extend(st)
                results[key][1].extend(sr)
        for sid, (st, sr) in gw.flush().items():
            key = 0 if sid == sid_e else 1
            results[key][0].extend(st)
            results[key][1].extend(sr)
        for key, w in ((0, early), (1, late)):
            serial = _serial_replay(
                w.samples, [(0, w.samples.shape[0])], w.profile
            )
            assert _signature(*results[key]) == _signature(*serial)


class TestBackpressureEdgeCases:
    def test_shedding_deterministic_under_seed_and_schedule(self, fleet):
        """Same (seed, schedule, capacity) -> bit-identical shed set."""
        lengths = [w.samples.shape[0] for w in fleet]
        schedule = synthesize_arrival_schedule(
            lengths,
            seed=5,
            batch_samples=100,
            burst_batches=(2, 5),
            quiet_ticks=(0, 1),
        )

        def run():
            gw = IngestGateway(
                RATE, capacity_s=3.0, telemetry=MetricsRegistry()
            )
            credits = serve_schedule(
                gw,
                schedule,
                [w.samples for w in fleet],
                profiles=[w.profile for w in fleet],
            )
            return gw.stats.as_dict(), {
                k: _signature(*v) for k, v in credits.items()
            }

        stats_a, credits_a = run()
        stats_b, credits_b = run()
        assert stats_a["samples_shed"] > 0
        assert stats_a == stats_b
        assert credits_a == credits_b

    def test_shed_counted_exactly_once(self, fleet):
        """stats, telemetry and the conservation law all agree."""
        reg = MetricsRegistry()
        lengths = [w.samples.shape[0] for w in fleet]
        schedule = synthesize_arrival_schedule(
            lengths,
            seed=5,
            batch_samples=100,
            burst_batches=(2, 5),
            quiet_ticks=(0, 1),
        )
        gw = IngestGateway(RATE, capacity_s=3.0, telemetry=reg)
        serve_schedule(
            gw,
            schedule,
            [w.samples for w in fleet],
            profiles=[w.profile for w in fleet],
        )
        s = gw.stats
        assert s.samples_shed > 0
        # Per-reason split partitions the shed total.
        assert (
            s.samples_shed
            == s.shed_capacity + s.shed_reorder + s.shed_closed
        )
        # Every offered sample was either accepted or shed (no
        # duplicates in this schedule), and every accepted sample was
        # ingested (nothing lost inside the gateway).
        assert s.samples_accepted + s.samples_shed == schedule.n_samples
        assert s.samples_ingested == s.samples_accepted
        # Telemetry mirrors the stats exactly: one inc per event.
        assert reg.counter(
            "serving_gateway_samples_shed_total"
        ).value == s.samples_shed
        assert reg.counter(
            "serving_gateway_batches_shed_total"
        ).value == s.batches_shed
        assert reg.counter(
            "serving_gateway_samples_accepted_total"
        ).value == s.samples_accepted
        assert reg.counter(
            "serving_gateway_samples_ingested_total"
        ).value == s.samples_ingested
        assert reg.counter(
            "serving_gateway_offers_total"
        ).value == s.offers == schedule.n_events

    def test_failed_session_mailbox_drains_without_blocking(self, fleet):
        """A poisoned stream is discarded; round-mates keep crediting."""
        reg = MetricsRegistry()
        gw = IngestGateway(RATE, telemetry=reg)
        good, bad = fleet[0], fleet[1]
        sid_g = gw.add_session(good.profile)
        sid_b = gw.add_session(bad.profile)
        batch = 200
        results = ([], [])
        for i, off in enumerate(range(0, good.samples.shape[0], batch)):
            gw.offer(sid_g, good.samples[off : off + batch])
            if i == 2:
                gw.offer(sid_b, np.full((batch, 3), np.nan))
            else:
                gw.offer(sid_b, bad.samples[off : off + batch])
            for sid, (st, sr) in gw.tick().items():
                if sid == sid_g:
                    results[0].extend(st)
                    results[1].extend(sr)
        for sid, (st, sr) in gw.flush().items():
            if sid == sid_g:
                results[0].extend(st)
                results[1].extend(sr)
        assert gw.pool.session_status(sid_b) == "failed"
        # Offers kept landing after the failure; their samples were
        # dropped with explicit accounting, not silently queued forever.
        assert gw.stats.failed_drops > 0
        assert (
            reg.counter("serving_gateway_failed_drops_total").value
            == gw.stats.failed_drops
        )
        assert gw.mailbox(sid_b).queued_samples == 0
        # The healthy round-mate is bit-identical to its solo run.
        serial = _serial_replay(
            good.samples, [(0, good.samples.shape[0])], good.profile
        )
        assert _signature(*results) == _signature(*serial)

    def test_saturation_and_depth_gauges(self):
        reg = MetricsRegistry()
        gw = IngestGateway(RATE, capacity_s=1.0, telemetry=reg)
        gw.add_session()
        sid = gw.session_ids[0]
        gw.offer(sid, _batch(50), seq=1)  # held behind missing seq 0
        assert gw.queue_depth_samples == 50
        assert gw.saturation == pytest.approx(0.5)
        gw.tick()  # publishes gauges; seq 0 still missing -> stalled
        assert reg.gauge(
            "serving_gateway_queue_depth_samples"
        ).value == 50
        assert reg.gauge(
            "serving_gateway_saturation"
        ).value == pytest.approx(0.5)
        assert reg.gauge("serving_gateway_stalled_sessions").value == 1


class TestClockSeam:
    def test_manual_clock_drives_tick_latency(self):
        reg = MetricsRegistry()
        clock = ManualClock(auto_step=0.25)
        gw = IngestGateway(RATE, clock=clock, telemetry=reg)
        gw.add_session()
        gw.tick()
        hist = reg.histogram("serving_gateway_tick_seconds")
        assert hist.count == 1
        # Two clock reads per tick, auto_step 0.25 -> observed 0.25.
        assert hist.sum == pytest.approx(0.25)

    def test_credits_do_not_depend_on_clock(self, fleet):
        w = fleet[0]

        def run(clock):
            gw = IngestGateway(
                RATE, clock=clock, telemetry=MetricsRegistry()
            )
            sid = gw.add_session(w.profile)
            out = ([], [])
            for off in range(0, w.samples.shape[0], 250):
                gw.offer(sid, w.samples[off : off + 250])
                for _, (st, sr) in gw.tick().items():
                    out[0].extend(st)
                    out[1].extend(sr)
            for _, (st, sr) in gw.flush().items():
                out[0].extend(st)
                out[1].extend(sr)
            return _signature(*out)

        assert run(ManualClock()) == run(ManualClock(auto_step=123.0))


class TestArrivalScheduleGenerator:
    LENGTHS = [2500, 1800, 3200]

    def test_deterministic_under_seed(self):
        a = synthesize_arrival_schedule(
            self.LENGTHS, seed=9, reorder_prob=0.3, disconnect_prob=0.1,
            join_spread_ticks=4,
        )
        b = synthesize_arrival_schedule(
            self.LENGTHS, seed=9, reorder_prob=0.3, disconnect_prob=0.1,
            join_spread_ticks=4,
        )
        assert a == b

    def test_seed_changes_schedule(self):
        a = synthesize_arrival_schedule(self.LENGTHS, seed=9)
        b = synthesize_arrival_schedule(self.LENGTHS, seed=10)
        assert a != b

    def test_sessions_independent_of_fleet_size(self):
        """Session i's traffic is a pure function of (seed, i)."""
        small = synthesize_arrival_schedule(self.LENGTHS[:2], seed=9)
        large = synthesize_arrival_schedule(self.LENGTHS, seed=9)

        def per_session(schedule, i):
            return [
                (t, ev.seq, ev.start, ev.stop)
                for t, tick in enumerate(schedule.events)
                for ev in tick
                if ev.session == i
            ]

        for i in range(2):
            assert per_session(small, i) == per_session(large, i)

    def test_full_delivery_without_faults(self):
        sched = synthesize_arrival_schedule(self.LENGTHS, seed=3)
        assert sched.n_samples == sum(self.LENGTHS)
        assert sched.max_seq_skew == 0
        assert sched.disconnected == ()
        for i, slices in sched.delivered_slices().items():
            assert slices[0][0] == 0
            assert slices[-1][1] == self.LENGTHS[i]
            assert all(
                a[1] == b[0] for a, b in zip(slices, slices[1:])
            )

    def test_disconnect_truncates_tail(self):
        sched = synthesize_arrival_schedule(
            self.LENGTHS, seed=4, disconnect_prob=0.5
        )
        assert sched.disconnected  # at prob 0.5 someone drops
        assert sched.n_samples < sum(self.LENGTHS)
        delivered = sched.delivered_slices()
        for i in sched.disconnected:
            # A session may disconnect before its first upload, in
            # which case it has no delivered slices at all.
            slices = delivered.get(i, [])
            assert not slices or slices[-1][1] < self.LENGTHS[i]

    def test_reorder_reports_skew(self):
        sched = synthesize_arrival_schedule(
            self.LENGTHS, seed=6, reorder_prob=0.5
        )
        assert sched.max_seq_skew > 0
        # Reordering delays batches, it never drops them.
        assert sched.n_samples == sum(self.LENGTHS)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="batch_samples"):
            synthesize_arrival_schedule([100], batch_samples=0)
        with pytest.raises(ConfigurationError, match="burst_batches"):
            synthesize_arrival_schedule([100], burst_batches=(3, 2))
        with pytest.raises(ConfigurationError, match="quiet_ticks"):
            synthesize_arrival_schedule([100], quiet_ticks=(-1, 2))
        with pytest.raises(ConfigurationError, match="disconnect_prob"):
            synthesize_arrival_schedule([100], disconnect_prob=1.5)
        with pytest.raises(ConfigurationError, match="reorder_prob"):
            synthesize_arrival_schedule([100], reorder_prob=-0.1)
        with pytest.raises(ConfigurationError, match="join_spread"):
            synthesize_arrival_schedule([100], join_spread_ticks=-1)


class TestScheduleFaultInjectors:
    LENGTHS = [2000, 2000]
    INJECTORS = [
        StalledProducer(stall_prob=0.4, stall_ticks=4),
        MailboxFlood(flood_prob=0.4, flood_span=6),
    ]

    def _schedule(self):
        return synthesize_arrival_schedule(
            self.LENGTHS, seed=2, batch_samples=128, quiet_ticks=(0, 2)
        )

    def test_deterministic_and_seed_sensitive(self):
        sched = self._schedule()
        a = inject_schedule_faults(sched, self.INJECTORS, seed=1)
        b = inject_schedule_faults(sched, self.INJECTORS, seed=1)
        c = inject_schedule_faults(sched, self.INJECTORS, seed=2)
        assert a == b
        assert a != c

    def test_events_retimed_never_dropped_or_altered(self):
        sched = self._schedule()
        faulted = inject_schedule_faults(sched, self.INJECTORS, seed=1)
        key = lambda s: sorted(
            (e.session, e.seq, e.start, e.stop)
            for tick in s.events
            for e in tick
        )
        assert key(faulted) == key(sched)
        assert faulted.delivered_slices() == sched.delivered_slices()
        assert faulted != sched  # ...but the timing did change

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="stall_prob"):
            StalledProducer(stall_prob=1.5)
        with pytest.raises(ConfigurationError, match="stall_ticks"):
            StalledProducer(stall_ticks=0)
        with pytest.raises(ConfigurationError, match="flood_prob"):
            MailboxFlood(flood_prob=-0.1)
        with pytest.raises(ConfigurationError, match="flood_span"):
            MailboxFlood(flood_span=0)

    def test_flood_overflows_small_mailboxes_deterministically(
        self, fleet
    ):
        lengths = [w.samples.shape[0] for w in fleet]
        sched = synthesize_arrival_schedule(
            lengths, seed=2, batch_samples=128, quiet_ticks=(1, 3)
        )
        faulted = inject_schedule_faults(
            sched, [MailboxFlood(flood_prob=0.5, flood_span=8)], seed=3
        )

        def run():
            gw = IngestGateway(
                RATE, capacity_s=3.0, telemetry=MetricsRegistry()
            )
            serve_schedule(
                gw,
                faulted,
                [w.samples for w in fleet],
                profiles=[w.profile for w in fleet],
            )
            return gw.stats.as_dict()

        stats = run()
        assert stats["samples_shed"] > 0
        assert stats == run()

    def test_gateway_equivalent_under_faulted_schedule(self, fleet):
        """Re-timing alone (ample capacity) never changes credits."""
        lengths = [w.samples.shape[0] for w in fleet]
        sched = synthesize_arrival_schedule(
            lengths, seed=2, batch_samples=128, reorder_prob=0.2,
            join_spread_ticks=4,
        )
        faulted = inject_schedule_faults(sched, self.INJECTORS, seed=3)
        gw = IngestGateway(
            RATE,
            reorder_window=max(8, faulted.max_seq_skew),
            telemetry=MetricsRegistry(),
        )
        credits = serve_schedule(
            gw,
            faulted,
            [w.samples for w in fleet],
            profiles=[w.profile for w in fleet],
        )
        assert gw.stats.samples_shed == 0
        for i, slices in faulted.delivered_slices().items():
            serial = _serial_replay(
                fleet[i].samples, slices, fleet[i].profile
            )
            assert _signature(*credits[i]) == _signature(*serial)


class TestBatchedBackend:
    def test_gateway_over_batched_pool_identical(self, fleet):
        """A gateway over a caller-built SessionPool credits every
        session exactly as its serial replay on a ragged schedule."""
        lengths = [w.samples.shape[0] for w in fleet]
        schedule = synthesize_arrival_schedule(
            lengths, seed=8, batch_samples=200, reorder_prob=0.2,
            disconnect_prob=0.1, join_spread_ticks=3,
        )

        gw = IngestGateway(
            RATE, pool=SessionPool(RATE), telemetry=MetricsRegistry()
        )
        credits = serve_schedule(
            gw,
            schedule,
            [w.samples for w in fleet],
            profiles=[w.profile for w in fleet],
        )
        got = {k: _signature(*v) for k, v in credits.items()}
        for i, slices in schedule.delivered_slices().items():
            serial = _serial_replay(
                fleet[i].samples, slices, fleet[i].profile
            )
            assert got[i] == _signature(*serial)
        assert any(sig[0] for sig in got.values())
