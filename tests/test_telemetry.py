"""Tests for repro.telemetry and the instrumented stack layers.

Covers the registry/tracing/exporter units, the enable/disable gate,
bit-identical disabled-path streaming, counter agreement with the
sessions' own op-stats ledgers, cross-process fleet merging, the
driver-independence of counter totals (serial == pooled == sharded),
and the CLI/reporting surfaces.
"""

import json

import numpy as np
import pytest

from repro.core.streaming import StreamingOpStats, StreamingPTrack
from repro.eval.reporting import fleet_health_table
from repro.exceptions import ConfigurationError
from repro.runtime.cache import TraceCache
from repro.runtime.parallel import parallel_map, parallel_map_outcomes
from repro.serving import BatchedSessionPool, IngestGateway, RebalancePolicy
from repro.serving import fleet as fleet_mod
from repro.serving.fleet import serve_fleet
from repro.serving.pool import ROUND_STAGES, SessionPool
from repro.serving.workload import synthesize_workload
from repro.telemetry import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    SpanBuffer,
    disable,
    enable,
    from_json,
    get_registry,
    merge_snapshots,
    to_json,
    to_prometheus,
    trace_span,
)

RATE_HZ = 100.0
CADENCE = 50


@pytest.fixture(autouse=True)
def _closed_gate():
    """Every test starts and ends with the process gate closed."""
    disable()
    yield
    disable()


# ----------------------------------------------------------------------
# Registry units
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(2.0)
        g.inc(1.5)
        g.dec(0.5)
        assert g.value == pytest.approx(3.0)

    def test_histogram_buckets_and_quantile(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0, 10.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(16.6)
        # q=0.5 lands in the (1, 2] bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c_total") is reg.counter("c_total")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("name_total")
        with pytest.raises(ConfigurationError):
            reg.gauge("name_total")
        with pytest.raises(ConfigurationError):
            reg.histogram("name_total")

    def test_histogram_layout_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_non_increasing_buckets_raise(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))


class TestSnapshotAndMerge:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(4)
        reg.gauge("g").set(2.5)
        h = reg.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        return reg

    def test_snapshot_schema_and_shape(self):
        snap = self._populated().snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert set(snap) == {"schema", "counters", "gauges", "histograms"}
        hist = snap["histograms"]["h"]
        assert len(hist["counts"]) == len(hist["buckets"]) + 1
        assert hist["count"] == 2

    def test_snapshot_json_round_trip_stable_keys(self):
        snap = self._populated().snapshot()
        rt = json.loads(json.dumps(snap))
        assert rt == snap
        assert set(rt) == set(snap)
        assert set(rt["histograms"]["h"]) == set(snap["histograms"]["h"])

    def test_merge_counters_and_histograms_add_gauges_max(self):
        a = self._populated().snapshot()
        b = self._populated().snapshot()
        b["gauges"]["g"] = 1.0
        merged = merge_snapshots([a, b])
        assert merged["counters"]["c_total"] == 8
        assert merged["gauges"]["g"] == 2.5
        assert merged["histograms"]["h"]["count"] == 4

    def test_merge_is_order_independent(self):
        a = self._populated().snapshot()
        b = MetricsRegistry()
        b.counter("other_total").inc(7)
        b = b.snapshot()
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    def test_merge_layout_mismatch_raises(self):
        a = self._populated().snapshot()
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(9.0,)).observe(1.0)
        with pytest.raises(ConfigurationError):
            merge_snapshots([a, reg.snapshot()])

    def test_registry_merge_accumulates_into_live_instruments(self):
        reg = self._populated()
        reg.merge(self._populated().snapshot())
        assert reg.counter("c_total").value == 8


class TestGate:
    def test_enable_disable(self):
        assert get_registry() is None
        reg = enable()
        assert get_registry() is reg
        disable()
        assert get_registry() is None

    def test_enable_with_explicit_registry(self):
        mine = MetricsRegistry()
        assert enable(mine) is mine
        assert get_registry() is mine


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_nesting_records_parent_and_depth(self):
        buf = SpanBuffer()
        with trace_span("outer", buffer=buf):
            with trace_span("inner", buffer=buf):
                pass
        spans = buf.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert spans[0].parent == "outer"
        assert spans[0].depth == 1
        assert spans[1].parent is None
        assert spans[1].depth == 0
        assert all(s.duration_s >= 0 for s in spans)

    def test_ring_is_bounded(self):
        buf = SpanBuffer(capacity=3)
        for i in range(10):
            with trace_span(f"s{i}", buffer=buf):
                pass
        assert len(buf) == 3
        assert [s.name for s in buf.spans()] == ["s7", "s8", "s9"]

    def test_error_captured(self):
        buf = SpanBuffer()
        with pytest.raises(ValueError):
            with trace_span("boom", buffer=buf):
                raise ValueError("x")
        (span,) = buf.spans()
        assert span.error == "ValueError"

    def test_disabled_gate_records_nothing(self):
        from repro.telemetry import get_span_buffer

        before = len(get_span_buffer())
        with trace_span("silent"):
            pass
        assert len(get_span_buffer()) == before

    def test_explicit_buffer_survives_reuse(self):
        buf = SpanBuffer()
        span = trace_span("again", buffer=buf)
        with span:
            pass
        with span:
            pass
        assert len(buf) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SpanBuffer(capacity=0)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total").inc(3)
        reg.gauge("depth").set(1.5)
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        return reg.snapshot()

    def test_json_round_trip(self):
        snap = self._snapshot()
        assert from_json(to_json(snap)) == snap

    def test_from_json_rejects_foreign_payload(self):
        with pytest.raises(ConfigurationError):
            from_json(json.dumps({"not": "a snapshot"}))

    def test_prometheus_counter_and_gauge_lines(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3" in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text

    def test_prometheus_histogram_is_cumulative(self):
        text = to_prometheus(self._snapshot())
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text or (
            'lat_seconds_bucket{le="1.0"} 2' in text
        )
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text

    def test_prometheus_rejects_invalid_names(self):
        reg = MetricsRegistry()
        reg.counter("bad-name_total").inc()
        with pytest.raises(ConfigurationError):
            to_prometheus(reg.snapshot())


# ----------------------------------------------------------------------
# Instrumented streaming core
# ----------------------------------------------------------------------
def _drive(session, data):
    steps, strides = [], []
    for i in range(0, data.shape[0], CADENCE):
        st, sr = session.append(data[i : i + CADENCE])
        steps += st
        strides += sr
    st, sr = session.flush()
    steps += st
    strides += sr
    return steps, strides


class TestStreamingInstrumentation:
    @pytest.fixture(scope="class")
    def workload(self):
        (w,) = synthesize_workload(1, 20.0, seed=11)
        return w

    def test_disabled_path_bit_identical(self, workload):
        plain = _drive(
            StreamingPTrack(RATE_HZ, profile=workload.profile),
            workload.samples,
        )
        reg = MetricsRegistry()
        instr = _drive(
            StreamingPTrack(
                RATE_HZ, profile=workload.profile, telemetry=reg
            ),
            workload.samples,
        )
        assert [(e.index, e.time) for e in plain[0]] == [
            (e.index, e.time) for e in instr[0]
        ]
        assert [(s.time, s.length_m) for s in plain[1]] == [
            (s.time, s.length_m) for s in instr[1]
        ]

    def test_counters_match_op_stats_and_credits(self, workload):
        reg = MetricsRegistry()
        sess = StreamingPTrack(
            RATE_HZ, profile=workload.profile, telemetry=reg
        )
        steps, strides = _drive(sess, workload.samples)
        counters = reg.snapshot()["counters"]
        assert counters["ptrack_steps_credited_total"] == len(steps)
        assert counters["ptrack_strides_credited_total"] == len(strides)
        assert counters["ptrack_distance_m_total"] == pytest.approx(
            sum(s.length_m for s in strides)
        )
        for field, value in sess.op_stats.as_dict().items():
            assert counters[f"ptrack_{field}_total"] == value

    def test_append_latency_histogram_observes_each_append(self, workload):
        reg = MetricsRegistry()
        sess = StreamingPTrack(
            RATE_HZ, profile=workload.profile, telemetry=reg
        )
        n_appends = 0
        for i in range(0, workload.samples.shape[0], CADENCE):
            sess.append(workload.samples[i : i + CADENCE])
            n_appends += 1
        hist = reg.snapshot()["histograms"]["ptrack_append_seconds"]
        assert hist["count"] == n_appends

    def test_reset_keeps_registry_monotonic(self, workload):
        reg = MetricsRegistry()
        sess = StreamingPTrack(
            RATE_HZ, profile=workload.profile, telemetry=reg
        )
        _drive(sess, workload.samples)
        first = reg.snapshot()["counters"]["ptrack_samples_in_total"]
        sess.reset()
        _drive(sess, workload.samples)
        second = reg.snapshot()["counters"]["ptrack_samples_in_total"]
        assert second == 2 * first

    def test_op_stats_as_dict_json_round_trip(self, workload):
        sess = StreamingPTrack(RATE_HZ, profile=workload.profile)
        _drive(sess, workload.samples)
        d = sess.op_stats.as_dict()
        rt = json.loads(json.dumps(d))
        assert rt == d
        assert set(rt) == set(StreamingOpStats().as_dict())


# ----------------------------------------------------------------------
# Pool / fleet instrumentation
# ----------------------------------------------------------------------
class TestPoolInstrumentation:
    def test_failed_and_revived_counters(self):
        reg = MetricsRegistry()
        pool = SessionPool(RATE_HZ, telemetry=reg)
        sid = pool.add_session()
        bad = np.full((40, 3), np.nan)
        pool.append([sid], [bad])
        assert pool.session_status(sid) == "failed"
        pool.revive_session(sid)
        counters = reg.snapshot()["counters"]
        assert counters["serving_sessions_failed_total"] == 1
        assert counters["serving_sessions_revived_total"] == 1
        assert reg.snapshot()["gauges"]["serving_pool_sessions"] == 1

    def test_appends_counter_counts_session_batches(self):
        reg = MetricsRegistry()
        pool = SessionPool(RATE_HZ, telemetry=reg)
        sids = pool.add_sessions([None, None, None])
        batch = np.zeros((CADENCE, 3))
        batch[:, 2] = 9.81
        pool.append(sids, [batch] * 3)
        pool.append(sids[:2], [batch] * 2)
        counters = reg.snapshot()["counters"]
        assert counters["serving_pool_appends_total"] == 5
        hist = reg.snapshot()["histograms"]["serving_pool_round_seconds"]
        assert hist["count"] == 2


    # The one pool, under its name and its former alias.
    @pytest.mark.parametrize(
        "pool_cls",
        [SessionPool, BatchedSessionPool],
        ids=["SessionPool", "BatchedSessionPool"],
    )
    def test_flush_histogram_leaves_append_series_alone(self, pool_cls):
        # Flush time gets its own histogram; the append-only series the
        # rebalancer and the traced split read must not move.
        workloads = synthesize_workload(3, 12.0, seed=8)
        reg = MetricsRegistry()
        pool = pool_cls(RATE_HZ, telemetry=reg)
        sids = pool.add_sessions([w.profile for w in workloads])
        n = max(w.samples.shape[0] for w in workloads)
        for i in range(0, n, 256):
            pool.append(sids, [w.samples[i : i + 256] for w in workloads])
        before = reg.snapshot()
        pool.flush(sids)
        pool.flush(sids[:1])
        after = reg.snapshot()
        assert before["histograms"]["serving_pool_flush_seconds"]["count"] == 0
        flush_s = after["histograms"]["serving_pool_flush_seconds"]
        assert flush_s["count"] == 2 and flush_s["sum"] > 0
        assert (
            after["histograms"]["serving_pool_round_seconds"]
            == before["histograms"]["serving_pool_round_seconds"]
        )
        assert (
            after["counters"]["serving_pool_appends_total"]
            == before["counters"]["serving_pool_appends_total"]
        )
        # The flush publishes every session's op-stats in full.
        totals = {
            f"ptrack_{field}_total": sum(
                getattr(pool.session(sid).op_stats, field) for sid in sids
            )
            for field in StreamingOpStats().as_dict()
        }
        assert {k: after["counters"][k] for k in totals} == totals

    def test_batched_flush_keeps_counter_totals(self):
        # The batched tail round leaves every ptrack counter total — the
        # shard-invariant series — where serial sessions' own flushes
        # put them.
        workloads = synthesize_workload(4, 12.0, seed=9)
        serial_reg = MetricsRegistry()
        for w in workloads:
            _drive(
                StreamingPTrack(
                    RATE_HZ, profile=w.profile, telemetry=serial_reg
                ),
                w.samples,
            )
        reg = MetricsRegistry()
        pool = SessionPool(RATE_HZ, telemetry=reg)
        sids = pool.add_sessions([w.profile for w in workloads])
        n = max(w.samples.shape[0] for w in workloads)
        for i in range(0, n, CADENCE):
            pool.append(
                sids, [w.samples[i : i + CADENCE] for w in workloads]
            )
        pool.flush(sids)
        serial, pooled = (
            {
                k: v
                for k, v in r.snapshot()["counters"].items()
                if k.startswith("ptrack_")
            }
            for r in (serial_reg, reg)
        )
        dist = "ptrack_distance_m_total"
        assert pooled.pop(dist) == pytest.approx(serial.pop(dist), rel=1e-12)
        assert serial and pooled == serial

    def test_every_pool_reports_its_stages(self):
        # A plain pool and the pool a default gateway builds both run
        # the packed round, so both publish its occupancy and the six
        # stage histograms, one observation per round.
        workloads = synthesize_workload(2, 8.0, seed=10)
        pool_reg = MetricsRegistry()
        pool = SessionPool(RATE_HZ, telemetry=pool_reg)
        sids = pool.add_sessions([w.profile for w in workloads])
        gw_reg = MetricsRegistry()
        gw = IngestGateway(RATE_HZ, telemetry=gw_reg)
        gw_sids = [gw.add_session(w.profile) for w in workloads]
        n = max(w.samples.shape[0] for w in workloads)
        for i in range(0, n, CADENCE):
            batches = [w.samples[i : i + CADENCE] for w in workloads]
            pool.append(sids, batches)
            for sid, batch in zip(gw_sids, batches):
                gw.offer(sid, batch)
            gw.tick()
        pool.flush()
        gw.flush()
        for reg in (pool_reg, gw_reg):
            hists = reg.snapshot()["histograms"]
            rounds = hists["serving_batch_round_occupancy"]["count"]
            assert rounds > 0
            for name in ROUND_STAGES:
                assert hists[f"serving_batch_stage_{name}_seconds"][
                    "count"
                ] == rounds


class TestFleetTelemetry:
    @pytest.fixture(scope="class")
    def fleet(self):
        workloads = synthesize_workload(4, 15.0, seed=3)
        return (
            [w.samples for w in workloads],
            [w.profile for w in workloads],
        )

    def test_disabled_returns_none(self, fleet):
        traces, profiles = fleet
        report = serve_fleet(traces, RATE_HZ, profiles=profiles, workers=1)
        assert report.telemetry is None

    def test_merged_snapshot_totals(self, fleet):
        traces, profiles = fleet
        report = serve_fleet(
            traces,
            RATE_HZ,
            profiles=profiles,
            sessions_per_shard=2,
            workers=1,
            telemetry=True,
        )
        snap = report.telemetry
        assert snap is not None and snap["schema"] == SNAPSHOT_SCHEMA
        counters = snap["counters"]
        assert (
            counters["ptrack_steps_credited_total"] == report.total_steps
        )
        assert snap["gauges"]["serving_fleet_sessions"] == len(traces)

    def test_counter_totals_shard_and_worker_invariant(self, fleet):
        traces, profiles = fleet
        kwargs = dict(profiles=profiles, telemetry=True)
        single = serve_fleet(traces, RATE_HZ, workers=1, **kwargs)
        sharded = serve_fleet(
            traces, RATE_HZ, sessions_per_shard=2, workers=1, **kwargs
        )
        parallel = serve_fleet(
            traces, RATE_HZ, sessions_per_shard=2, workers=2, **kwargs
        )
        base = dict(single.telemetry["counters"])
        dist = base.pop("ptrack_distance_m_total")
        for report in (sharded, parallel):
            counters = dict(report.telemetry["counters"])
            assert counters.pop("ptrack_distance_m_total") == pytest.approx(
                dist, rel=1e-12
            )
            assert counters == base

    @pytest.mark.parametrize("workers", [1, 2])
    def test_epochs_leave_the_fleet_totals_alone(
        self, fleet, workers, monkeypatch
    ):
        # Each epoch reports its own work only, whether its shard pool
        # lives on in-process or is rebuilt from the snapshot in a
        # worker: counters and histogram counts add up to what one
        # epoch covering the whole stream reports.
        traces, profiles = fleet
        epoch_counts = []
        real = fleet_mod._serve_shard_epoch

        def recording(job):
            res = real(job)
            epoch_counts.append(res["round_seconds_count"])
            return res

        if workers == 1:
            monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", recording)
        kwargs = dict(
            profiles=profiles,
            sessions_per_shard=2,
            workers=workers,
            telemetry=True,
        )
        whole = serve_fleet(traces, RATE_HZ, **kwargs).telemetry
        epoch_counts.clear()
        stats = []

        class Recording(RebalancePolicy):
            def plan(self, epoch_stats):
                stats.extend(epoch_stats)
                return []

        durable = serve_fleet(
            traces,
            RATE_HZ,
            checkpoint_every_s=1.5,
            rebalance=Recording(),
            **kwargs,
        ).telemetry

        def totals(snap):
            counters = dict(snap["counters"])
            distance = counters.pop("ptrack_distance_m_total")
            hists = {
                name: h["count"] for name, h in snap["histograms"].items()
            }
            occupancy = snap["histograms"]["serving_batch_round_occupancy"]
            return distance, (counters, hists, occupancy, snap["gauges"])

        distance, rest = totals(durable)
        assert rest == totals(whole)[1]
        assert distance == pytest.approx(totals(whole)[0], rel=1e-12)
        rounds = durable["histograms"]["serving_pool_round_seconds"]["count"]
        # 1.5 s epochs of 0.5 s uploads: three rounds per shard epoch.
        assert stats and all(0 < s.round_seconds_count <= 3 for s in stats)
        if workers == 1:
            assert len(epoch_counts) > len(stats)
            assert sum(epoch_counts) == rounds

    def test_empty_fleet_yields_empty_snapshot(self):
        report = serve_fleet([], RATE_HZ, telemetry=True)
        assert report.telemetry is not None
        assert report.telemetry["counters"] == {}


class TestDriverIndependence:
    """Satellite: serial == pooled == sharded counter totals."""

    def test_ptrack_counter_totals_identical_across_drivers(self):
        workloads = synthesize_workload(3, 15.0, seed=5)

        serial_reg = MetricsRegistry()
        for w in workloads:
            _drive(
                StreamingPTrack(
                    RATE_HZ, profile=w.profile, telemetry=serial_reg
                ),
                w.samples,
            )

        pooled_reg = MetricsRegistry()
        pool = SessionPool(RATE_HZ, telemetry=pooled_reg)
        sids = pool.add_sessions([w.profile for w in workloads])
        n = max(w.samples.shape[0] for w in workloads)
        for i in range(0, n, CADENCE):
            pool.append(
                sids, [w.samples[i : i + CADENCE] for w in workloads]
            )
        pool.flush()

        report = serve_fleet(
            [w.samples for w in workloads],
            RATE_HZ,
            profiles=[w.profile for w in workloads],
            batch_samples=CADENCE,
            sessions_per_shard=2,
            workers=1,
            telemetry=True,
        )

        def ptrack_counters(snap):
            return {
                k: v
                for k, v in snap["counters"].items()
                if k.startswith("ptrack_")
            }

        serial = ptrack_counters(serial_reg.snapshot())
        pooled = ptrack_counters(pooled_reg.snapshot())
        sharded = ptrack_counters(report.telemetry)
        # Wall-clock histograms are excluded by construction: only the
        # deterministic work/credit counters must agree. The one float
        # counter (credited metres) accumulates in driver-dependent
        # order, so it agrees to float tolerance, not bitwise.
        dist = "ptrack_distance_m_total"
        assert serial.pop(dist) == pytest.approx(
            pooled.pop(dist), rel=1e-12
        )
        assert sharded[dist] == pytest.approx(
            serial_reg.snapshot()["counters"][dist], rel=1e-12
        )
        sharded.pop(dist)
        assert serial == pooled == sharded


# ----------------------------------------------------------------------
# Runtime instrumentation
# ----------------------------------------------------------------------
class TestRuntimeInstrumentation:
    def test_cache_hit_miss_eviction_counters(self, tmp_path):
        reg = MetricsRegistry()
        cache = TraceCache(max_items=2, directory=tmp_path, telemetry=reg)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        assert cache.get("zz") is None
        cache.put("c", 3)  # evicts b from memory
        assert cache.get("b") == 2  # disk promote, evicts again
        counters = reg.snapshot()["counters"]
        assert counters["runtime_cache_hits_total"] == 2
        assert counters["runtime_cache_misses_total"] == 1
        assert counters["runtime_cache_evictions_total"] == 2

    def test_cache_clear_keeps_registry_monotonic(self):
        reg = MetricsRegistry()
        cache = TraceCache(max_items=4, telemetry=reg)
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert cache.hits == 0
        counters = reg.snapshot()["counters"]
        assert counters["runtime_cache_hits_total"] == 1

    def test_parallel_map_counters(self):
        enable(MetricsRegistry())
        parallel_map(abs, [-1, -2, -3], workers=1)
        outcomes = parallel_map_outcomes(abs, [-4, "x"], workers=1)
        assert [o.ok for o in outcomes] == [True, False]
        counters = get_registry().snapshot()["counters"]
        assert counters["runtime_parallel_maps_total"] == 2
        assert counters["runtime_parallel_tasks_total"] == 5
        assert counters["runtime_parallel_task_failures_total"] == 1
        hists = get_registry().snapshot()["histograms"]
        assert hists["runtime_parallel_task_seconds"]["count"] == 5
        assert hists["runtime_parallel_map_seconds"]["count"] == 2

    def test_parallel_map_uninstrumented_when_gate_closed(self):
        assert get_registry() is None
        assert parallel_map(abs, [-1], workers=1) == [1]


# ----------------------------------------------------------------------
# Reporting + CLI
# ----------------------------------------------------------------------
class TestReportingAndCli:
    def test_fleet_health_table_rows(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(2)
        reg.gauge("g").set(1.0)
        h = reg.histogram("h_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        table = fleet_health_table(reg.snapshot())
        text = table.render()
        assert "c_total" in text and "counter" in text
        assert "h_seconds" in text and "p50=" in text

    def test_fleet_health_table_empty_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds")
        text = fleet_health_table(reg.snapshot()).render()
        assert "no observations" in text

    def test_fleet_health_table_absent_histogram_series(self):
        # Drivers emit different series mixes (a pool adds
        # serving_batch_round_occupancy, a solo session does not), so
        # merged or hand-assembled snapshots can list a histogram whose
        # series data is absent or partial; the table must render
        # regardless.
        snapshot = {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {"serving_pool_appends_total": 4},
            "gauges": {},
            "histograms": {
                "serving_batch_round_occupancy": None,
                "serving_pool_round_seconds": {"count": 3, "sum": 0.6},
            },
        }
        text = fleet_health_table(snapshot).render()
        assert "serving_batch_round_occupancy" in text and "absent" in text
        assert "mean=0.200000" in text

    def test_fleet_health_table_missing_sections(self):
        text = fleet_health_table({"schema": SNAPSHOT_SCHEMA}).render()
        assert "metric" in text  # headers render even with no series

    @pytest.mark.parametrize("fmt", ["table", "json", "prometheus"])
    def test_cli_telemetry_verb(self, fmt, capsys):
        from repro.cli import main

        rc = main(
            [
                "telemetry",
                "--sessions",
                "2",
                "--duration",
                "8",
                "--format",
                fmt,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        if fmt == "json":
            snap = json.loads(out)
            assert snap["schema"] == SNAPSHOT_SCHEMA
        elif fmt == "prometheus":
            assert "# TYPE ptrack_steps_credited_total counter" in out
        else:
            assert "fleet health" in out
            assert "ptrack_steps_credited_total" in out
