"""The bit-identical-resume oracle for ``ptrack-session-v1`` snapshots.

The durability contract, in the chunk-invariance style: a snapshot
taken at *any* upload boundary and restored — in the same process or
through a pickle round-trip, into a fresh session/pool — continues
bit-identically to the uninterrupted run. Asserted here across every
driver in the repo (serial session, pool, sharded fleet, ingest
gateway), on clean and degraded streams, plus
the validation surface: a snapshot that cannot resume bit-identically
(wrong rate, config, backend, schema) must raise
:class:`ConfigurationError` naming the mismatch, never resume with
wrong credits.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import PTrackConfig
from repro.core.streaming import (
    SESSION_SNAPSHOT_SCHEMA,
    StreamingPTrack,
    ensure_snapshot_kind,
)
from repro.exceptions import ConfigurationError
from repro.faults import FaultPolicy, NaNBurst, SampleDropout, inject_faults
from repro.serving import (
    BatchedSessionPool,
    IngestGateway,
    SessionPool,
    serve_fleet,
    serve_schedule,
    synthesize_arrival_schedule,
    synthesize_workload,
)
from repro.telemetry import MetricsRegistry

RATE = 100.0
BATCH = 50

_FLEET = synthesize_workload(3, 20.0, seed=77)
_TRACES = [w.samples for w in _FLEET]
_PROFILES = [w.profile for w in _FLEET]
_N_TICKS = _TRACES[0].shape[0] // BATCH
#: Boundaries to cut at: first tick, early, middle, and the final tick.
_CUTS = sorted({1, 3, _N_TICKS // 2, _N_TICKS - 1})


def _signature(steps, strides):
    return (
        [(e.index, e.time) for e in steps],
        [(e.time, e.length_m) for e in strides],
    )


def _roundtrip(blob):
    """Every snapshot must survive serialization — always pickle."""
    return pickle.loads(pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL))


def _drive_serial(trace, profile=None, cut=None, fault_policy=None):
    """One session, optionally snapshot+restored at tick ``cut``."""
    sess = StreamingPTrack(RATE, profile=profile, fault_policy=fault_policy)
    steps, strides = [], []
    for tick, off in enumerate(range(0, trace.shape[0], BATCH)):
        if cut is not None and tick == cut:
            sess = StreamingPTrack.from_snapshot(_roundtrip(sess.snapshot()))
        s, r = sess.append(trace[off : off + BATCH])
        steps.extend(s)
        strides.extend(r)
    s, r = sess.flush()
    steps.extend(s)
    strides.extend(r)
    return _signature(steps, strides), sess


class TestSerialResume:
    @pytest.mark.parametrize("cut", _CUTS)
    def test_resume_any_boundary_is_bit_identical(self, cut):
        for trace, profile in zip(_TRACES, _PROFILES):
            base, _ = _drive_serial(trace, profile)
            resumed, _ = _drive_serial(trace, profile, cut=cut)
            assert resumed == base

    @pytest.mark.parametrize("cut", _CUTS)
    def test_resume_on_degraded_stream(self, cut):
        # Degraded-mode state (quarantine ledger, gap flag, last-good
        # sample, parked credits) must travel in the snapshot too.
        policy = FaultPolicy()
        trace = inject_faults(
            _TRACES[0],
            [SampleDropout(prob=0.02), NaNBurst(rate_per_min=3.0)],
            seed=5,
        )
        base, base_sess = _drive_serial(
            trace, _PROFILES[0], fault_policy=policy
        )
        resumed, res_sess = _drive_serial(
            trace, _PROFILES[0], cut=cut, fault_policy=policy
        )
        assert resumed == base
        assert res_sess.op_stats == base_sess.op_stats

    def test_restored_session_keeps_op_stats_and_totals(self):
        _, sess = _drive_serial(_TRACES[0], _PROFILES[0])
        revived = StreamingPTrack.from_snapshot(_roundtrip(sess.snapshot()))
        assert revived.op_stats == sess.op_stats
        assert revived.step_count == sess.step_count
        assert revived.distance_m == sess.distance_m

    def test_two_restores_from_one_snapshot_do_not_alias(self):
        sess = StreamingPTrack(RATE, profile=_PROFILES[0])
        sess.append(_TRACES[0][: 10 * BATCH])
        blob = sess.snapshot()
        a = StreamingPTrack.from_snapshot(blob)
        b = StreamingPTrack.from_snapshot(blob)
        rest = _TRACES[0][10 * BATCH :]
        sig_a = _signature(*a.append(rest))
        sig_b = _signature(*b.append(rest))
        assert sig_a == sig_b
        assert _signature(*a.flush()) == _signature(*b.flush())


def _drive_pool(pool_cls, cut=None):
    """A pool fleet, optionally snapshot+restored at tick ``cut``."""
    pool = pool_cls(RATE)
    sids = pool.add_sessions(_PROFILES)
    acc = {sid: ([], []) for sid in sids}
    n = max(t.shape[0] for t in _TRACES)
    for tick, off in enumerate(range(0, n, BATCH)):
        if cut is not None and tick == cut:
            pool = pool_cls.from_snapshot(_roundtrip(pool.snapshot()))
            sids = pool.session_ids
        out = pool.append(
            sids, [t[off : off + BATCH] for t in _TRACES]
        )
        for sid, (s, r) in zip(sids, out):
            acc[sid][0].extend(s)
            acc[sid][1].extend(r)
    for sid, (s, r) in zip(sids, pool.flush(sids)):
        acc[sid][0].extend(s)
        acc[sid][1].extend(r)
    return {sid: _signature(*c) for sid, c in acc.items()}


class TestPoolResume:
    # The one pool, under its name and its former alias.
    @pytest.mark.parametrize(
        "pool_cls",
        [SessionPool, BatchedSessionPool],
        ids=["SessionPool", "BatchedSessionPool"],
    )
    @pytest.mark.parametrize("cut", _CUTS)
    def test_pool_resume_is_bit_identical(self, pool_cls, cut):
        base = _drive_pool(pool_cls)
        resumed = _drive_pool(pool_cls, cut=cut)
        assert resumed == base
        assert base == {
            sid: _drive_serial(trace, profile)[0]
            for sid, (trace, profile) in enumerate(zip(_TRACES, _PROFILES))
        }

    def test_restored_pool_allocates_fresh_ids(self):
        pool = SessionPool(RATE)
        pool.add_sessions(_PROFILES)
        revived = SessionPool.from_snapshot(_roundtrip(pool.snapshot()))
        assert revived.session_ids == pool.session_ids
        assert revived.add_session() == len(_PROFILES)

    def test_restore_under_telemetry_publishes_only_new_work(self):
        # Across a snapshot/restore epoch boundary, merged counters
        # must equal the uninterrupted run's: nothing lost, nothing
        # double-published.
        def run(cut):
            regs = [MetricsRegistry()]
            pool = SessionPool(RATE, telemetry=regs[0])
            sids = pool.add_sessions(_PROFILES)
            n = max(t.shape[0] for t in _TRACES)
            for tick, off in enumerate(range(0, n, BATCH)):
                if cut is not None and tick == cut:
                    blob = _roundtrip(pool.snapshot())
                    regs.append(MetricsRegistry())
                    pool = SessionPool.from_snapshot(
                        blob, telemetry=regs[-1]
                    )
                    sids = pool.session_ids
                pool.append(sids, [t[off : off + BATCH] for t in _TRACES])
            pool.flush(sids)
            merged = MetricsRegistry()
            for reg in regs:
                merged.merge(reg.snapshot())
            return merged.snapshot()["counters"]

        base = run(None)
        resumed = run(_N_TICKS // 2)
        for name in base:
            if not name.startswith("ptrack_"):
                continue
            assert resumed.get(name) == pytest.approx(base[name]), name


class TestShardedResume:
    @pytest.mark.parametrize("epoch_s", [0.5, 3.0, 7.0])
    def test_durable_fleet_matches_classic(self, epoch_s):
        classic = serve_fleet(
            _TRACES, RATE, profiles=_PROFILES, workers=1,
            batch_samples=BATCH,
        )
        durable = serve_fleet(
            _TRACES, RATE, profiles=_PROFILES, workers=1,
            batch_samples=BATCH, checkpoint_every_s=epoch_s,
        )
        assert [
            _signature(list(s.steps), list(s.strides))
            for s in durable.sessions
        ] == [
            _signature(list(s.steps), list(s.strides))
            for s in classic.sessions
        ]

    def test_durable_fleet_with_disk_store(self, tmp_path):
        classic = serve_fleet(
            _TRACES, RATE, profiles=_PROFILES, workers=1,
            batch_samples=BATCH,
        )
        durable = serve_fleet(
            _TRACES, RATE, profiles=_PROFILES, workers=1,
            batch_samples=BATCH, checkpoint_every_s=3.0,
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert [s.steps for s in durable.sessions] == [
            s.steps for s in classic.sessions
        ]
        # Finished shards clean up their checkpoints.
        assert list((tmp_path / "ckpt").glob("*.ckpt")) == []


def _drive_gateway(schedule, cut=None):
    """Replay a schedule tick by tick; at tick ``cut``, swap in a pool
    restored from a snapshot (the pool-crash recovery path)."""
    gw = IngestGateway(RATE, reorder_window=max(8, schedule.max_seq_skew))
    sid_of = {}
    acc = {}
    for tick, events in enumerate(schedule.events):
        if cut is not None and tick == cut:
            gw.adopt_pool(
                SessionPool.from_snapshot(_roundtrip(gw.pool.snapshot()))
            )
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
    return {i: _signature(*c) for i, c in acc.items()}


class TestGatewayResume:
    def test_mid_stream_pool_swap_is_bit_identical(self):
        schedule = synthesize_arrival_schedule(
            [t.shape[0] for t in _TRACES],
            seed=9,
            batch_samples=128,
            reorder_prob=0.2,
        )
        base = _drive_gateway(schedule)
        for cut in (1, schedule.n_ticks // 2, schedule.n_ticks - 1):
            assert _drive_gateway(schedule, cut=cut) == base

    def test_adopt_pool_rejects_membership_mismatch(self):
        gw = IngestGateway(RATE)
        gw.add_session(_PROFILES[0])
        wrong = SessionPool(RATE)
        wrong.add_sessions(_PROFILES)
        with pytest.raises(ConfigurationError, match="unexpected ids"):
            gw.adopt_pool(wrong)


class TestValidation:
    def _snapshot(self):
        sess = StreamingPTrack(RATE, profile=_PROFILES[0])
        sess.append(_TRACES[0][: 5 * BATCH])
        return sess.snapshot()

    def test_rejects_wrong_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ensure_snapshot_kind(self._snapshot(), "pool")

    def test_rejects_non_snapshot(self):
        with pytest.raises(ConfigurationError, match="snapshot dict"):
            ensure_snapshot_kind([1, 2, 3], "session")

    def test_rejects_wrong_schema_version(self):
        blob = dict(self._snapshot())
        blob["schema"] = "ptrack-session-v999"
        with pytest.raises(ConfigurationError, match="v999"):
            StreamingPTrack.from_snapshot(blob)

    def test_rejects_rate_mismatch(self):
        sess = StreamingPTrack(50.0, profile=_PROFILES[0])
        with pytest.raises(ConfigurationError, match="sample_rate_hz"):
            sess.restore(self._snapshot())

    def test_rejects_config_mismatch(self):
        blob = self._snapshot()
        sess = StreamingPTrack(
            RATE,
            profile=_PROFILES[0],
            config=PTrackConfig(lowpass_cutoff_hz=4.0),
        )
        with pytest.raises(ConfigurationError, match="config"):
            sess.restore(blob)

    def test_rejects_fault_policy_mismatch(self):
        blob = self._snapshot()
        sess = StreamingPTrack(
            RATE, profile=_PROFILES[0], fault_policy=FaultPolicy()
        )
        with pytest.raises(ConfigurationError, match="FaultPolicy"):
            sess.restore(blob)

    def test_pool_rejects_backend_mismatch(self):
        pool = BatchedSessionPool(RATE)
        pool.add_sessions(_PROFILES)
        blob = pool.snapshot()
        assert blob["backend"] == "numpy"
        tampered = dict(blob)
        tampered["backend"] = "float32"
        with pytest.raises(ConfigurationError, match="backend"):
            BatchedSessionPool(RATE).restore(tampered)

    def test_pool_refuses_lockstep_backend(self):
        # Lockstep pools wrote ``"backend": None``; every pool now runs
        # the packed round and restores only ``"numpy"`` blobs.
        pool = SessionPool(RATE)
        pool.add_sessions(_PROFILES)
        blob = dict(pool.snapshot())
        blob["backend"] = None
        with pytest.raises(ConfigurationError, match="backend None"):
            SessionPool(RATE).restore(blob)
        with pytest.raises(ConfigurationError, match="backend None") as err:
            SessionPool.from_snapshot(blob)
        # The advice is to re-serve, not the from_snapshot that refuses it.
        assert "re-serve the shard from its trace" in str(err.value)
        assert "from_snapshot does this" not in str(err.value)

    def test_pool_error_lists_every_mismatch(self):
        pool = SessionPool(RATE)
        pool.add_sessions(_PROFILES)
        blob = pool.snapshot()
        other = SessionPool(
            50.0, config=PTrackConfig(lowpass_cutoff_hz=4.0)
        )
        with pytest.raises(ConfigurationError) as err:
            other.restore(blob)
        assert "sample_rate_hz" in str(err.value)
        assert "PTrackConfig" in str(err.value)


class TestMigration:
    def test_export_import_matches_uninterrupted(self):
        trace, profile = _TRACES[0], _PROFILES[0]
        base, _ = _drive_serial(trace, profile)

        src = SessionPool(RATE)
        sid = src.add_session(profile)
        mid = (_N_TICKS // 2) * BATCH
        steps, strides = [], []
        for off in range(0, mid, BATCH):
            ((s, r),) = src.append([sid], [trace[off : off + BATCH]])
            steps.extend(s)
            strides.extend(r)
        blob = _roundtrip(src.export_session(sid))
        src.remove_session(sid)
        assert src.session_ids == []

        dst = SessionPool(RATE)
        new_sid = dst.import_session(blob)
        for off in range(mid, trace.shape[0], BATCH):
            ((s, r),) = dst.append([new_sid], [trace[off : off + BATCH]])
            steps.extend(s)
            strides.extend(r)
        ((s, r),) = dst.flush([new_sid])
        steps.extend(s)
        strides.extend(r)
        assert _signature(steps, strides) == base

    def test_import_rejects_id_collision(self):
        pool = SessionPool(RATE)
        sid = pool.add_session(_PROFILES[0])
        blob = pool.export_session(sid)
        with pytest.raises(ConfigurationError, match="already"):
            pool.import_session(blob, sid)

    def test_import_rejects_identity_mismatch(self):
        pool = SessionPool(RATE)
        blob = pool.export_session(pool.add_session(_PROFILES[0]))
        with pytest.raises(ConfigurationError, match="pipeline identity"):
            SessionPool(50.0).import_session(blob)


def test_snapshot_schema_constant():
    assert SESSION_SNAPSHOT_SCHEMA == "ptrack-session-v1"
    blob = StreamingPTrack(RATE).snapshot()
    assert blob["schema"] == SESSION_SNAPSHOT_SCHEMA
    assert blob["kind"] == "session"
    pool_blob = SessionPool(RATE).snapshot()
    assert pool_blob["schema"] == SESSION_SNAPSHOT_SCHEMA
    assert pool_blob["kind"] == "pool"
