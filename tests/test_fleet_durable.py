"""The durable fleet driver: rolling restarts, torn checkpoints,
live rebalancing, and the checkpoint store's quarantine contract.

The invariant under test everywhere: whatever the fault schedule does
to the workers — SIGKILL mid-round, exceptions mid-epoch, checkpoint
bytes torn on disk, shards split live between epochs — the fleet's
credited steps and strides are bit-identical to a serial replay of each
trace through its own StreamingPTrack. Crashes may cost wall-clock;
they may never cost (or duplicate) a credit.
"""

import dataclasses
import multiprocessing
import pickle
from collections import deque

import pytest

from repro.core.streaming import SESSION_SNAPSHOT_SCHEMA, StreamingPTrack
from repro.exceptions import ConfigurationError
from repro.faults import ShardCrash, TornCheckpoint, plan_shard_crash
from repro.serving import (
    CheckpointStore,
    RebalancePolicy,
    ShardEpochStats,
    SessionPool,
    make_checkpoint,
    serve_fleet,
    split_checkpoint,
    split_pool_snapshot,
    synthesize_workload,
)
from repro.serving import fleet as fleet_mod
from repro.telemetry import MetricsRegistry
from repro.types import StepEvent, StrideEstimate

RATE = 100.0
BATCH = 50

_FLEET = synthesize_workload(6, 20.0, seed=88)
_TRACES = [w.samples for w in _FLEET]
_PROFILES = [w.profile for w in _FLEET]


def _credit_row(status, steps, strides):
    return (
        status,
        [(e.index, e.time) for e in steps],
        [(e.time, e.length_m) for e in strides],
    )


def _credits(report):
    return [_credit_row(s.status, s.steps, s.strides) for s in report.sessions]


@pytest.fixture(scope="module")
def serial_credits():
    """The reference every fleet run must reproduce: one plain
    StreamingPTrack per trace, fed at the fleet's upload cadence — no
    pool, shard, epoch or checkpoint involved."""
    rows = []
    for trace, profile in zip(_TRACES, _PROFILES):
        session = StreamingPTrack(RATE, profile=profile)
        steps, strides = [], []
        for off in range(0, trace.shape[0], BATCH):
            new_steps, new_strides = session.append(trace[off : off + BATCH])
            steps.extend(new_steps)
            strides.extend(new_strides)
        new_steps, new_strides = session.flush()
        steps.extend(new_steps)
        strides.extend(new_strides)
        rows.append(_credit_row("ok", steps, strides))
    return rows


def test_classic_fleet_matches_serial_replay(serial_credits):
    report = serve_fleet(
        _TRACES, RATE, profiles=_PROFILES, workers=1, batch_samples=BATCH
    )
    assert report.status == "ok"
    assert _credits(report) == serial_credits


class TestRollingRestart:
    def test_raise_crash_restores_from_checkpoint(self, serial_credits):
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=2.0,
            shard_faults=[ShardCrash(prob=0.9, mode="kill")],
            fault_seed=11,
        )
        # The in-process driver degrades kill directives to raises (no
        # worker process exists to SIGKILL) but must still recover.
        assert report.checkpoint_restores > 0
        assert report.status == "ok"
        assert _credits(report) == serial_credits

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill test relies on fork start method",
    )
    def test_kill_worker_mid_round_zero_credit_loss(self, serial_credits):
        # The headline rolling-restart drill: SIGKILL a live worker
        # process mid-epoch; the shard restores from its checkpoint and
        # the fleet finishes with exactly the serial replay's credits.
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=2,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=2.0,
            shard_faults=[ShardCrash(prob=0.9, mode="kill")],
            fault_seed=11,
        )
        assert report.checkpoint_restores > 0
        assert report.status == "ok"
        assert _credits(report) == serial_credits

    def test_retry_crashes_fall_back_to_bisection(self, serial_credits):
        # retry_prob=1 makes every restore retry die too; after the
        # attempt budget the driver must fall back to classic healing
        # (bisection from the trace) and still credit everything.
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=2.0,
            shard_faults=[ShardCrash(prob=0.9, retry_prob=1.0)],
            fault_seed=11,
        )
        assert report.shard_retries > 0
        assert report.status == "ok"
        assert _credits(report) == serial_credits

    def test_clean_run_durable_mode_matches_classic(self, serial_credits):
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            checkpoint_every_s=5.0,
        )
        assert report.checkpoint_restores == 0
        assert _credits(report) == serial_credits


@pytest.fixture
def rebuilds(monkeypatch):
    """Count sessions and pools built from a snapshot."""
    calls = {"session": 0, "pool": 0}
    real_session = StreamingPTrack.from_snapshot.__func__
    real_pool = SessionPool.from_snapshot.__func__

    def session(cls, snapshot, telemetry=None):
        calls["session"] += 1
        return real_session(cls, snapshot, telemetry=telemetry)

    def pool(cls, snapshot, telemetry=None):
        calls["pool"] += 1
        return real_pool(cls, snapshot, telemetry=telemetry)

    monkeypatch.setattr(StreamingPTrack, "from_snapshot", classmethod(session))
    monkeypatch.setattr(SessionPool, "from_snapshot", classmethod(pool))
    return calls


@pytest.fixture
def saves(monkeypatch):
    """Every checkpoint the fleet saves, by name, pickled as saved."""
    saved = {}
    real_save = CheckpointStore.save

    def save(store, name, payload):
        saved.setdefault(name, []).append(pickle.dumps(payload))
        return real_save(store, name, payload)

    monkeypatch.setattr(CheckpointStore, "save", save)
    return saved


class TestLivePool:
    def test_clean_in_process_run_rebuilds_nothing(
        self, rebuilds, serial_credits
    ):
        # 20 s traces in 2 s epochs: ten epochs per shard, and each
        # one continues the pool the previous epoch left.
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=2.0,
        )
        assert _credits(report) == serial_credits
        assert rebuilds == {"session": 0, "pool": 0}

    def test_raised_crash_resumes_from_the_checkpoint(
        self, rebuilds, serial_credits
    ):
        # The crash raises part-way into an epoch, after the live pool
        # took some of its batches: only the checkpoint may resume.
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=2.0,
            shard_faults=[ShardCrash(prob=0.3, mode="raise")],
            fault_seed=5,
        )
        assert report.checkpoint_restores >= 1
        assert rebuilds["pool"] >= 1
        assert rebuilds["session"] >= 3
        assert _credits(report) == serial_credits

    def test_split_halves_resume_from_their_checkpoints(
        self, tmp_path, rebuilds, saves, serial_credits
    ):
        # A split drops the live pool: each half goes on from its half
        # of the checkpoint, then keeps its own live pool.
        planned = []

        class SplitOnce(RebalancePolicy):
            def plan(self, stats):
                planned.append(len(stats))
                return [0] if len(planned) == 2 else []

        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=6,
            checkpoint_every_s=2.0,
            checkpoint_dir=tmp_path,
            rebalance=SplitOnce(),
        )
        assert report.rebalances == 1
        assert report.checkpoint_restores == 0
        assert rebuilds == {"session": 6, "pool": 2}
        for blobs in saves.values():
            for blob in blobs:
                ckpt = pickle.loads(blob)
                assert len(ckpt["pool"]["sessions"]) == len(
                    ckpt["step_counts"]
                )
        assert _credits(report) == serial_credits


def _walk(value):
    """Every value nested in dicts, lists, tuples and deques."""
    yield value
    if isinstance(value, dict):
        for item in value.values():
            yield from _walk(item)
    elif isinstance(value, (list, tuple, deque)):
        for item in value:
            yield from _walk(item)


class TestCheckpointHoldsCounts:
    def test_checkpoint_size_does_not_grow_with_credits(
        self, tmp_path, saves, serial_credits
    ):
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=2.0,
            checkpoint_dir=tmp_path,
        )
        assert _credits(report) == serial_credits
        blobs = saves["shard-0"]
        assert len(blobs) >= 6
        first, last = pickle.loads(blobs[0]), pickle.loads(blobs[-1])
        assert not any(
            isinstance(v, (StepEvent, StrideEstimate)) for v in _walk(last)
        )
        assert sum(last["step_counts"]) > sum(first["step_counts"]) + 50
        assert sum(last["stride_counts"]) > sum(first["stride_counts"]) + 20

        # Beyond its pool snapshot, a checkpoint is a small header of
        # a few counts that stays put while the credits pile up.
        def header(blob):
            return len(blob) - len(pickle.dumps(pickle.loads(blob)["pool"]))

        settled = pickle.dumps(
            [(s.steps, s.strides) for s in report.sessions[:3]]
        )
        assert all(header(blob) < 256 for blob in blobs)
        assert abs(header(blobs[-1]) - header(blobs[0])) <= 8
        assert len(settled) > 20 * 256

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_crash_in_the_last_epoch_restores_serial_credits(
        self, tmp_path, monkeypatch, on_disk, serial_credits
    ):
        # Each shard's final epoch raises half-way through once: the
        # driver must drop the live pool and the lost epoch's credits,
        # and resume from the checkpoint's counts.
        real = fleet_mod._serve_shard_epoch
        crashed = set()

        def crash_last_epoch(job):
            longest = max(t.shape[0] for t in job.shard.traces)
            last = job.start + job.epoch_ticks * BATCH >= longest
            key = tuple(job.shard.indices)
            if last and job.start > 0 and key not in crashed:
                crashed.add(key)
                job = dataclasses.replace(job, crash=("raise", 0.5))
            return real(job)

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", crash_last_epoch)
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=2.0,
            checkpoint_dir=tmp_path if on_disk else None,
        )
        assert len(crashed) == 2
        assert report.checkpoint_restores == 2
        assert report.shard_retries == 0
        assert _credits(report) == serial_credits


    def test_restore_cuts_credits_back_to_the_disk_checkpoint(
        self, tmp_path, monkeypatch, serial_credits
    ):
        # The disk is authoritative: when it holds an older checkpoint
        # than the driver last wrote (here, one write lost), a restore
        # drops the credits settled after it and replays from there.
        real_save = CheckpointStore.save
        real_serve = fleet_mod._serve_shard_epoch
        lost = int(6.0 * RATE)  # the shard-0 checkpoint at 6 s
        crashed = []

        def save(store, name, payload):
            if name == "shard-0" and payload["next_offset"] == lost:
                return store.directory / f"{name}.ckpt"
            return real_save(store, name, payload)

        def serve(job):
            if job.shard.indices[0] == 0 and job.start == lost and not crashed:
                crashed.append(job.start)
                job = dataclasses.replace(job, crash=("raise", 0.5))
            return real_serve(job)

        monkeypatch.setattr(CheckpointStore, "save", save)
        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", serve)
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=2.0,
            checkpoint_dir=tmp_path,
        )
        assert crashed == [lost]
        assert report.checkpoint_restores == 1
        assert _credits(report) == serial_credits


class TestTornCheckpointFallback:
    def test_torn_disk_checkpoint_reads_as_miss(
        self, tmp_path, serial_credits
    ):
        # Every checkpoint write is torn; every crash therefore finds
        # no usable disk state and re-ingests from the trace. Slower,
        # but never a wrong credit and never an exception. (The crash
        # rate is kept low: with all checkpoints torn a crash resets
        # the shard to offset 0, so a high rate would livelock.)
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=5.0,
            checkpoint_dir=tmp_path,
            telemetry=True,
            shard_faults=[
                ShardCrash(prob=0.3),
                TornCheckpoint(prob=1.0, max_keep_frac=0.5),
            ],
            fault_seed=7,
        )
        assert report.status == "ok"
        assert _credits(report) == serial_credits
        counters = report.telemetry["counters"]
        assert counters.get("serving_checkpoint_torn_total", 0) > 0
        # Quarantined remains are renamed aside, not left as live state.
        assert list(tmp_path.glob("*.ckpt.corrupt"))

    def test_disk_checkpoints_cleaned_up_on_success(
        self, tmp_path, serial_credits
    ):
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            checkpoint_every_s=2.0,
            checkpoint_dir=tmp_path,
        )
        assert _credits(report) == serial_credits
        assert list(tmp_path.glob("*.ckpt")) == []


class TestRebalance:
    def test_crash_driven_split_keeps_credits(self, serial_credits):
        # One crash marks a shard for splitting; the split halves must
        # resume bit-identically from the split checkpoint.
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=6,
            checkpoint_every_s=2.0,
            rebalance=RebalancePolicy(crash_split_threshold=1),
            shard_faults=[ShardCrash(prob=0.4)],
            fault_seed=3,
        )
        assert report.rebalances > 0
        assert report.status == "ok"
        assert _credits(report) == serial_credits

    def test_rebalances_surface_in_telemetry(self):
        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=6,
            checkpoint_every_s=2.0,
            telemetry=True,
            rebalance=RebalancePolicy(crash_split_threshold=1),
            shard_faults=[ShardCrash(prob=0.4)],
            fault_seed=3,
        )
        counters = report.telemetry["counters"]
        assert counters["serving_fleet_rebalances_total"] == report.rebalances
        assert (
            counters["serving_fleet_checkpoint_restores_total"]
            == report.checkpoint_restores
        )


class TestBatchedShards:
    def test_durable_workers_publish_batched_round_telemetry(
        self, serial_credits
    ):
        # Shards serve through the fleet-batched pool: its occupancy
        # histogram is present, and the shared round-latency series the
        # rebalance policy reads carries real round timings.
        seen = []

        class Recording(RebalancePolicy):
            def plan(self, stats):
                seen.extend(stats)
                return []

        report = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            workers=1,
            batch_samples=BATCH,
            sessions_per_shard=3,
            checkpoint_every_s=5.0,
            telemetry=True,
            rebalance=Recording(),
        )
        assert _credits(report) == serial_credits
        hists = report.telemetry["histograms"]
        assert hists["serving_pool_round_seconds"]["count"] > 0
        occupancy = hists["serving_batch_round_occupancy"]
        assert occupancy["count"] > 0
        assert 1 <= occupancy["sum"] / occupancy["count"] <= 3
        assert seen and all(s.round_seconds_count > 0 for s in seen)


class TestCheckpointStore:
    @staticmethod
    def _payload(n_sessions=2):
        pool = SessionPool(RATE)
        sids = pool.add_sessions(_PROFILES[:n_sessions])
        pool.append(sids, [t[:BATCH] for t in _TRACES[:n_sessions]])
        return make_checkpoint(
            pool.snapshot(), BATCH, [0 for _ in sids], [0 for _ in sids], 1
        )

    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path, telemetry=MetricsRegistry())
        payload = self._payload()
        path = store.save("shard-0", payload)
        assert path.exists()
        loaded = store.load("shard-0")
        assert loaded["kind"] == "checkpoint"
        assert loaded["next_offset"] == payload["next_offset"]
        assert loaded["epoch"] == payload["epoch"]
        assert sorted(loaded["pool"]["sessions"]) == sorted(
            payload["pool"]["sessions"]
        )
        assert store.stats == {"saves": 1, "loads": 1, "torn_loads": 0}

    def test_failed_streamed_save_keeps_previous_checkpoint(self, tmp_path):
        # The payload is pickled straight into the temp file, so a
        # pickling failure happens mid-write: the temp file must go and
        # the last good checkpoint must survive untouched.
        store = CheckpointStore(tmp_path)
        payload = self._payload()
        store.save("shard-0", payload)
        broken = dict(payload, steps=[[lambda: None]])
        with pytest.raises((pickle.PicklingError, AttributeError)):
            store.save("shard-0", broken)
        assert [p.name for p in tmp_path.iterdir()] == ["shard-0.ckpt"]
        assert store.load("shard-0")["epoch"] == payload["epoch"]
        assert store.stats["saves"] == 1

    def test_names_and_delete(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = self._payload()
        store.save("shard-1", payload)
        store.save("shard-0", payload)
        assert store.names() == ["shard-0", "shard-1"]
        store.delete("shard-1")
        store.delete("shard-1")  # missing is fine
        assert store.names() == ["shard-0"]

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nope") is None

    def test_invalid_name_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ConfigurationError, match="name"):
                store.save(bad, self._payload())

    def test_truncated_file_quarantined_as_miss(self, tmp_path):
        reg = MetricsRegistry()
        store = CheckpointStore(tmp_path, telemetry=reg)
        path = store.save("shard-0", self._payload())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert store.load("shard-0") is None
        assert store.stats["torn_loads"] == 1
        assert not path.exists()
        assert path.with_suffix(".ckpt.corrupt").exists()
        counters = reg.snapshot()["counters"]
        assert counters["serving_checkpoint_torn_total"] == 1

    def test_torn_write_injector_applies_at_save(self, tmp_path):
        store = CheckpointStore(
            tmp_path,
            blob_faults=[TornCheckpoint(prob=1.0, max_keep_frac=0.5)],
            seed=9,
        )
        store.save("shard-0", self._payload())
        assert store.load("shard-0") is None
        assert store.stats["torn_loads"] == 1

    def test_wrong_schema_blob_raises(self, tmp_path):
        # A *decodable* blob of a foreign schema is a deployment
        # mistake, not bit rot: surface it, don't quarantine it.
        store = CheckpointStore(tmp_path)
        payload = dict(self._payload())
        payload["schema"] = "ptrack-session-v999"
        (tmp_path / "shard-0.ckpt").write_bytes(pickle.dumps(payload))
        with pytest.raises(ConfigurationError, match="v999"):
            store.load("shard-0")

    def test_credit_carrying_v1_blob_raises(self, tmp_path):
        # The checkpoint layout that held every credit settled so far
        # (under the session schema) is refused, not read as counts.
        store = CheckpointStore(tmp_path)
        payload = dict(self._payload(), schema=SESSION_SNAPSHOT_SCHEMA)
        del payload["step_counts"], payload["stride_counts"]
        payload["steps"] = [[], []]
        payload["strides"] = [[], []]
        (tmp_path / "shard-0.ckpt").write_bytes(pickle.dumps(payload))
        with pytest.raises(ConfigurationError, match="ptrack-checkpoint-v2"):
            store.load("shard-0")
        assert (tmp_path / "shard-0.ckpt").exists()
        with pytest.raises(ConfigurationError):
            split_checkpoint(payload, 1)

    def test_wrong_kind_blob_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        pool = SessionPool(RATE)
        pool.add_session(_PROFILES[0])
        (tmp_path / "shard-0.ckpt").write_bytes(
            pickle.dumps(pool.snapshot())
        )
        with pytest.raises(ConfigurationError, match="checkpoint"):
            store.load("shard-0")


class TestCheckpointSplit:
    def test_split_partitions_sessions_and_credits(self):
        pool = SessionPool(RATE)
        sids = pool.add_sessions(_PROFILES[:4])
        steps = [10, 11, 12, 13]
        strides = [5, 6, 7, 8]
        ckpt = make_checkpoint(pool.snapshot(), 100, steps, strides, 2)
        left, right = split_checkpoint(ckpt, 1)
        assert sorted(left["pool"]["sessions"]) == sids[:1]
        assert sorted(right["pool"]["sessions"]) == sids[1:]
        assert left["step_counts"] == steps[:1]
        assert right["step_counts"] == steps[1:]
        assert left["stride_counts"] == strides[:1]
        assert right["stride_counts"] == strides[1:]
        assert left["epoch"] == right["epoch"] == 2
        assert left["next_offset"] == right["next_offset"] == 100

    def test_split_halves_resume_like_the_whole(self):
        # Serving the two halves forward equals serving the unsplit
        # pool forward: the migration-without-credit-loss invariant.
        def finish(pool, sids, start):
            acc = {sid: ([], []) for sid in sids}
            traces = [_TRACES[sid] for sid in sids]
            n = max(t.shape[0] for t in traces)
            for off in range(start, n, BATCH):
                out = pool.append(sids, [t[off : off + BATCH] for t in traces])
                for sid, (s, r) in zip(sids, out):
                    acc[sid][0].extend(s)
                    acc[sid][1].extend(r)
            for sid, (s, r) in zip(sids, pool.flush(sids)):
                acc[sid][0].extend(s)
                acc[sid][1].extend(r)
            return {
                sid: (
                    [(e.index, e.time) for e in c[0]],
                    [(e.time, e.length_m) for e in c[1]],
                )
                for sid, c in acc.items()
            }

        cut = 10 * BATCH
        pool = SessionPool(RATE)
        sids = pool.add_sessions(_PROFILES[:4])
        for off in range(0, cut, BATCH):
            pool.append(sids, [t[off : off + BATCH] for t in _TRACES[:4]])
        blob = pool.snapshot()
        whole = finish(
            SessionPool.from_snapshot(pickle.loads(pickle.dumps(blob))),
            sids,
            cut,
        )
        left_blob, right_blob = split_pool_snapshot(blob, 2)
        halves = {}
        for half in (left_blob, right_blob):
            hp = SessionPool.from_snapshot(half)
            halves.update(finish(hp, hp.session_ids, cut))
        assert halves == whole

    def test_split_rejects_empty_half(self):
        pool = SessionPool(RATE)
        pool.add_sessions(_PROFILES[:2])
        ckpt = make_checkpoint(pool.snapshot(), 0, [0, 0], [0, 0], 0)
        for mid in (0, 2):
            with pytest.raises(ConfigurationError, match="non-empty"):
                split_checkpoint(ckpt, mid)


class TestRebalancePolicy:
    @staticmethod
    def _stats(shard_id, n=4, mean_round=1.0, crashes=0):
        return ShardEpochStats(
            shard_id=shard_id,
            n_sessions=n,
            elapsed_s=mean_round * 10,
            round_seconds_sum=mean_round * 10,
            round_seconds_count=10,
            crashes=crashes,
        )

    def test_slow_shard_is_split(self):
        policy = RebalancePolicy(split_factor=1.5)
        stats = [self._stats(0), self._stats(1), self._stats(2, mean_round=4.0)]
        assert policy.plan(stats) == [2]

    def test_balanced_fleet_plans_nothing(self):
        policy = RebalancePolicy()
        assert policy.plan([self._stats(i) for i in range(3)]) == []

    def test_budget_truncates_worst_first(self):
        policy = RebalancePolicy(max_splits_per_epoch=1)
        stats = [
            self._stats(0),
            self._stats(1),
            self._stats(2),
            self._stats(3, mean_round=3.0),
            self._stats(4, mean_round=5.0),
        ]
        assert policy.plan(stats) == [4]
        wider = RebalancePolicy(max_splits_per_epoch=2)
        assert wider.plan(stats) == [4, 3]

    def test_single_session_shard_never_split(self):
        policy = RebalancePolicy(crash_split_threshold=1)
        assert policy.plan([self._stats(0, n=1, crashes=5)]) == []

    def test_crash_threshold_forces_split(self):
        policy = RebalancePolicy(crash_split_threshold=2)
        stats = [self._stats(0), self._stats(1, crashes=2)]
        assert policy.plan(stats) == [1]
        disabled = RebalancePolicy(crash_split_threshold=0)
        assert disabled.plan(stats) == []

    def test_wallclock_fallback_without_telemetry(self):
        # round_seconds_count == 0 (telemetry off) falls back to the
        # epoch wall-clock signal.
        fast = ShardEpochStats(0, 4, elapsed_s=1.0)
        slow = ShardEpochStats(1, 4, elapsed_s=9.0)
        assert RebalancePolicy().plan([fast, fast, slow]) == [1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"split_factor": 1.0},
            {"min_split_sessions": 1},
            {"max_splits_per_epoch": 0},
            {"crash_split_threshold": -1},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RebalancePolicy(**kwargs)


class TestShardCrashPlanning:
    def test_plan_is_deterministic(self):
        faults = [ShardCrash(prob=0.5, mode="raise")]
        plans = [
            plan_shard_crash(faults, seed=1, shard_index=s, epoch=e, attempt=0)
            for s in range(4)
            for e in range(4)
        ]
        assert plans == [
            plan_shard_crash(faults, seed=1, shard_index=s, epoch=e, attempt=0)
            for s in range(4)
            for e in range(4)
        ]
        assert any(p is not None for p in plans)
        assert any(p is None for p in plans)

    def test_retry_prob_defaults_to_zero(self):
        faults = [ShardCrash(prob=1.0)]
        assert (
            plan_shard_crash(faults, seed=1, shard_index=0, epoch=0, attempt=0)
            is not None
        )
        assert (
            plan_shard_crash(faults, seed=1, shard_index=0, epoch=0, attempt=1)
            is None
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ShardCrash(mode="explode")


class TestDurableArgValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_dir": "/tmp/x"},
            {"rebalance": RebalancePolicy()},
            {"shard_faults": [ShardCrash()]},
        ],
    )
    def test_durable_args_require_checkpointing(self, kwargs):
        with pytest.raises(ConfigurationError, match="checkpoint_every_s"):
            serve_fleet(
                _TRACES[:1], RATE, profiles=_PROFILES[:1], workers=1, **kwargs
            )

    def test_nonpositive_epoch_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint_every_s"):
            serve_fleet(
                _TRACES[:1],
                RATE,
                profiles=_PROFILES[:1],
                workers=1,
                checkpoint_every_s=0.0,
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"checkpoint_every_s": float("nan")}, "checkpoint_every_s"),
            ({"checkpoint_every_s": float("inf")}, "checkpoint_every_s"),
            ({"shard_timeout_s": 0.0, "workers": 2}, "shard_timeout_s"),
            ({"shard_timeout_s": -1.0}, "shard_timeout_s"),
            ({"shard_timeout_s": float("nan")}, "shard_timeout_s"),
            ({"sessions_per_shard": 0}, "sessions_per_shard"),
            ({"workers": -1}, "workers"),
        ],
        ids=[
            "nan-epoch",
            "inf-epoch",
            "zero-timeout",
            "negative-timeout",
            "nan-timeout",
            "zero-shard-size",
            "negative-workers",
        ],
    )
    def test_bad_serving_args_rejected_before_store_io(self, kwargs, match):
        class NoStoreIO:
            def __getattr__(self, name):
                raise AssertionError(f"profile store touched: {name}")

        with pytest.raises(ConfigurationError, match=match):
            serve_fleet(
                _TRACES[:1],
                RATE,
                profiles=_PROFILES[:1],
                user_ids=["u0"],
                profile_store=NoStoreIO(),
                **{"workers": 1, **kwargs},
            )
