"""Tests for self-healing serving: pool isolation, fleet bisection."""

import multiprocessing

import numpy as np
import pytest

from repro.core.streaming import StreamingPTrack
from repro.exceptions import ConfigurationError, SignalError
from repro.faults import FaultPolicy, Outage, SampleDropout, inject_faults
from repro.serving import SessionPool, serve_fleet, synthesize_workload
from repro.serving import fleet as fleet_mod


def _workload(n=3, duration_s=20.0, seed=17):
    ws = synthesize_workload(n, duration_s, seed=seed)
    return [w.samples for w in ws], [w.profile for w in ws]


class TestPoolErrors:
    def test_length_mismatch_is_actionable(self):
        pool = SessionPool(100.0)
        sid = pool.add_session()
        with pytest.raises(ConfigurationError, match="positionally"):
            pool.append([sid], [np.zeros((10, 3)), np.zeros((10, 3))])

    def test_unknown_ids_reported_together(self):
        pool = SessionPool(100.0)
        sid = pool.add_session()
        with pytest.raises(ConfigurationError, match=r"\[7, 9\]"):
            pool.append(
                [sid, 7, 9],
                [np.zeros((10, 3))] * 3,
            )

    def test_duplicate_ids_rejected(self):
        pool = SessionPool(100.0)
        sid = pool.add_session()
        with pytest.raises(ConfigurationError, match="duplicate"):
            pool.append([sid, sid], [np.zeros((10, 3))] * 2)

    def test_errors_raised_before_any_ingest(self):
        pool = SessionPool(100.0)
        sid = pool.add_session()
        try:
            pool.append([sid, 99], [np.zeros((10, 3))] * 2)
        except ConfigurationError:
            pass
        assert pool.session(sid).op_stats.samples_in == 0


class TestPoolIsolation:
    def test_poisoned_session_does_not_stop_the_pool(self):
        traces, profiles = _workload(3)
        pool = SessionPool(100.0)
        sids = pool.add_sessions(profiles)
        bad = np.full((50, 3), np.nan)  # strict sessions raise on NaN
        for off in range(0, traces[0].shape[0], 50):
            batches = [t[off : off + 50] for t in traces]
            if off == 500:
                batches[1] = bad
            pool.append(sids, batches)
        pool.flush(sids)
        assert pool.session_status(sids[1]) == "failed"
        assert sids[1] in pool.failed_sessions
        assert "SignalError" in pool.failed_sessions[sids[1]]
        assert pool.session_status(sids[0]) == "ok"
        assert pool.step_count(sids[0]) > 0
        assert pool.step_count(sids[2]) > 0

    def test_survivors_identical_to_solo_runs(self):
        traces, profiles = _workload(2)
        solo = StreamingPTrack(100.0, profile=profiles[0])
        events = []
        for off in range(0, traces[0].shape[0], 50):
            steps, _ = solo.append(traces[0][off : off + 50])
            events.extend(steps)
        steps, _ = solo.flush()
        events.extend(steps)

        pool = SessionPool(100.0)
        sids = pool.add_sessions(profiles)
        pooled = []
        for off in range(0, traces[0].shape[0], 50):
            batches = [t[off : off + 50] for t in traces]
            if off == 500:
                batches[1] = np.full((50, 3), np.nan)
            out = pool.append(sids, batches)
            pooled.extend(out[0][0])
        out = pool.flush(sids)
        pooled.extend(out[0][0])
        assert [(e.index, e.time) for e in pooled] == [
            (e.index, e.time) for e in events
        ]

    def test_isolation_off_restores_fail_fast(self):
        pool = SessionPool(100.0, isolate_failures=False)
        sid = pool.add_session()
        with pytest.raises(Exception):
            pool.append([sid], [np.full((50, 3), np.nan)])

    def test_revive_returns_session_to_rotation(self):
        traces, profiles = _workload(1)
        pool = SessionPool(100.0)
        sid = pool.add_session(profiles[0])
        pool.append([sid], [np.full((50, 3), np.nan)])
        assert pool.session_status(sid) == "failed"
        pool.revive_session(sid)
        assert pool.session_status(sid) == "ok"
        for off in range(0, traces[0].shape[0], 50):
            pool.append([sid], [traces[0][off : off + 50]])
        pool.flush([sid])
        assert pool.step_count(sid) > 0


def _credit_rows(credits):
    steps, strides = credits
    return (
        [(e.index, e.time) for e in steps],
        [(e.time, e.length_m) for e in strides],
    )


class TestStrictAppendCheck:
    """A strict pool checks a round's batches for finiteness together,
    and falls back to per-session ingest when any batch fails."""

    N = 64
    BAD_AT = 300  # sample offset of the poisoned upload

    @pytest.fixture(scope="class")
    def fleet(self):
        return _workload(self.N, duration_s=8.0, seed=23)

    @pytest.fixture(scope="class")
    def solo_credits(self, fleet):
        traces, profiles = fleet
        rows = []
        for trace, profile in zip(traces, profiles):
            session = StreamingPTrack(100.0, profile=profile)
            steps, strides = [], []
            for off in range(0, trace.shape[0], 50):
                new_steps, new_strides = session.append(trace[off : off + 50])
                steps.extend(new_steps)
                strides.extend(new_strides)
            new_steps, new_strides = session.flush()
            steps.extend(new_steps)
            strides.extend(new_strides)
            rows.append(_credit_rows((steps, strides)))
        return rows

    def _serve(self, fleet, bad, victim=17, **pool_kwargs):
        traces, profiles = fleet
        pool = SessionPool(100.0, **pool_kwargs)
        sids = pool.add_sessions(profiles)
        acc = [([], []) for _ in sids]
        for off in range(0, max(t.shape[0] for t in traces), 50):
            batches = [t[off : off + 50] for t in traces]
            if off == self.BAD_AT:
                batches[victim] = bad
            out = pool.append(sids, batches)
            for (steps, strides), (new_steps, new_strides) in zip(acc, out):
                steps.extend(new_steps)
                strides.extend(new_strides)
        for (steps, strides), (new_steps, new_strides) in zip(
            acc, pool.flush(sids)
        ):
            steps.extend(new_steps)
            strides.extend(new_strides)
        return pool, sids, [_credit_rows(c) for c in acc]

    def test_clean_rounds_skip_per_session_ingest(self, fleet, monkeypatch):
        calls = []
        real = StreamingPTrack.ingest

        def ingest(session, samples):
            calls.append(samples.shape[0])
            return real(session, samples)

        monkeypatch.setattr(StreamingPTrack, "ingest", ingest)
        bad = fleet[0][5][self.BAD_AT : self.BAD_AT + 50].copy()
        bad[7, 1] = np.nan
        pool, sids, _ = self._serve(fleet, bad, victim=5)
        # Only the round holding the NaN batch ingests session by
        # session; after it the failed session sits out the check.
        assert calls == [50] * self.N
        assert pool.failed_sessions.keys() == {sids[5]}
        assert pool.session(sids[0]).op_stats.appends == -(
            -fleet[0][0].shape[0] // 50
        )

    def test_one_nan_batch_fails_only_its_session(self, fleet, solo_credits):
        bad = fleet[0][17][self.BAD_AT : self.BAD_AT + 50].copy()
        bad[3, 2] = np.nan
        pool, sids, rows = self._serve(fleet, bad)
        assert pool.failed_sessions == {
            sids[17]: "SignalError: samples contain non-finite values"
        }
        mates = [k for k in range(self.N) if k != 17]
        assert [rows[k] for k in mates] == [solo_credits[k] for k in mates]

    def test_nan_batch_raises_without_isolation(self, fleet):
        bad = np.full((50, 3), np.inf)
        with pytest.raises(SignalError, match="non-finite"):
            self._serve(fleet, bad, isolate_failures=False)

    def test_float32_batch_keeps_its_message(self, fleet, solo_credits):
        bad = fleet[0][17][self.BAD_AT : self.BAD_AT + 50].astype(np.float32)
        pool, sids, rows = self._serve(fleet, bad)
        error = pool.failed_sessions[sids[17]]
        assert error.startswith(
            "SignalError: samples dtype float32 forces a silent conversion"
        )
        assert list(pool.failed_sessions) == [sids[17]]
        mates = [k for k in range(self.N) if k != 17]
        assert [rows[k] for k in mates] == [solo_credits[k] for k in mates]


class TestEagerValidation:
    def test_wrong_shape_names_the_trace(self):
        with pytest.raises(ConfigurationError, match="trace 1"):
            serve_fleet([np.zeros((10, 3)), np.zeros((10, 2))], 100.0)

    def test_non_numeric_dtype_rejected(self):
        with pytest.raises(ConfigurationError, match="float-convertible"):
            serve_fleet([np.array([["a", "b", "c"]])], 100.0)

    def test_non_finite_requires_fault_policy(self):
        bad = np.zeros((100, 3))
        bad[5] = np.inf
        with pytest.raises(ConfigurationError, match="fault_policy"):
            serve_fleet([bad], 100.0)

    def test_profile_length_mismatch(self):
        traces, profiles = _workload(2)
        with pytest.raises(ConfigurationError, match="profiles"):
            serve_fleet(traces, 100.0, profiles=profiles[:1])

    def test_empty_fleet_is_ok(self):
        report = serve_fleet([], 100.0)
        assert report.status == "ok"
        assert report.sessions == ()


class TestDegradedFleet:
    def test_faulted_fleet_completes_with_counters(self):
        traces, profiles = _workload(3, duration_s=30.0)
        faulted = [
            inject_faults(
                t,
                [
                    SampleDropout(prob=0.03),
                    Outage(rate_per_min=4.0, min_gap_s=0.5, max_gap_s=1.0),
                ],
                seed=23,
                index=i,
            )
            for i, t in enumerate(traces)
        ]
        report = serve_fleet(
            faulted, 100.0, profiles=profiles, fault_policy=FaultPolicy()
        )
        assert report.status == "ok"
        assert len(report.sessions) == 3
        assert all(s.status == "ok" for s in report.sessions)
        assert report.samples_repaired > 0
        assert report.samples_rejected > 0
        assert report.gaps_reset > 0
        assert report.total_steps > 0

    def test_clean_fleet_identical_with_policy(self):
        traces, profiles = _workload(3)
        base = serve_fleet(traces, 100.0, profiles=profiles)
        hardened = serve_fleet(
            traces, 100.0, profiles=profiles, fault_policy=FaultPolicy()
        )
        sig = lambda r: [
            [(e.index, e.time) for e in s.steps] for s in r.sessions
        ]
        assert sig(base) == sig(hardened)
        assert hardened.samples_repaired == 0
        assert hardened.gaps_reset == 0


class TestShardHealing:
    """Bisection healing in the one-epoch run; the subclass below runs
    the same tests with checkpointing on."""

    checkpoint_every_s = None

    def test_killed_shard_is_bisected_to_the_culprit(self, monkeypatch):
        traces, profiles = _workload(4)
        real = fleet_mod._serve_shard_epoch

        def poisoned(job):
            if 2 in job.shard.indices:
                raise RuntimeError("worker down")
            return real(job)

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", poisoned)
        report = fleet_mod.serve_fleet(
            traces,
            100.0,
            profiles=profiles,
            workers=1,
            sessions_per_shard=4,
            checkpoint_every_s=self.checkpoint_every_s,
        )
        assert report.status == "degraded"
        assert report.n_failed == 1
        assert report.shard_retries >= 1
        failed = report.sessions[2]
        assert failed.status == "failed"
        assert "worker down" in failed.error
        # Every other session completed with real credits.
        for i in (0, 1, 3):
            assert report.sessions[i].status == "ok"
            assert report.sessions[i].step_count > 0

    def test_healed_survivors_identical_to_clean_run(self, monkeypatch):
        traces, profiles = _workload(4)
        clean = serve_fleet(
            traces, 100.0, profiles=profiles, sessions_per_shard=4
        )
        real = fleet_mod._serve_shard_epoch

        def poisoned(job):
            if 2 in job.shard.indices:
                raise RuntimeError("worker down")
            return real(job)

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", poisoned)
        healed = fleet_mod.serve_fleet(
            traces,
            100.0,
            profiles=profiles,
            workers=1,
            sessions_per_shard=4,
            checkpoint_every_s=self.checkpoint_every_s,
        )
        for i in (0, 1, 3):
            assert [(e.index, e.time) for e in healed.sessions[i].steps] == [
                (e.index, e.time) for e in clean.sessions[i].steps
            ]

    def test_all_shards_poisoned_still_returns(self, monkeypatch):
        traces, profiles = _workload(2)

        def always_down(job):
            raise RuntimeError("rack on fire")

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", always_down)
        report = fleet_mod.serve_fleet(
            traces,
            100.0,
            profiles=profiles,
            sessions_per_shard=2,
            checkpoint_every_s=self.checkpoint_every_s,
        )
        assert report.status == "degraded"
        assert report.n_failed == 2
        assert all("rack on fire" in s.error for s in report.sessions)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill test relies on fork start method",
    )
    def test_killed_worker_process_recovers(self):
        # A shard whose worker dies (the hard failure mode: SIGKILL,
        # OOM) must be healed by bisection in a fresh pool, not crash
        # serve_fleet.
        traces, profiles = _workload(2, duration_s=10.0)
        report = _serve_with_kill(traces, profiles, self.checkpoint_every_s)
        assert len(report.sessions) == 2
        assert report.n_failed <= 1
        ok = [s for s in report.sessions if s.status == "ok"]
        assert ok  # at least one session survives the dead worker
        for s in report.sessions:
            if s.status == "failed":
                assert "BrokenProcessPool" in s.error or "Timeout" in s.error


class TestShardHealingCheckpointed(TestShardHealing):
    checkpoint_every_s = 2.0


# Captured at import time, before any test patches the module attr —
# _kill_if_marked must delegate to the real implementation.
_REAL_SERVE_SHARD = fleet_mod._serve_shard_epoch


def _kill_if_marked(job):
    import os
    import signal

    if job.shard.indices == [0]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_SERVE_SHARD(job)


def _serve_with_kill(traces, profiles, checkpoint_every_s):
    original = fleet_mod._serve_shard_epoch
    # Patch at module level so the fork-started workers inherit it.
    fleet_mod._serve_shard_epoch = _kill_if_marked  # type: ignore[assignment]
    try:
        return fleet_mod.serve_fleet(
            traces,
            100.0,
            profiles=profiles,
            workers=2,
            sessions_per_shard=1,
            shard_timeout_s=120.0,
            checkpoint_every_s=checkpoint_every_s,
        )
    finally:
        fleet_mod._serve_shard_epoch = original  # type: ignore[assignment]
