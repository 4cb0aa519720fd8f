"""Fleet serving: shard a pool of sessions across processes, and heal.

:func:`serve_fleet` drives N finished traces through N streaming
sessions at a fixed upload cadence. Sessions are partitioned into
contiguous shards, each shard is served by its own
:class:`~repro.serving.batch.BatchedSessionPool` inside a worker
process, and the per-session results are reassembled in fleet order.

Because every session's pipeline state is independent and the
fleet-batched kernels are composition-independent, the shard layout —
one process, many processes, any shard size — cannot change any
session's credited steps or strides; the serving tests assert this
identity against serially-driven :class:`StreamingPTrack` instances.

Fault tolerance is layered on three levels:

* **caller's process** — traces are validated eagerly before anything
  is sharded, so malformed input fails as a
  :class:`~repro.exceptions.ConfigurationError` here rather than a
  pickled traceback from a worker;
* **inside a shard** — the pool isolates per-session exceptions: a
  poisoned session is reported with ``status="failed"`` and its error
  while its shard-mates keep serving;
* **across shards** — a shard that dies wholesale (worker killed,
  timeout, crash during pool construction) is retried by *bisection*:
  split in half and re-served until the poison is cornered in a
  single-session shard, which is then reported failed. The healthy
  majority of the fleet always completes.

With ``checkpoint_every_s`` set, :func:`serve_fleet` becomes a
*rolling-restartable service* instead of a replay-only batch harness.
Serving proceeds in epochs; after each epoch every shard's pool is
snapshotted (``ptrack-session-v1``) together with the credits settled
so far, in memory or — with ``checkpoint_dir`` — in an atomic
:class:`~repro.serving.checkpoint.CheckpointStore`. A shard whose
worker dies mid-epoch (crash, SIGKILL, timeout — the
:class:`repro.faults.ShardCrash` surface) is *restored from its last
checkpoint* and replays only the lost epoch, with zero credit loss and
zero credit duplication; classic bisection from the original trace
remains the fallback when no usable checkpoint exists (first epoch,
torn checkpoint file, or an epoch that keeps dying). A
:class:`~repro.serving.rebalance.RebalancePolicy` may additionally
split overloaded shards between epochs, migrating live session state
through the same snapshot format without touching a single credit.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import PTrackConfig
from repro.exceptions import CalibrationError, ConfigurationError
from repro.faults.injectors import FaultInjector, plan_shard_crash
from repro.faults.policy import FaultPolicy
from repro.profiles import (
    IncrementalSelfTrainer,
    ProfileRecord,
    ProfileStore,
)
from repro.runtime import parallel_map_outcomes, resolve_workers
from repro.serving.checkpoint import (
    CheckpointStore,
    make_checkpoint,
    split_checkpoint,
)
from repro.serving.batch import BatchedSessionPool
from repro.serving.rebalance import RebalancePolicy, ShardEpochStats
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import trace_span
from repro.types import (
    CycleObservation,
    StepEvent,
    StrideEstimate,
    UserProfile,
)

__all__ = ["SessionReport", "FleetReport", "serve_fleet"]

#: Attempts a single-session shard gets before it is declared failed.
#: Two, because a shard's first failure can be collateral damage from
#: a sibling shard breaking the shared process pool.
_MAX_SHARD_ATTEMPTS = 2

@dataclass(frozen=True)
class SessionReport:
    """Outcome of serving one session end to end.

    Attributes:
        session_index: Position of the session in the fleet.
        steps: Credited step events (possibly partial when failed).
        strides: Credited stride estimates.
        status: ``"ok"`` or ``"failed"``.
        error: Recorded ``"ExcType: message"`` when failed.
        samples_repaired: Degraded-mode repairs in this session.
        samples_rejected: Samples quarantined and dropped.
        gaps_reset: Unrecoverable gaps that reset segmentation.
    """

    session_index: int
    steps: Tuple[StepEvent, ...]
    strides: Tuple[StrideEstimate, ...]
    status: str = "ok"
    error: Optional[str] = None
    samples_repaired: int = 0
    samples_rejected: int = 0
    gaps_reset: int = 0

    @property
    def step_count(self) -> int:
        """Steps credited to the session."""
        return len(self.steps)

    @property
    def distance_m(self) -> float:
        """Distance credited to the session."""
        return float(sum(s.length_m for s in self.strides))


@dataclass(frozen=True)
class FleetReport:
    """Outcome of serving a whole fleet.

    Attributes:
        sessions: Per-session reports in fleet order.
        n_samples: Samples across all input traces.
        shard_retries: Bisection rounds spent healing failed shards
            (0 on a clean run).
        telemetry: The fleet-wide metrics snapshot — per-shard
            registries merged across the process boundary, plus the
            fleet-level series (``serving_fleet_*``) — when
            ``serve_fleet(..., telemetry=True)``; ``None`` otherwise.
            Render it with :func:`repro.telemetry.to_json` /
            :func:`~repro.telemetry.to_prometheus` or
            :func:`repro.eval.reporting.fleet_health_table`.
        checkpoint_restores: Shard epochs recovered from a checkpoint
            instead of re-ingested (durable mode only).
        rebalances: Live shard splits applied by the rebalance policy
            (durable mode only).
        profiles_loaded: Sessions whose profile was warm-loaded from
            the fleet's :class:`~repro.profiles.ProfileStore`.
        profiles_updated: Profile-record write-backs committed by
            streaming self-training (``self_train=True``).
    """

    sessions: Tuple[SessionReport, ...]
    n_samples: int
    shard_retries: int = 0
    telemetry: Optional[Dict[str, Any]] = None
    checkpoint_restores: int = 0
    rebalances: int = 0
    profiles_loaded: int = 0
    profiles_updated: int = 0

    @property
    def status(self) -> str:
        """``"ok"``, or ``"degraded"`` when any session failed."""
        return "ok" if self.n_failed == 0 else "degraded"

    @property
    def n_failed(self) -> int:
        """Sessions that ended in ``status="failed"``."""
        return sum(1 for s in self.sessions if s.status != "ok")

    @property
    def total_steps(self) -> int:
        """Steps credited across the fleet."""
        return sum(s.step_count for s in self.sessions)

    @property
    def total_distance_m(self) -> float:
        """Distance credited across the fleet."""
        return float(sum(s.distance_m for s in self.sessions))

    @property
    def samples_repaired(self) -> int:
        """Degraded-mode repairs across the fleet."""
        return sum(s.samples_repaired for s in self.sessions)

    @property
    def samples_rejected(self) -> int:
        """Quarantined samples across the fleet."""
        return sum(s.samples_rejected for s in self.sessions)

    @property
    def gaps_reset(self) -> int:
        """Segmentation gap resets across the fleet."""
        return sum(s.gaps_reset for s in self.sessions)


#: Worker payload: everything needed to rebuild one shard's pool. The
#: final flag turns on the sessions' self-training observation tap
#: (``_split_shard`` keeps everything past the per-session triple as an
#: opaque tail, so appending fields here is split-safe).
_Shard = Tuple[
    List[int],
    List[np.ndarray],
    List[Optional[UserProfile]],
    float,
    Optional[PTrackConfig],
    float,
    float,
    int,
    Optional[FaultPolicy],
    bool,
    bool,
]


def _serve_shard(
    shard: _Shard,
) -> Tuple[
    List[SessionReport],
    Optional[Dict[str, Any]],
    Dict[int, List[CycleObservation]],
]:
    """Serve one shard of sessions through a pool (worker entry point).

    Module-level so it pickles for the process map; the payload
    carries everything a worker needs to rebuild its shard's pool.
    Per-session failures are contained by the pool and surfaced as
    ``status="failed"`` reports; only shard-level disasters (worker
    death, timeout) escape to the bisection layer above.

    With telemetry requested, the worker builds a fresh registry for
    its pool and ships the picklable snapshot home next to the
    reports; the caller merges snapshots across shards, which is how
    the fleet registry crosses process boundaries via ``parallel_map``.
    With the observation tap on, the drained self-training evidence
    travels home the same way, keyed by fleet index.
    """
    (
        indices,
        traces,
        profiles,
        sample_rate_hz,
        config,
        settle_s,
        max_buffer_s,
        batch_samples,
        fault_policy,
        telemetry,
        collect_observations,
    ) = shard
    registry = MetricsRegistry() if telemetry else None
    pool = BatchedSessionPool(
        sample_rate_hz,
        config=config,
        settle_s=settle_s,
        max_buffer_s=max_buffer_s,
        fault_policy=fault_policy,
        telemetry=registry,
        collect_observations=collect_observations,
    )
    sids = pool.add_sessions(profiles)
    steps: List[List[StepEvent]] = [[] for _ in sids]
    strides: List[List[StrideEstimate]] = [[] for _ in sids]

    # Time-aligned serving: at each upload tick, every session whose
    # trace still has samples contributes one batch to the pooled call.
    longest = max((t.shape[0] for t in traces), default=0)
    for offset in range(0, longest, batch_samples):
        live = [k for k, t in enumerate(traces) if offset < t.shape[0]]
        results = pool.append(
            [sids[k] for k in live],
            [traces[k][offset : offset + batch_samples] for k in live],
        )
        for k, (new_steps, new_strides) in zip(live, results):
            steps[k].extend(new_steps)
            strides[k].extend(new_strides)
    for k, (new_steps, new_strides) in enumerate(pool.flush(sids)):
        steps[k].extend(new_steps)
        strides[k].extend(new_strides)

    idx_of = {sid: indices[k] for k, sid in enumerate(sids)}
    observations = {
        idx_of[sid]: obs for sid, obs in pool.take_observations().items()
    }
    errors = pool.failed_sessions
    reports = []
    for k, sid in enumerate(sids):
        ops = pool.session(sid).op_stats
        reports.append(
            SessionReport(
                session_index=indices[k],
                steps=tuple(steps[k]),
                strides=tuple(strides[k]),
                status="failed" if sid in errors else "ok",
                error=errors.get(sid),
                samples_repaired=ops.samples_repaired,
                samples_rejected=ops.samples_rejected,
                gaps_reset=ops.gaps_reset,
            )
        )
    return (
        reports,
        registry.snapshot() if registry is not None else None,
        observations,
    )


def _split_shard(shard: _Shard) -> List[_Shard]:
    """Bisect a failed shard into two halves (for healing retries)."""
    indices, traces, profiles = shard[0], shard[1], shard[2]
    rest = shard[3:]
    mid = len(indices) // 2
    return [
        (indices[:mid], traces[:mid], profiles[:mid], *rest),
        (indices[mid:], traces[mid:], profiles[mid:], *rest),
    ]


def _heal_shards(
    shards: Sequence[_Shard],
    n_workers: int,
    shard_timeout_s: Optional[float],
) -> Tuple[
    Dict[int, SessionReport],
    List[Dict[str, Any]],
    int,
    Dict[int, List[CycleObservation]],
]:
    """Serve shards to completion with bisection healing (the classic
    replay-from-trace path).

    Every pending shard is served; a shard that fails wholesale is
    bisected and re-served from the original traces until the poison
    is cornered in a single-session shard, which gets
    :data:`_MAX_SHARD_ATTEMPTS` tries before being written off. Each
    round runs in a fresh pool, so a worker lost to a crash in round k
    cannot poison round k+1 — which also means a shard that failed only
    as *collateral* of a pool break deserves a clean retry before being
    written off. Terminates because splits strictly shrink shards and
    attempts are bounded.

    Returns ``(reports_by_index, telemetry_snapshots, retries,
    observations_by_index)`` — observations only from shards whose tap
    is on, delivered exactly once per successfully served shard.
    """
    results: Dict[int, SessionReport] = {}
    snapshots: List[Dict[str, Any]] = []
    observations: Dict[int, List[CycleObservation]] = {}
    retries = 0
    pending: List[Tuple[_Shard, int]] = [(shard, 0) for shard in shards]
    while pending:
        with trace_span("serve_fleet.healing_round"):
            if n_workers > 1 and any(attempts for _, attempts in pending):
                # Retry round: one pool per shard, so a culprit that
                # kills its worker cannot break the pool under its
                # innocent collateral siblings a second time.
                outcomes = []
                for shard, _ in pending:
                    outcomes.extend(
                        parallel_map_outcomes(
                            _serve_shard,
                            [shard],
                            workers=n_workers,
                            timeout_s=shard_timeout_s,
                        )
                    )
            else:
                outcomes = parallel_map_outcomes(
                    _serve_shard,
                    [shard for shard, _ in pending],
                    workers=n_workers,
                    timeout_s=shard_timeout_s,
                )
        next_round: List[Tuple[_Shard, int]] = []
        for (shard, attempts), outcome in zip(pending, outcomes):
            if outcome.ok:
                reports, snapshot, shard_obs = outcome.value
                for report in reports:
                    results[report.session_index] = report
                if snapshot is not None:
                    snapshots.append(snapshot)
                observations.update(shard_obs)
            elif len(shard[0]) > 1:
                next_round.extend((s, 0) for s in _split_shard(shard))
                retries += 1
            elif attempts + 1 < _MAX_SHARD_ATTEMPTS:
                next_round.append((shard, attempts + 1))
                retries += 1
            else:
                index = shard[0][0]
                results[index] = SessionReport(
                    session_index=index,
                    steps=(),
                    strides=(),
                    status="failed",
                    error=outcome.error,
                )
        pending = next_round
    return results, snapshots, retries, observations


# ----------------------------------------------------------------------
# Durable mode: epoch serving, checkpoint recovery, live rebalancing
# ----------------------------------------------------------------------

#: One epoch's worker payload: the static shard, the pool snapshot to
#: resume from (``None`` = first epoch, build fresh), the absolute
#: sample offset to start at, the tick budget, and an optional injected
#: crash directive ``(mode, position)``.
_EpochJob = Tuple[
    _Shard, Optional[Dict[str, Any]], int, int, Optional[Tuple[str, float]]
]


def _serve_shard_epoch(job: _EpochJob) -> Dict[str, Any]:
    """Serve one shard for one epoch (durable-mode worker entry point).

    Resumes the shard's pool from its snapshot (or builds it fresh on
    the first epoch), serves at most ``epoch_ticks`` upload ticks, and
    returns the new pool snapshot plus the credits settled *this
    epoch* — the driver owns accumulation, so a crashed attempt's
    partial work is simply never returned and the replay after restore
    cannot double-count. On the final epoch (the shard's traces are
    exhausted) the pool is flushed and per-session health travels home
    instead of a snapshot.
    """
    shard, pool_blob, start, epoch_ticks, crash = job
    (
        indices,
        traces,
        profiles,
        sample_rate_hz,
        config,
        settle_s,
        max_buffer_s,
        batch_samples,
        fault_policy,
        telemetry,
        collect_observations,
    ) = shard
    t0 = time.perf_counter()
    registry = MetricsRegistry() if telemetry else None
    if pool_blob is None:
        pool = BatchedSessionPool(
            sample_rate_hz,
            config=config,
            settle_s=settle_s,
            max_buffer_s=max_buffer_s,
            fault_policy=fault_policy,
            telemetry=registry,
            collect_observations=collect_observations,
        )
        sids = pool.add_sessions(profiles)
    else:
        pool = BatchedSessionPool.from_snapshot(pool_blob, telemetry=registry)
        sids = pool.session_ids
    steps: List[List[StepEvent]] = [[] for _ in sids]
    strides: List[List[StrideEstimate]] = [[] for _ in sids]

    longest = max((t.shape[0] for t in traces), default=0)
    end = min(longest, start + epoch_ticks * batch_samples)
    ticks = range(start, end, batch_samples)
    crash_tick = (
        min(len(ticks) - 1, int(crash[1] * len(ticks)))
        if crash is not None and len(ticks)
        else None
    )
    for tick, offset in enumerate(ticks):
        if crash_tick is not None and tick == crash_tick:
            if crash[0] == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError(
                f"injected shard crash at epoch tick {tick}"
            )
        live = [k for k, t in enumerate(traces) if offset < t.shape[0]]
        results = pool.append(
            [sids[k] for k in live],
            [traces[k][offset : offset + batch_samples] for k in live],
        )
        for k, (new_steps, new_strides) in zip(live, results):
            steps[k].extend(new_steps)
            strides[k].extend(new_strides)

    done = end >= longest
    health: Optional[List[Tuple]] = None
    blob: Optional[Dict[str, Any]] = None
    if done:
        for k, (new_steps, new_strides) in enumerate(pool.flush(sids)):
            steps[k].extend(new_steps)
            strides[k].extend(new_strides)
    # Drain the observation tap *before* snapshotting, so pending
    # evidence travels home exactly once: this epoch's result carries
    # it, and a resume from the snapshot starts with an empty tap.
    idx_of = {sid: indices[k] for k, sid in enumerate(sids)}
    observations = {
        idx_of[sid]: obs for sid, obs in pool.take_observations().items()
    }
    if done:
        errors = pool.failed_sessions
        health = []
        for sid in sids:
            ops = pool.session(sid).op_stats
            health.append(
                (
                    "failed" if sid in errors else "ok",
                    errors.get(sid),
                    ops.samples_repaired,
                    ops.samples_rejected,
                    ops.gaps_reset,
                )
            )
    else:
        blob = pool.snapshot()

    round_sum, round_count = 0.0, 0
    snapshot = None
    if registry is not None:
        snapshot = registry.snapshot()
        hist = snapshot["histograms"].get("serving_pool_round_seconds")
        if hist is not None:
            round_sum = float(hist["sum"])
            round_count = int(hist["count"])
    return {
        "done": done,
        "next_offset": end,
        "pool": blob,
        "steps": steps,
        "strides": strides,
        "health": health,
        "observations": observations,
        "telemetry": snapshot,
        "elapsed_s": time.perf_counter() - t0,
        "round_seconds_sum": round_sum,
        "round_seconds_count": round_count,
    }


class _ProfileCtx:
    """Driver-side streaming self-training state for one fleet run.

    Owns the per-user :class:`IncrementalSelfTrainer` instances (warm-
    started from persisted ``trainer_state``), the compare-and-swap
    version map against the :class:`~repro.profiles.ProfileStore`, and
    the write-back policy. Lives only in the caller's process — workers
    ship raw observations home, the driver trains and persists, and
    live sessions are never touched, so the credit stream is invariant
    to everything this context does.
    """

    def __init__(
        self,
        store: ProfileStore,
        user_ids: Sequence[Optional[str]],
        records: Dict[str, ProfileRecord],
        config: Optional[PTrackConfig],
    ) -> None:
        self.store = store
        self.user_ids = list(user_ids)
        self.records: Dict[str, Optional[ProfileRecord]] = dict(records)
        self.expected: Dict[str, int] = {}
        self.trainers: Dict[str, IncrementalSelfTrainer] = {}
        self.updated = 0
        for uid in dict.fromkeys(u for u in self.user_ids if u is not None):
            record = records.get(uid)
            self.expected[uid] = 0 if record is None else record.version
            if record is not None and record.trainer_state is not None:
                self.trainers[uid] = IncrementalSelfTrainer.from_state(
                    record.trainer_state, config=config
                )
            else:
                self.trainers[uid] = IncrementalSelfTrainer(config=config)

    def feed(
        self, observations: Dict[int, List[CycleObservation]]
    ) -> Set[str]:
        """Feed fleet-indexed observations to their users' trainers;
        returns the user ids that received anything."""
        fed: Set[str] = set()
        for index, obs in observations.items():
            uid = self.user_ids[index]
            if uid is None or not obs:
                continue
            self.trainers[uid].observe(obs)
            fed.add(uid)
        return fed

    def write_back(self, user_ids: Set[str]) -> None:
        """Persist the named users' records with compare-and-swap.

        Policy: a full two-step estimate replaces the whole profile; an
        arm-only estimate refines ``arm_length_m`` on an existing
        profile; with neither, the record still carries the updated
        ``trainer_state`` so a later run (or a calibration walk) picks
        up exactly where this stream left off. A
        :class:`~repro.exceptions.ProfileConflictError` propagates —
        it means an external writer raced this fleet, and silently
        overwriting either side would lose training evidence.
        """
        for uid in sorted(user_ids):
            trainer = self.trainers[uid]
            try:
                est = trainer.estimate()
            except CalibrationError:
                est = None
            previous = self.records.get(uid)
            profile = None if previous is None else previous.profile
            if est is not None and est.profile is not None:
                profile = est.profile
            elif est is not None and profile is not None:
                profile = replace(profile, arm_length_m=est.arm_length_m)
            committed = self.store.put(
                ProfileRecord(
                    user_id=uid,
                    profile=profile,
                    observations=trainer.observations,
                    referenced_walks=trainer.referenced_walks,
                    confidence=(
                        est.confidence
                        if est is not None
                        else trainer.confidence()
                    ),
                    cadence_hz=(
                        None if previous is None else previous.cadence_hz
                    ),
                    trainer_state=trainer.state_dict(),
                ),
                expected_version=self.expected[uid],
            )
            self.expected[uid] = committed.version
            self.records[uid] = committed
            self.updated += 1

    def shard_versions(self, indices: Sequence[int]) -> Dict[str, int]:
        """Current committed version per user serving in a shard."""
        return {
            uid: self.expected[uid]
            for uid in dict.fromkeys(
                self.user_ids[i] for i in indices
            )
            if uid is not None
        }

    def check_restored(
        self, checkpoint: Dict[str, Any], indices: Sequence[int]
    ) -> None:
        """Fail loud when a crash-restore would resume over profiles an
        external writer advanced: the shard's sessions were built from
        versions this run loaded, so a version the store has since
        moved past means the resumed stream would serve (and this run
        would keep training against) superseded state."""
        pinned = checkpoint.get("profiles", {})
        stale = []
        for uid in sorted(self.shard_versions(indices)):
            record = self.store.get(uid)
            current = 0 if record is None else record.version
            if current != self.expected[uid]:
                detail = (
                    f", checkpoint pinned v{pinned[uid]}"
                    if uid in pinned
                    else ""
                )
                stale.append(
                    f"{uid!r} (this run holds v{self.expected[uid]}, "
                    f"store has v{current}{detail})"
                )
        if stale:
            raise ConfigurationError(
                "durable restore refused — the profile store advanced "
                "past this run's versions for " + "; ".join(stale)
                + ". An external writer updated these users mid-run; "
                "restart serve_fleet to warm-load the current profiles."
            )


@dataclass
class _DurableShard:
    """Driver-side bookkeeping for one shard across epochs."""

    sid: int
    shard: _Shard
    ckpt: Optional[Dict[str, Any]] = None
    epoch: int = 0
    attempt: int = 0
    crashes: int = 0
    #: Epochs whose drained observations were already fed to the
    #: driver's trainers. A replay (crash recovery or from-scratch
    #: re-ingest) regenerates bit-identical observations for epochs
    #: below this mark, so the driver skips re-feeding them — the
    #: exactly-once contract for self-training evidence.
    obs_fed: int = 0
    #: From-scratch re-ingests (checkpoint lost/torn). Offsets the
    #: fault-plan attempt coordinate so replayed epochs re-roll as
    #: retries instead of deterministically re-dying.
    restarts: int = 0
    last: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        """Stable checkpoint key."""
        return f"shard-{self.sid}"


def _serve_fleet_durable(
    shards: List[_Shard],
    n: int,
    n_workers: int,
    shard_timeout_s: Optional[float],
    telemetry: bool,
    sample_rate_hz: float,
    batch_samples: int,
    checkpoint_every_s: float,
    checkpoint_dir: Optional[os.PathLike],
    rebalance: Optional[RebalancePolicy],
    shard_faults: Sequence[FaultInjector],
    fault_seed: int,
    profile_ctx: Optional[_ProfileCtx] = None,
) -> Tuple[Dict[int, SessionReport], List[Dict[str, Any]], int, int, int]:
    """Drive the fleet epoch by epoch with checkpoint recovery.

    Returns ``(reports_by_index, telemetry_snapshots, retries,
    restores, rebalances)``. The credit stream is bit-identical to the
    classic path: epochs only partition the same append sequence, the
    flush still happens exactly once at each shard's end of stream, and
    crash recovery replays from a snapshot proven bit-identical by the
    resume oracle.
    """
    epoch_ticks = max(
        1, int(round(checkpoint_every_s * sample_rate_hz / batch_samples))
    )
    driver_reg = MetricsRegistry() if telemetry else None
    store = (
        CheckpointStore(
            checkpoint_dir,
            blob_faults=shard_faults,
            seed=fault_seed,
            telemetry=driver_reg,
        )
        if checkpoint_dir is not None
        else None
    )
    states = [
        _DurableShard(sid=i, shard=shard) for i, shard in enumerate(shards)
    ]
    next_sid = len(states)
    results: Dict[int, SessionReport] = {}
    snapshots: List[Dict[str, Any]] = []
    retries = restores = rebalances = 0
    active = list(states)

    while active:
        jobs: List[_EpochJob] = []
        for st in active:
            # Replays after a from-scratch restart draw as retries:
            # the crash plan is a pure function of (sid, epoch,
            # attempt), so without the restart offset a shard whose
            # checkpoint was lost would re-cross its fatal epoch at
            # the original coordinates and deterministically re-die.
            crash = (
                plan_shard_crash(
                    shard_faults,
                    fault_seed,
                    st.sid,
                    st.epoch,
                    st.attempt + st.restarts,
                )
                if shard_faults
                else None
            )
            if crash is not None and crash[0] == "kill" and n_workers == 1:
                # In-process serving has no worker to kill; degrade to
                # the exception flavour so the recovery path still runs.
                crash = ("raise", crash[1])
            start = st.ckpt["next_offset"] if st.ckpt is not None else 0
            blob = st.ckpt["pool"] if st.ckpt is not None else None
            jobs.append((st.shard, blob, start, epoch_ticks, crash))
        with trace_span("serve_fleet.epoch"):
            if n_workers > 1 and any(st.attempt for st in active):
                # Recovery round: isolate each shard in its own pool so
                # a repeat offender cannot re-break its siblings' round.
                outcomes = []
                for job in jobs:
                    outcomes.extend(
                        parallel_map_outcomes(
                            _serve_shard_epoch,
                            [job],
                            workers=n_workers,
                            timeout_s=shard_timeout_s,
                        )
                    )
            else:
                outcomes = parallel_map_outcomes(
                    _serve_shard_epoch,
                    jobs,
                    workers=n_workers,
                    timeout_s=shard_timeout_s,
                )

        survivors: List[_DurableShard] = []
        epoch_stats: List[ShardEpochStats] = []
        for st, outcome in zip(active, outcomes):
            if outcome.ok:
                res = outcome.value
                prev = st.ckpt
                acc_steps = (
                    [list(s) for s in prev["steps"]]
                    if prev is not None
                    else [[] for _ in st.shard[0]]
                )
                acc_strides = (
                    [list(s) for s in prev["strides"]]
                    if prev is not None
                    else [[] for _ in st.shard[0]]
                )
                for k in range(len(st.shard[0])):
                    acc_steps[k].extend(res["steps"][k])
                    acc_strides[k].extend(res["strides"][k])
                st.epoch += 1
                st.attempt = 0
                st.last = res
                if res["telemetry"] is not None:
                    snapshots.append(res["telemetry"])
                # Streaming self-training: feed this epoch's drained
                # observations once (replayed epochs are below the
                # obs_fed mark and skipped) and persist the touched
                # users before the checkpoint commits, so the pinned
                # versions are always the post-write-back ones.
                if profile_ctx is not None:
                    fed: Set[str] = set()
                    if st.epoch > st.obs_fed and res["observations"]:
                        fed = profile_ctx.feed(res["observations"])
                    st.obs_fed = max(st.obs_fed, st.epoch)
                    if fed:
                        profile_ctx.write_back(fed)
                if res["done"]:
                    for k, index in enumerate(st.shard[0]):
                        status, error, repaired, rejected, gaps = res[
                            "health"
                        ][k]
                        results[index] = SessionReport(
                            session_index=index,
                            steps=tuple(acc_steps[k]),
                            strides=tuple(acc_strides[k]),
                            status=status,
                            error=error,
                            samples_repaired=repaired,
                            samples_rejected=rejected,
                            gaps_reset=gaps,
                        )
                    if store is not None:
                        store.delete(st.name)
                else:
                    st.ckpt = make_checkpoint(
                        res["pool"],
                        res["next_offset"],
                        acc_steps,
                        acc_strides,
                        st.epoch,
                    )
                    if profile_ctx is not None:
                        st.ckpt["profiles"] = profile_ctx.shard_versions(
                            st.shard[0]
                        )
                    if store is not None:
                        store.save(st.name, st.ckpt)
                    survivors.append(st)
                    epoch_stats.append(
                        ShardEpochStats(
                            shard_id=st.sid,
                            n_sessions=len(st.shard[0]),
                            elapsed_s=float(res["elapsed_s"]),
                            round_seconds_sum=res["round_seconds_sum"],
                            round_seconds_count=res["round_seconds_count"],
                            crashes=st.crashes,
                        )
                    )
                continue

            # Shard-level death: restore from the last checkpoint and
            # replay the lost epoch; exhaust the attempt budget and the
            # shard falls back to classic bisection from the trace.
            st.crashes += 1
            st.attempt += 1
            if st.attempt >= _MAX_SHARD_ATTEMPTS:
                # Bisection re-serves the whole trace, but earlier
                # epochs' observations were already fed — re-run the
                # fallback with the tap off so self-training evidence
                # stays exactly-once (this shard simply contributes no
                # further evidence).
                fallback = st.shard[:10] + (False,)
                healed, heal_snaps, heal_retries, _ = _heal_shards(
                    [fallback], n_workers, shard_timeout_s
                )
                results.update(healed)
                snapshots.extend(heal_snaps)
                retries += heal_retries + 1
                if store is not None:
                    store.delete(st.name)
                continue
            if store is not None:
                # Disk is authoritative in persistent mode — the torn-
                # checkpoint path reads as a miss here, dropping the
                # shard back to a from-scratch re-ingest.
                st.ckpt = store.load(st.name)
                if st.ckpt is None and st.epoch > 0:
                    st.restarts += 1
                st.epoch = st.ckpt["epoch"] if st.ckpt is not None else 0
            if st.ckpt is not None:
                if profile_ctx is not None:
                    # Fail loud before resuming over profiles an
                    # external writer advanced mid-run.
                    profile_ctx.check_restored(st.ckpt, st.shard[0])
                restores += 1
            survivors.append(st)

        # Live rebalancing: split overloaded shards between epochs by
        # splitting their checkpoints (pool snapshot + settled credits),
        # so the migrated sessions resume bit-identically on the new
        # shard and no credit is lost or duplicated.
        if rebalance is not None and epoch_stats:
            by_sid = {st.sid: st for st in survivors}
            for sid in rebalance.plan(epoch_stats):
                st = by_sid.get(sid)
                if st is None or st.ckpt is None or len(st.shard[0]) < 2:
                    continue
                mid = len(st.shard[0]) // 2
                left_ck, right_ck = split_checkpoint(st.ckpt, mid)
                left_shard, right_shard = _split_shard(st.shard)
                right = _DurableShard(
                    sid=next_sid,
                    shard=right_shard,
                    ckpt=right_ck,
                    epoch=st.epoch,
                    crashes=st.crashes,
                    obs_fed=st.obs_fed,
                )
                next_sid += 1
                st.shard = left_shard
                st.ckpt = left_ck
                if store is not None:
                    store.save(st.name, left_ck)
                    store.save(right.name, right_ck)
                survivors.append(right)
                rebalances += 1
        active = survivors

    if driver_reg is not None:
        snapshots.append(driver_reg.snapshot())
    return results, snapshots, retries, restores, rebalances


def _validate_traces(
    traces: Sequence[np.ndarray],
    fault_policy: Optional[FaultPolicy],
) -> List[np.ndarray]:
    """Validate and normalise all traces in the caller's process.

    Shape, dtype and (in strict mode) finiteness problems surface here
    as :class:`ConfigurationError` naming the offending trace — not as
    a pickled :class:`SignalError` traceback out of a worker shard.
    """
    validated: List[np.ndarray] = []
    for i, trace in enumerate(traces):
        try:
            arr = np.asarray(trace)
        except Exception as exc:  # ragged nests, exotic objects
            raise ConfigurationError(
                f"trace {i} is not array-like: {exc}"
            ) from None
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ConfigurationError(
                f"trace {i} must have shape (n, 3), got {arr.shape}"
            )
        if not (
            np.issubdtype(arr.dtype, np.floating)
            or np.issubdtype(arr.dtype, np.integer)
            or np.issubdtype(arr.dtype, np.bool_)
        ):
            raise ConfigurationError(
                f"trace {i} dtype {arr.dtype} is not float-convertible"
            )
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if fault_policy is None and not np.all(np.isfinite(arr)):
            raise ConfigurationError(
                f"trace {i} contains non-finite values; pass "
                "fault_policy=FaultPolicy(...) to serve faulted traces "
                "in degraded mode"
            )
        validated.append(arr)
    return validated


def serve_fleet(
    traces: Sequence[np.ndarray],
    sample_rate_hz: float,
    profiles: Optional[Sequence[Optional[UserProfile]]] = None,
    config: Optional[PTrackConfig] = None,
    batch_samples: int = 50,
    settle_s: float = 2.5,
    max_buffer_s: float = 30.0,
    workers: Optional[int] = None,
    sessions_per_shard: Optional[int] = None,
    fault_policy: Optional[FaultPolicy] = None,
    shard_timeout_s: Optional[float] = None,
    telemetry: bool = False,
    checkpoint_every_s: Optional[float] = None,
    checkpoint_dir: Optional[os.PathLike] = None,
    rebalance: Optional[RebalancePolicy] = None,
    shard_faults: Optional[Sequence[FaultInjector]] = None,
    fault_seed: int = 0,
    user_ids: Optional[Sequence[Optional[str]]] = None,
    profile_store: Optional[ProfileStore] = None,
    self_train: bool = False,
) -> FleetReport:
    """Serve one trace per session through a self-healing session fleet.

    Args:
        traces: One (n, 3) float-convertible array per session.
        sample_rate_hz: Sampling rate shared by the fleet.
        profiles: Optional per-session user profiles (enables stride
            estimation); ``None`` serves step counting only.
        config: Shared PTrack configuration.
        batch_samples: Upload cadence in samples — how many samples
            each device ships per ingest tick (50 at 100 Hz models the
            0.5 s BLE upload interval of a wearable deployment).
        settle_s: Settle horizon for every session.
        max_buffer_s: Rolling-buffer bound for every session.
        workers: Worker processes, resolved like
            :func:`repro.runtime.resolve_workers`; 1 serves in-process.
        sessions_per_shard: Shard granularity; default spreads the
            fleet evenly over the resolved workers.
        fault_policy: Degraded-mode ingest policy for every session;
            required to serve traces with non-finite samples.
        shard_timeout_s: Wall-clock budget per healing round; a shard
            not finished in time is treated as failed and bisected.
            Enforced only with ``workers > 1``.
        telemetry: Collect a fleet-wide metrics snapshot: every shard
            serves under its own in-worker registry, snapshots travel
            home with the shard results, and the merge (additive
            counters/histograms, max gauges) plus the fleet-level
            ``serving_fleet_*`` series land on
            :attr:`FleetReport.telemetry`. Counter totals are
            deterministic and shard-layout-invariant on clean runs;
            histograms are not (latency is wall-clock, and the
            ``serving_batch_round_occupancy`` distribution follows
            the shard layout).
        checkpoint_every_s: Enable *durable mode*: serve in epochs of
            this many stream-seconds, snapshotting every shard's pool
            (``ptrack-session-v1``) plus its settled credits after each
            epoch. A shard lost mid-epoch restores from its last
            checkpoint and replays only the lost epoch instead of
            re-ingesting; repeated failure falls back to classic
            bisection from the trace. ``None`` (default) keeps the
            classic single-pass path byte for byte.
        checkpoint_dir: Persist checkpoints to this directory through
            an atomic :class:`~repro.serving.checkpoint.CheckpointStore`
            (created if missing). The disk copy is authoritative on
            recovery: a torn file reads as a miss and drops the shard
            back to re-ingest. ``None`` keeps checkpoints in memory.
            Requires ``checkpoint_every_s``.
        rebalance: A :class:`~repro.serving.rebalance.RebalancePolicy`
            consulted after every epoch; shards it plans to split are
            halved live, with the new shard seeded from the split
            checkpoint so migrated sessions resume bit-identically.
            Requires ``checkpoint_every_s``.
        shard_faults: Fault injectors with shard-level surfaces
            (:class:`repro.faults.ShardCrash` kills or raises inside a
            worker epoch, :class:`repro.faults.TornCheckpoint` corrupts
            checkpoint writes), driven deterministically from
            ``fault_seed``. Requires ``checkpoint_every_s``.
        fault_seed: Base seed for the ``shard_faults`` derivation.
        user_ids: Optional per-session user identity (aligned with
            ``traces``; ``None`` entries are anonymous). With a
            ``profile_store``, a named session whose ``profiles`` entry
            is ``None`` warm-loads the user's stored profile, so a
            fleet restart serves with everything previously learned.
            The warm-loaded values feed the exact same session
            constructor as directly-passed profiles — credits are
            bit-identical either way.
        profile_store: The :class:`~repro.profiles.ProfileStore`
            backing warm-loads and self-training write-backs. Requires
            ``user_ids``.
        self_train: Stream every session's credited-cycle observations
            back to driver-side
            :class:`~repro.profiles.IncrementalSelfTrainer` instances
            (one per user, warm-started from persisted
            ``trainer_state``) and persist updated profile records with
            compare-and-swap — at every checkpoint epoch in durable
            mode, once at completion on the classic path. Observations
            are delivered exactly once even across crash replays; live
            sessions are never retouched, so the credit stream is
            invariant to self-training. Requires ``profile_store``.

    Returns:
        A :class:`FleetReport` with per-session results in fleet
        order; sessions lost to poison report ``status="failed"``
        instead of raising.

    Raises:
        ConfigurationError: On malformed traces, mismatched lengths,
            or a bad cadence — always from the caller's process.
    """
    n = len(traces)
    if profiles is None:
        profiles = [None] * n
    if len(profiles) != n:
        raise ConfigurationError(
            f"{n} traces but {len(profiles)} profiles"
        )
    if user_ids is not None and len(user_ids) != n:
        raise ConfigurationError(
            f"{n} traces but {len(user_ids)} user ids"
        )
    if profile_store is not None and user_ids is None:
        raise ConfigurationError(
            "profile_store without user_ids — the store is keyed by "
            "user; pass user_ids aligned with traces"
        )
    if user_ids is not None and profile_store is None:
        raise ConfigurationError(
            "user_ids without profile_store — identities only matter "
            "for profile warm-loads and write-backs; pass "
            "profile_store=ProfileStore(...)"
        )
    if self_train and profile_store is None:
        raise ConfigurationError(
            "self_train requires profile_store and user_ids — trained "
            "profiles must have somewhere durable to go"
        )
    if batch_samples < 1:
        raise ConfigurationError(
            f"batch_samples must be >= 1, got {batch_samples}"
        )
    if checkpoint_every_s is None:
        for arg, name in (
            (checkpoint_dir, "checkpoint_dir"),
            (rebalance, "rebalance"),
            (shard_faults, "shard_faults"),
        ):
            if arg is not None:
                raise ConfigurationError(
                    f"{name} requires durable mode; also pass "
                    "checkpoint_every_s=<epoch seconds>"
                )
    elif checkpoint_every_s <= 0:
        raise ConfigurationError(
            f"checkpoint_every_s must be > 0, got {checkpoint_every_s}"
        )
    if n == 0:
        snap = MetricsRegistry().snapshot() if telemetry else None
        return FleetReport(sessions=(), n_samples=0, telemetry=snap)
    with trace_span("serve_fleet.validate"):
        validated = _validate_traces(traces, fault_policy)

    # Profile warm-load: resolve stored profiles in the caller's
    # process (one get_many, each shard file touched once) so workers
    # receive plain UserProfile values — the exact constructor path a
    # directly-passed profile takes, keeping credits bit-identical.
    profiles = list(profiles)
    profiles_loaded = 0
    profile_ctx: Optional[_ProfileCtx] = None
    if profile_store is not None:
        assert user_ids is not None  # validated above
        unique_ids = list(
            dict.fromkeys(u for u in user_ids if u is not None)
        )
        records = profile_store.get_many(unique_ids)
        for i, uid in enumerate(user_ids):
            if uid is None or profiles[i] is not None:
                continue
            record = records.get(uid)
            if record is not None and record.profile is not None:
                profiles[i] = record.profile
                profiles_loaded += 1
        if self_train:
            profile_ctx = _ProfileCtx(
                profile_store, user_ids, records, config
            )

    n_workers = resolve_workers(workers)
    if sessions_per_shard is None:
        sessions_per_shard = max(1, -(-n // n_workers))
    elif sessions_per_shard < 1:
        raise ConfigurationError(
            f"sessions_per_shard must be >= 1, got {sessions_per_shard}"
        )
    shards: List[_Shard] = [
        (
            list(range(lo, min(lo + sessions_per_shard, n))),
            validated[lo : lo + sessions_per_shard],
            list(profiles[lo : lo + sessions_per_shard]),
            sample_rate_hz,
            config,
            settle_s,
            max_buffer_s,
            batch_samples,
            fault_policy,
            telemetry,
            profile_ctx is not None,
        )
        for lo in range(0, n, sessions_per_shard)
    ]

    restores = rebalances = 0
    if checkpoint_every_s is not None:
        results, snapshots, retries, restores, rebalances = (
            _serve_fleet_durable(
                shards,
                n,
                n_workers,
                shard_timeout_s,
                telemetry,
                sample_rate_hz,
                batch_samples,
                checkpoint_every_s,
                checkpoint_dir,
                rebalance,
                list(shard_faults) if shard_faults else [],
                fault_seed,
                profile_ctx,
            )
        )
    else:
        # Classic path: one pass per shard, bisection healing on
        # wholesale failure.
        results, snapshots, retries, fleet_obs = _heal_shards(
            shards, n_workers, shard_timeout_s
        )
        if profile_ctx is not None and fleet_obs:
            profile_ctx.write_back(profile_ctx.feed(fleet_obs))

    sessions = tuple(results[i] for i in range(n))
    merged: Optional[Dict[str, Any]] = None
    if telemetry:
        fleet_reg = MetricsRegistry()
        for snapshot in snapshots:
            fleet_reg.merge(snapshot)
        # Fleet-level series the shards cannot see: the healing layer's
        # own activity and the terminal per-session outcomes.
        fleet_reg.gauge("serving_fleet_sessions").set(n)
        fleet_reg.counter("serving_fleet_shard_retries_total").inc(retries)
        fleet_reg.counter("serving_fleet_sessions_failed_total").inc(
            sum(1 for s in sessions if s.status != "ok")
        )
        if checkpoint_every_s is not None:
            fleet_reg.counter(
                "serving_fleet_checkpoint_restores_total"
            ).inc(restores)
            fleet_reg.counter("serving_fleet_rebalances_total").inc(
                rebalances
            )
        if profile_store is not None:
            fleet_reg.counter("serving_fleet_profiles_loaded_total").inc(
                profiles_loaded
            )
            fleet_reg.counter(
                "serving_fleet_profiles_updated_total"
            ).inc(profile_ctx.updated if profile_ctx is not None else 0)
        merged = fleet_reg.snapshot()

    return FleetReport(
        sessions=sessions,
        n_samples=int(sum(t.shape[0] for t in validated)),
        shard_retries=retries,
        telemetry=merged,
        checkpoint_restores=restores,
        rebalances=rebalances,
        profiles_loaded=profiles_loaded,
        profiles_updated=(
            profile_ctx.updated if profile_ctx is not None else 0
        ),
    )
