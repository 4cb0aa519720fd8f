"""Fleet serving: shard a pool of sessions across processes, and heal.

:func:`serve_fleet` drives N finished traces through N streaming
sessions at a fixed upload cadence. Sessions are partitioned into
contiguous shards, each shard is served by its own
:class:`~repro.serving.pool.SessionPool` inside a worker
process, and the per-session results are reassembled in fleet order.

Because every session's pipeline state is independent and the
fleet-batched kernels are composition-independent, the shard layout —
one process, many processes, any shard size — cannot change any
session's credited steps or strides; the serving tests assert this
identity against serially-driven :class:`StreamingPTrack` instances.

Every fleet is served by one loop that runs in *epochs* of upload
ticks. With ``checkpoint_every_s`` set, an epoch lasts that many
stream-seconds and every shard's pool is snapshotted
(``ptrack-session-v1``) together with how many credits each session
has settled, in memory or — with ``checkpoint_dir`` — in an atomic
:class:`~repro.serving.checkpoint.CheckpointStore`; without it, one
epoch covers the longest trace and no checkpoint is taken. The driver
owns the settled credits themselves. Served in-process, a shard's next
epoch continues its live pool; a worker process resumes the snapshot.

Fault tolerance is layered on three levels:

* **caller's process** — traces and serving arguments are validated
  eagerly before anything is sharded, so malformed input fails as a
  :class:`~repro.exceptions.ConfigurationError` here rather than a
  pickled traceback from a worker;
* **inside a shard** — the pool isolates per-session exceptions: a
  poisoned session is reported with ``status="failed"`` and its error
  while its shard-mates keep serving;
* **across shards** — a shard whose worker dies mid-epoch (crash,
  SIGKILL, timeout — the :class:`repro.faults.ShardCrash` surface) is
  *restored from its last checkpoint* and replays only the lost epoch,
  with zero credit loss and zero credit duplication, or re-served from
  the trace when it has no usable checkpoint (first epoch, torn
  checkpoint file). A shard that fails :data:`_MAX_SHARD_ATTEMPTS`
  times is *bisected*: two fresh halves re-serve from the trace until
  the poison is cornered in a single-session shard, which is then
  reported failed. The healthy majority of the fleet always completes.

A :class:`~repro.serving.rebalance.RebalancePolicy` may additionally
split overloaded shards between epochs, migrating live session state
through the same snapshot format without touching a single credit.
"""

from __future__ import annotations

import math
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
from repro.serving.pool import SessionPool
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
        shard_retries: Shard re-serves from the start of the trace —
            a failed shard retried with no checkpoint to resume from,
            or bisected into two halves (0 on a clean run).
        telemetry: The fleet-wide metrics snapshot — per-shard
            registries merged across the process boundary, plus the
            fleet-level series (``serving_fleet_*``) — when
            ``serve_fleet(..., telemetry=True)``; ``None`` otherwise.
            Render it with :func:`repro.telemetry.to_json` /
            :func:`~repro.telemetry.to_prometheus` or
            :func:`repro.eval.reporting.fleet_health_table`.
        checkpoint_restores: Shard epochs recovered from a checkpoint
            instead of re-ingested (0 without ``checkpoint_every_s``).
        rebalances: Live shard splits applied by the rebalance policy
            (0 without one).
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


@dataclass(frozen=True)
class _ServeSpec:
    """Serving settings shared by every shard of one fleet run."""

    sample_rate_hz: float
    config: Optional[PTrackConfig]
    settle_s: float
    max_buffer_s: float
    batch_samples: int
    fault_policy: Optional[FaultPolicy]
    telemetry: bool
    #: Turns on the sessions' self-training observation tap.
    collect_observations: bool


@dataclass(frozen=True)
class _ShardData:
    """One shard's sessions: fleet indices with their traces and
    profiles, aligned."""

    indices: List[int]
    traces: List[np.ndarray]
    profiles: List[Optional[UserProfile]]

    def halves(self) -> Tuple["_ShardData", "_ShardData"]:
        """Split at ``len // 2`` — the cut :func:`split_checkpoint`
        applies to the shard's checkpoint."""
        mid = len(self.indices) // 2
        return (
            _ShardData(
                self.indices[:mid], self.traces[:mid], self.profiles[:mid]
            ),
            _ShardData(
                self.indices[mid:], self.traces[mid:], self.profiles[mid:]
            ),
        )


@dataclass(frozen=True)
class _EpochJob:
    """One epoch's worker payload.

    Attributes:
        shard: The sessions to serve.
        spec: The fleet's serving settings.
        pool: Pool snapshot to resume from when there is no ``live``
            pool; ``None`` builds the pool fresh (the shard's first
            epoch).
        start: Absolute sample offset the epoch starts at.
        epoch_ticks: Upload-tick budget of the epoch.
        crash: Injected crash directive ``(mode, position)``.
        live: The shard's pool as the previous epoch left it, to go
            on serving (in-process only; never pickled).
        keep_live: Return the pool with the result for the next
            epoch to continue (in-process only).
    """

    shard: _ShardData
    spec: _ServeSpec
    pool: Optional[Dict[str, Any]]
    start: int
    epoch_ticks: int
    crash: Optional[Tuple[str, float]]
    live: Optional[SessionPool] = None
    keep_live: bool = False


def _serve_shard_epoch(job: _EpochJob) -> Dict[str, Any]:
    """Serve one shard for one epoch (the worker entry point).

    Module-level so it pickles for the process map. Continues the
    shard's live pool in-process, or resumes it from its snapshot (or
    builds it fresh on the first epoch), serves at most
    ``epoch_ticks`` upload ticks, and returns the new pool snapshot
    plus the credits settled *this epoch* — the driver owns
    accumulation, so a crashed attempt's partial work is simply never
    returned and the replay after restore cannot double-count. On the
    final epoch (the shard's traces are exhausted) the pool is flushed
    and per-session health travels home instead of a snapshot.

    Per-session failures are contained by the pool and surface as
    ``status="failed"`` health; only shard-level disasters (worker
    death, timeout) escape to the driver. With telemetry requested,
    the worker serves under a fresh registry and ships its snapshot
    home for the driver to merge; with the observation tap on, the
    drained self-training evidence travels home keyed by fleet index.
    """
    shard, spec = job.shard, job.spec
    t0 = time.perf_counter()
    registry = MetricsRegistry() if spec.telemetry else None
    if job.live is not None:
        # The epoch reports only its own work, as a pool rebuilt under
        # this registry would.
        pool = job.live
        pool._bind_telemetry(registry)
        sids = pool.session_ids
    elif job.pool is None:
        pool = SessionPool(
            spec.sample_rate_hz,
            config=spec.config,
            settle_s=spec.settle_s,
            max_buffer_s=spec.max_buffer_s,
            fault_policy=spec.fault_policy,
            telemetry=registry,
            collect_observations=spec.collect_observations,
        )
        sids = pool.add_sessions(shard.profiles)
    else:
        pool = SessionPool.from_snapshot(job.pool, telemetry=registry)
        sids = pool.session_ids
    steps: List[List[StepEvent]] = [[] for _ in sids]
    strides: List[List[StrideEstimate]] = [[] for _ in sids]

    # Time-aligned serving: at each upload tick, every session whose
    # trace still has samples contributes one batch to the pooled call.
    traces, batch = shard.traces, spec.batch_samples
    longest = max((t.shape[0] for t in traces), default=0)
    end = min(longest, job.start + job.epoch_ticks * batch)
    ticks = range(job.start, end, batch)
    crash = job.crash
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
            [traces[k][offset : offset + batch] for k in live],
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
    idx_of = {sid: shard.indices[k] for k, sid in enumerate(sids)}
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
        "live": pool if job.keep_live and not done else None,
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
class _FleetShard:
    """Driver-side bookkeeping for one shard across epochs."""

    sid: int
    shard: _ShardData
    ckpt: Optional[Dict[str, Any]] = None
    epoch: int = 0
    attempt: int = 0
    crashes: int = 0
    #: Epochs whose drained observations were already fed to the
    #: driver's trainers. A replay (crash recovery, from-scratch
    #: re-ingest, or a bisected half re-serving from the trace)
    #: regenerates bit-identical observations for epochs below this
    #: mark, so the driver skips re-feeding them — the exactly-once
    #: contract for self-training evidence.
    obs_fed: int = 0
    #: From-scratch re-ingests (checkpoint lost/torn). Offsets the
    #: fault-plan attempt coordinate so replayed epochs re-roll as
    #: retries instead of deterministically re-dying.
    restarts: int = 0
    #: A half of a bisected shard: served without injected
    #: :class:`~repro.faults.ShardCrash` directives, since bisection is
    #: the fallback that must terminate.
    bisected: bool = False
    #: Credits settled so far, per session in shard order: extended in
    #: place every epoch, cut back to the checkpoint's counts on a
    #: restore. One empty list per session by default.
    steps: List[List[StepEvent]] = field(default_factory=list)
    strides: List[List[StrideEstimate]] = field(default_factory=list)
    #: The pool a completed in-process epoch left, which the next epoch
    #: continues instead of rebuilding it from the checkpoint.
    pool: Optional[SessionPool] = None

    def __post_init__(self) -> None:
        if not self.steps:
            self.clear_credits()

    @property
    def name(self) -> str:
        """Stable checkpoint key."""
        return f"shard-{self.sid}"

    def clear_credits(self) -> None:
        """Start the credit lists over (serving from the trace)."""
        self.steps = [[] for _ in self.shard.indices]
        self.strides = [[] for _ in self.shard.indices]

    def truncate_credits(self, checkpoint: Dict[str, Any]) -> None:
        """Drop the credits settled after ``checkpoint``."""
        for acc, n in zip(self.steps, checkpoint["step_counts"]):
            del acc[n:]
        for acc, n in zip(self.strides, checkpoint["stride_counts"]):
            del acc[n:]


def _serve_fleet(
    shards: List[_ShardData],
    spec: _ServeSpec,
    n_workers: int,
    shard_timeout_s: Optional[float],
    epoch_ticks: int,
    checkpoint_dir: Optional[os.PathLike],
    rebalance: Optional[RebalancePolicy],
    shard_faults: Sequence[FaultInjector],
    fault_seed: int,
    profile_ctx: Optional[_ProfileCtx],
) -> Tuple[Dict[int, SessionReport], List[Dict[str, Any]], int, int, int]:
    """Drive the fleet epoch by epoch until every session reports.

    Returns ``(reports_by_index, telemetry_snapshots, retries,
    restores, rebalances)``. The credit stream is bit-identical to a
    serial replay: epochs only partition the same append sequence, the
    flush happens exactly once at each shard's end of stream, and crash
    recovery replays from a snapshot proven bit-identical by the resume
    oracle. A failed shard is restored from its last checkpoint (or
    re-served from the trace when it has none) until it has used
    :data:`_MAX_SHARD_ATTEMPTS`; then it is replaced by two fresh
    halves re-serving from the trace, and a single-session shard is
    reported failed. Terminates because halves strictly shrink and
    attempts are bounded.
    """
    driver_reg = MetricsRegistry() if spec.telemetry else None
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
    active = [_FleetShard(sid=i, shard=s) for i, s in enumerate(shards)]
    next_sid = len(active)
    results: Dict[int, SessionReport] = {}
    snapshots: List[Dict[str, Any]] = []
    retries = restores = rebalances = 0

    while active:
        jobs: List[_EpochJob] = []
        for st in active:
            # Replays after a from-scratch restart draw as retries:
            # the crash plan is a pure function of (sid, epoch,
            # attempt), so without the restart offset a shard whose
            # checkpoint was lost would re-cross its fatal epoch at
            # the original coordinates and deterministically re-die.
            crash = None
            if shard_faults and not st.bisected:
                crash = plan_shard_crash(
                    shard_faults,
                    fault_seed,
                    st.sid,
                    st.epoch,
                    st.attempt + st.restarts,
                )
            if crash is not None and crash[0] == "kill" and n_workers == 1:
                # In-process serving has no worker to kill; degrade to
                # the exception flavour so the recovery path still runs.
                crash = ("raise", crash[1])
            jobs.append(
                _EpochJob(
                    shard=st.shard,
                    spec=spec,
                    pool=st.ckpt["pool"] if st.ckpt is not None else None,
                    start=st.ckpt["next_offset"] if st.ckpt is not None else 0,
                    epoch_ticks=epoch_ticks,
                    crash=crash,
                    live=st.pool,
                    keep_live=n_workers == 1,
                )
            )
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

        survivors: List[_FleetShard] = []
        served: List[Tuple[_FleetShard, Dict[str, Any]]] = []
        fed: Set[str] = set()
        for st, outcome in zip(active, outcomes):
            if outcome.ok:
                res = outcome.value
                for acc, new in zip(st.steps, res["steps"]):
                    acc.extend(new)
                for acc, new in zip(st.strides, res["strides"]):
                    acc.extend(new)
                st.pool = res["live"]
                st.epoch += 1
                st.attempt = 0
                if res["telemetry"] is not None:
                    snapshots.append(res["telemetry"])
                # Feed this epoch's drained observations once; replayed
                # epochs are below the obs_fed mark and skipped.
                if profile_ctx is not None and st.epoch > st.obs_fed:
                    fed |= profile_ctx.feed(res["observations"])
                st.obs_fed = max(st.obs_fed, st.epoch)
                if res["done"]:
                    for k, index in enumerate(st.shard.indices):
                        status, error, repaired, rejected, gaps = res[
                            "health"
                        ][k]
                        results[index] = SessionReport(
                            session_index=index,
                            steps=tuple(st.steps[k]),
                            strides=tuple(st.strides[k]),
                            status=status,
                            error=error,
                            samples_repaired=repaired,
                            samples_rejected=rejected,
                            gaps_reset=gaps,
                        )
                    if store is not None:
                        store.delete(st.name)
                else:
                    survivors.append(st)
                    served.append((st, res))
                continue

            # Shard-level death: restore from the last checkpoint and
            # replay the lost epoch, or re-serve from the trace when
            # there is none. The live pool went part-way into the lost
            # epoch, so it goes.
            st.pool = None
            st.crashes += 1
            st.attempt += 1
            if st.attempt >= _MAX_SHARD_ATTEMPTS:
                # Attempt budget spent: corner the poison by bisection.
                if store is not None:
                    store.delete(st.name)
                if len(st.shard.indices) == 1:
                    index = st.shard.indices[0]
                    results[index] = SessionReport(
                        session_index=index,
                        steps=(),
                        strides=(),
                        status="failed",
                        error=outcome.error,
                    )
                    continue
                for half in st.shard.halves():
                    survivors.append(
                        _FleetShard(
                            sid=next_sid,
                            shard=half,
                            obs_fed=st.obs_fed,
                            bisected=True,
                        )
                    )
                    next_sid += 1
                retries += 1
                continue
            if store is not None:
                # Disk is authoritative in persistent mode — the torn-
                # checkpoint path reads as a miss here, dropping the
                # shard back to a from-scratch re-ingest.
                st.ckpt = store.load(st.name)
                if st.ckpt is None and st.epoch > 0:
                    st.restarts += 1
                st.epoch = st.ckpt["epoch"] if st.ckpt is not None else 0
            if st.ckpt is None:
                st.clear_credits()
                retries += 1
            else:
                st.truncate_credits(st.ckpt)
                if profile_ctx is not None:
                    # Fail loud before resuming over profiles an
                    # external writer advanced mid-run.
                    profile_ctx.check_restored(st.ckpt, st.shard.indices)
                restores += 1
            survivors.append(st)

        # Streaming self-training: persist every user fed this round
        # once, before the round's checkpoints commit, so the pinned
        # versions are always the post-write-back ones.
        if fed:
            profile_ctx.write_back(fed)
        epoch_stats: List[ShardEpochStats] = []
        for st, res in served:
            st.ckpt = make_checkpoint(
                res["pool"],
                res["next_offset"],
                [len(acc) for acc in st.steps],
                [len(acc) for acc in st.strides],
                st.epoch,
            )
            if profile_ctx is not None:
                st.ckpt["profiles"] = profile_ctx.shard_versions(
                    st.shard.indices
                )
            if store is not None:
                store.save(st.name, st.ckpt)
            epoch_stats.append(
                ShardEpochStats(
                    shard_id=st.sid,
                    n_sessions=len(st.shard.indices),
                    elapsed_s=float(res["elapsed_s"]),
                    round_seconds_sum=res["round_seconds_sum"],
                    round_seconds_count=res["round_seconds_count"],
                    crashes=st.crashes,
                )
            )

        # Live rebalancing: split overloaded shards between epochs by
        # splitting their checkpoints (pool snapshot + credit counts)
        # and their credit lists at the same cut, so the migrated
        # sessions resume bit-identically on the new shard from the
        # checkpoint and no credit is lost or duplicated.
        if rebalance is not None and epoch_stats:
            by_sid = {st.sid: st for st in survivors}
            for sid in rebalance.plan(epoch_stats):
                st = by_sid.get(sid)
                if st is None or st.ckpt is None or len(st.shard.indices) < 2:
                    continue
                mid = len(st.shard.indices) // 2
                left_ck, right_ck = split_checkpoint(st.ckpt, mid)
                st.shard, right_shard = st.shard.halves()
                st.ckpt = left_ck
                st.pool = None
                right = _FleetShard(
                    sid=next_sid,
                    shard=right_shard,
                    ckpt=right_ck,
                    epoch=st.epoch,
                    crashes=st.crashes,
                    obs_fed=st.obs_fed,
                    bisected=st.bisected,
                    steps=st.steps[mid:],
                    strides=st.strides[mid:],
                )
                st.steps, st.strides = st.steps[:mid], st.strides[:mid]
                next_sid += 1
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
        shard_timeout_s: Wall-clock budget per epoch round; a shard
            not finished in time fails that attempt, like a crash.
            Enforced only with ``workers > 1``; ``None`` or finite and
            > 0.
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
            this many stream-seconds (finite, > 0), snapshotting every
            shard's pool (``ptrack-session-v1``) plus its sessions'
            settled credit counts after each epoch. A shard lost
            mid-epoch restores from its last checkpoint and replays
            only the lost epoch instead of re-ingesting. ``None``
            (default) serves one epoch covering the longest trace, so
            a lost shard re-serves from the trace. Either way a shard
            that keeps failing is bisected.
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
            compare-and-swap — once per epoch round for every user fed
            in it (so once at completion without checkpointing).
            Observations
            are delivered exactly once even across crash replays; live
            sessions are never retouched, so the credit stream is
            invariant to self-training. Requires ``profile_store``.

    Returns:
        A :class:`FleetReport` with per-session results in fleet
        order; sessions lost to poison report ``status="failed"``
        instead of raising.

    Raises:
        ConfigurationError: On malformed traces, mismatched lengths,
            or bad serving arguments — always from the caller's
            process, before any profile-store I/O.
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
    elif not (math.isfinite(checkpoint_every_s) and checkpoint_every_s > 0):
        raise ConfigurationError(
            "checkpoint_every_s must be finite and > 0, got "
            f"{checkpoint_every_s}"
        )
    if shard_timeout_s is not None and not (
        math.isfinite(shard_timeout_s) and shard_timeout_s > 0
    ):
        raise ConfigurationError(
            "shard_timeout_s must be None or finite and > 0, got "
            f"{shard_timeout_s}"
        )
    n_workers = resolve_workers(workers)
    if sessions_per_shard is None:
        sessions_per_shard = max(1, -(-n // n_workers))
    elif sessions_per_shard < 1:
        raise ConfigurationError(
            f"sessions_per_shard must be >= 1, got {sessions_per_shard}"
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

    spec = _ServeSpec(
        sample_rate_hz=sample_rate_hz,
        config=config,
        settle_s=settle_s,
        max_buffer_s=max_buffer_s,
        batch_samples=batch_samples,
        fault_policy=fault_policy,
        telemetry=telemetry,
        collect_observations=profile_ctx is not None,
    )
    shards = [
        _ShardData(
            list(range(lo, min(lo + sessions_per_shard, n))),
            validated[lo : lo + sessions_per_shard],
            profiles[lo : lo + sessions_per_shard],
        )
        for lo in range(0, n, sessions_per_shard)
    ]
    if checkpoint_every_s is None:
        # One epoch covering the longest trace: every shard finishes
        # in its first round, so no checkpoint is ever taken.
        longest = max(t.shape[0] for t in validated)
        epoch_ticks = -(-longest // batch_samples)
    else:
        epoch_ticks = int(
            round(checkpoint_every_s * sample_rate_hz / batch_samples)
        )
    results, snapshots, retries, restores, rebalances = _serve_fleet(
        shards,
        spec,
        n_workers,
        shard_timeout_s,
        max(1, epoch_ticks),
        checkpoint_dir,
        rebalance,
        list(shard_faults) if shard_faults else [],
        fault_seed,
        profile_ctx,
    )

    sessions = tuple(results[i] for i in range(n))
    merged: Optional[Dict[str, Any]] = None
    if telemetry:
        fleet_reg = MetricsRegistry()
        for snapshot in snapshots:
            fleet_reg.merge(snapshot)
        # Fleet-level series the shards cannot see: the recovery
        # loop's own activity and the terminal per-session outcomes.
        fleet_reg.gauge("serving_fleet_sessions").set(n)
        fleet_reg.counter("serving_fleet_shard_retries_total").inc(retries)
        fleet_reg.counter("serving_fleet_sessions_failed_total").inc(
            sum(1 for s in sessions if s.status != "ok")
        )
        fleet_reg.counter("serving_fleet_checkpoint_restores_total").inc(
            restores
        )
        fleet_reg.counter("serving_fleet_rebalances_total").inc(rebalances)
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
