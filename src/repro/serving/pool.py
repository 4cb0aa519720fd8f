"""Multi-session serving: many streams behind one vectorized API.

A production tracker does not serve one wrist — it serves a fleet.
:class:`SessionPool` manages N independent
:class:`~repro.core.streaming.StreamingPTrack` sessions and exposes a
single batched ingest call, ``pool.append(session_ids, batches)``.

Each ``append`` drains the due hop boundaries in rounds
(:mod:`repro.core.rounds`): each round advances every due session by
one boundary and runs each of its six stages' numeric kernels **once
for the whole fleet**. The end-of-stream flush runs the same rounds
plus one final round over every tail, for chunks of at most
:data:`FLUSH_STACK_SESSIONS` sessions at a time. A lone session runs
the very same round as a round of one, so each pooled session's credits
equal its own solo :class:`~repro.core.streaming.StreamingPTrack`
replay — the equivalence the serving tests assert (serial == pooled ==
sharded).

The pool adds what a fleet needs around the round: caller validation,
failure isolation (a session that raises is marked failed and skipped
from then on), flush chunking, profiles, snapshots and its telemetry
(round occupancy and the six stage histograms). There is deliberately
one set of kernels: PTrack's decisions sit on float64 thresholds (the
Eq. (1) offset against δ, the Eq. (3)-(5) Brent bounce root), and a
reduced-precision variant moves exactly those decisions.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import PTrackConfig
from repro.core.rounds import (
    NO_CREDITS,
    ROUND_STAGES,
    Credits,
    drain_rounds,
    flush_sessions,
)
from repro.core.streaming import (
    SESSION_SNAPSHOT_SCHEMA,
    StreamingPTrack,
    ensure_snapshot_kind,
)
from repro.exceptions import ConfigurationError
from repro.faults.policy import FaultPolicy
from repro.profiles import ProfileRecord, ProfileStore
from repro.runtime.buffers import FleetBatchBuffer
from repro.telemetry.registry import Histogram, MetricsRegistry, get_registry
from repro.types import CycleObservation, UserProfile

__all__ = ["SessionPool", "BatchedSessionPool", "NO_CREDITS"]

#: Most sessions one end-of-stream flush settles together: the pool
#: flushes in chunks of this many sessions, each one begin → drain →
#: final round → end sequence. The final round holds every chunk
#: session's tail cycles (copied segments, measurement and stride
#: stacks) at once, so a fleet-wide round's high-water mark grows with
#: the fleet. Flushing 512 sessions of 12 s walks on a 2-vCPU host, a
#: fleet-wide round peaked at 34 MB traced against 4.3 MB in chunks of
#: 64 (2.1 MB for the per-session flush); the chunks cost 0.43 s of
#: flush against 0.32 s fleet-wide (2.75 s per session).
FLUSH_STACK_SESSIONS = 64

#: Power-of-two bucket bounds of ``serving_batch_round_occupancy``
#: (due sessions per fleet round).
OCCUPANCY_BUCKETS = tuple(float(2**i) for i in range(13))

#: The round identity every pool snapshot records: the float64 packed
#: round. Restore refuses any other value, ``None`` included (what
#: lockstep pools wrote), so a snapshot resumes only under the round
#: that wrote it.
SNAPSHOT_BACKEND = "numpy"


class SessionPool:
    """A pool of independent streaming sessions with fleet-batched ingest.

    Example::

        pool = SessionPool(sample_rate_hz=100.0)
        alice = pool.add_session(profile=alice_profile)
        bob = pool.add_session(profile=bob_profile)
        results = pool.append([alice, bob], [alice_batch, bob_batch])
        steps, strides = results[0]            # alice's new credits

    All sessions share one configuration and sampling rate (one
    deployment = one device class); per-user state — profile, buffers,
    classification streak, totals — is fully independent per session,
    and each session's credits and op-stats are bit-identical to its
    own :class:`~repro.core.streaming.StreamingPTrack` replay. Every
    ingest round, ``flush`` included, runs one kernel dispatch per
    stage for the whole fleet (see the module docstring).

    The pool is *self-healing*: with ``isolate_failures`` (the
    default) an exception inside one session poisons only that
    session — it is marked failed with its error recorded under
    :attr:`failed_sessions` and skipped from then on, while the rest
    of the pool keeps serving. :meth:`revive_session` puts a failed
    slot back into rotation.

    Args:
        sample_rate_hz: Sampling rate shared by every session.
        config: PTrack configuration shared by every session.
        settle_s: Settle horizon passed to every session.
        max_buffer_s: Rolling-buffer bound passed to every session.
        fault_policy: Degraded-mode ingest policy passed to every
            session (see :class:`repro.faults.FaultPolicy`); ``None``
            keeps strict ingest.
        isolate_failures: Contain per-session exceptions (default).
            ``False`` restores fail-fast: the first session error
            propagates to the caller.
        telemetry: Metrics registry shared by the pool and every
            session it creates; pool-level instruments (round latency,
            failed/revived sessions, live-session gauge) land next to
            the sessions' ``ptrack_*`` series, so the registry is the
            shard's complete health ledger. Each fleet round also
            observes its occupancy and the wall time of each of its six
            stages (:data:`ROUND_STAGES`). ``None`` falls back to the
            process gate at construction time (closed gate = fully
            uninstrumented).
        profile_store: Optional :class:`~repro.profiles.ProfileStore`
            backing the pool's sessions. With a store attached,
            ``add_session(user_id=...)`` warm-loads the user's trained
            profile, the pool tracks each store-loaded session's
            profile version (``profile_meta``), and
            :meth:`write_back_profile` persists updated records with
            compare-and-swap against the loaded version.
        collect_observations: Construct every session with the
            streaming observation tap enabled
            (:class:`~repro.core.streaming.StreamingPTrack`'s
            ``collect_observations``), so self-training evidence can be
            drained fleet-wide via :meth:`take_observations`. Off by
            default — tracking output is byte-identical either way; the
            tap only adds per-cycle bookkeeping.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        config: Optional[PTrackConfig] = None,
        settle_s: float = 2.5,
        max_buffer_s: float = 30.0,
        fault_policy: Optional[FaultPolicy] = None,
        isolate_failures: bool = True,
        telemetry: Optional[MetricsRegistry] = None,
        profile_store: Optional[ProfileStore] = None,
        collect_observations: bool = False,
    ) -> None:
        self._rate = sample_rate_hz
        self._config = config if config is not None else PTrackConfig()
        self._settle = settle_s
        self._max_buffer_s = max_buffer_s
        self._fault_policy = fault_policy
        self._isolate = isolate_failures
        self._profile_store = profile_store
        self._collect_observations = bool(collect_observations)
        self._sessions: Dict[int, StreamingPTrack] = {}
        self._errors: Dict[int, str] = {}
        self._profiles: Dict[int, Dict[str, Any]] = {}
        self._next_id = 0
        self._buffers = FleetBatchBuffer()
        self._bind_telemetry(telemetry)

    def _bind_telemetry(self, telemetry: Optional[MetricsRegistry]) -> None:
        """Point the pool and every session at ``telemetry`` (``None``:
        the process gate), which from here on sees only their new work
        (see :meth:`StreamingPTrack._bind_telemetry`). A fleet serving
        in-process rebinds its live shard pool to each epoch's fresh
        registry, as a pool rebuilt from the epoch's snapshot would be."""
        self._telemetry = (
            telemetry if telemetry is not None else get_registry()
        )
        # The round's instruments: none (no clock read) without telemetry.
        self._m_occupancy: Optional[Histogram] = None
        self._m_stages: Optional[List[Histogram]] = None
        if self._telemetry is not None:
            reg = self._telemetry
            self._m_round_s = reg.histogram("serving_pool_round_seconds")
            self._m_appends = reg.counter("serving_pool_appends_total")
            self._m_flush_s = reg.histogram("serving_pool_flush_seconds")
            self._m_failed = reg.counter("serving_sessions_failed_total")
            self._m_revived = reg.counter("serving_sessions_revived_total")
            self._m_live = reg.gauge("serving_pool_sessions")
            self._m_live.set(len(self._sessions))
            self._m_occupancy = reg.histogram(
                "serving_batch_round_occupancy", buckets=OCCUPANCY_BUCKETS
            )
            self._m_stages = [
                reg.histogram(f"serving_batch_stage_{name}_seconds")
                for name in ROUND_STAGES
            ]
        for sess in self._sessions.values():
            sess._bind_telemetry(self._telemetry)

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    @property
    def n_sessions(self) -> int:
        """Number of live sessions."""
        return len(self._sessions)

    @property
    def session_ids(self) -> List[int]:
        """Ids of all live sessions, in creation order."""
        return list(self._sessions.keys())

    def add_session(
        self,
        profile: Optional[UserProfile] = None,
        user_id: Optional[str] = None,
    ) -> int:
        """Create one session; return its id.

        Profile provenance: a caller-supplied ``profile`` always wins
        and is served as-is. When ``profile`` is ``None`` and both
        ``user_id`` and a ``profile_store`` are present, the user's
        stored profile is warm-loaded (a missing or still-untrained
        record starts the session profile-free, exactly like passing
        ``profile=None``). Either way a ``user_id`` records the
        session's store identity and loaded version in
        :meth:`profile_meta`, so :meth:`write_back_profile` can later
        persist updates with compare-and-swap.
        """
        sid = self._next_id
        self._next_id += 1
        profile, meta = self._resolve_profile(profile, user_id)
        self._sessions[sid] = self._make_session(profile)
        if meta is not None:
            self._profiles[sid] = meta
        if self._telemetry is not None:
            self._m_live.set(len(self._sessions))
        return sid

    def add_sessions(
        self,
        profiles: Sequence[Optional[UserProfile]],
        user_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> List[int]:
        """Create one session per profile; return their ids.

        Each entry follows :meth:`add_session`'s provenance rule: a
        non-``None`` profile is caller-supplied and served verbatim; a
        ``None`` profile with a ``user_id`` (aligned positionally via
        ``user_ids``) is warm-loaded from the pool's profile store.
        """
        if user_ids is None:
            return [self.add_session(p) for p in profiles]
        if len(user_ids) != len(profiles):
            raise ConfigurationError(
                f"got {len(profiles)} profiles but {len(user_ids)} "
                "user ids; add_sessions() pairs them positionally — "
                "pass exactly one user id (or None) per profile"
            )
        return [
            self.add_session(p, user_id=u)
            for p, u in zip(profiles, user_ids)
        ]

    def session(self, session_id: int) -> StreamingPTrack:
        """The underlying session object (read-oriented introspection)."""
        return self._session(session_id)

    def reset_session(
        self,
        session_id: int,
        profile: Optional[UserProfile] = None,
        user_id: Optional[str] = None,
    ) -> None:
        """Rewind a session for reuse; optionally swap the profile.

        Reassigning a slot to a new user keeps the session's
        preallocated buffers (:meth:`StreamingPTrack.reset`); a profile
        swap rebuilds only the stride estimator.

        Profile provenance after the reset: passing ``profile`` serves
        that caller-supplied profile verbatim and *clears* any recorded
        store identity (the slot no longer tracks a store version
        unless ``user_id`` is also given). Passing ``user_id`` binds
        the slot to that user — warm-loading their stored profile when
        ``profile`` is ``None`` and a profile store is attached — and
        records the loaded version for :meth:`write_back_profile`.
        Passing neither rewinds the session in place and keeps its
        existing provenance.
        """
        sess = self._session(session_id)
        if profile is None and user_id is None:
            sess.reset()
            return
        resolved, meta = self._resolve_profile(profile, user_id)
        self._profiles.pop(session_id, None)
        if meta is not None:
            self._profiles[session_id] = meta
        if resolved is not sess.profile:
            self._sessions[session_id] = self._make_session(resolved)
        else:
            sess.reset()

    # ------------------------------------------------------------------
    # Profiles: warm-load / observation drain / write-back
    # ------------------------------------------------------------------
    def _make_session(
        self, profile: Optional[UserProfile]
    ) -> StreamingPTrack:
        """One session under the pool's shared pipeline identity."""
        return StreamingPTrack(
            self._rate,
            profile=profile,
            config=self._config,
            settle_s=self._settle,
            max_buffer_s=self._max_buffer_s,
            fault_policy=self._fault_policy,
            telemetry=self._telemetry,
            collect_observations=self._collect_observations,
        )

    def _resolve_profile(
        self, profile: Optional[UserProfile], user_id: Optional[str]
    ) -> Tuple[Optional[UserProfile], Optional[Dict[str, Any]]]:
        """Apply the provenance rule shared by ``add_session`` /
        ``reset_session``: caller-supplied profile wins; otherwise a
        ``user_id`` warm-loads from the store. Returns the profile to
        serve plus the ``profile_meta`` entry (``None`` when the slot
        has no store identity)."""
        if user_id is None:
            return profile, None
        version = 0
        if self._profile_store is not None:
            record = self._profile_store.get(user_id)
            if record is not None:
                version = record.version
                if profile is None:
                    profile = record.profile
        return profile, {"user_id": str(user_id), "version": version}

    @property
    def profile_store(self) -> Optional[ProfileStore]:
        """The attached profile store, if any."""
        return self._profile_store

    @property
    def collect_observations(self) -> bool:
        """Whether sessions are built with the observation tap on."""
        return self._collect_observations

    def profile_meta(self) -> Dict[int, Dict[str, Any]]:
        """Store identity per session id (a copy): ``{sid: {"user_id",
        "version"}}`` for every session bound to a user. ``version`` is
        the store version loaded (or last written back) for that slot —
        the compare-and-swap baseline for :meth:`write_back_profile`."""
        return {sid: dict(meta) for sid, meta in self._profiles.items()}

    def take_observations(self) -> Dict[int, List[CycleObservation]]:
        """Drain every session's pending self-training observations.

        Returns ``{session_id: [CycleObservation, ...]}`` for sessions
        that produced any since the last drain; sessions without the
        tap (``collect_observations=False``) and failed sessions are
        skipped. Draining is destructive at the session level, so each
        observation is delivered exactly once — feed them to an
        :class:`~repro.profiles.IncrementalSelfTrainer` keyed by the
        session's user (see :meth:`profile_meta`).
        """
        out: Dict[int, List[CycleObservation]] = {}
        for sid, sess in self._sessions.items():
            if sid in self._errors or not sess.collect_observations:
                continue
            obs = sess.take_pending_observations()
            if obs:
                out[sid] = obs
        return out

    def write_back_profile(self, record: ProfileRecord) -> ProfileRecord:
        """Persist an updated profile record for a session's user with
        compare-and-swap against the version this pool loaded.

        The record's ``user_id`` must match a live session's recorded
        store identity (see :meth:`profile_meta`). On success the
        slot's tracked version advances to the committed version, so
        repeated write-backs from the same pool keep succeeding;
        a :class:`~repro.exceptions.ProfileConflictError` means another
        writer updated the user first — re-read, merge, retry. Live
        sessions are never touched: serving output stays bit-identical
        regardless of write-backs (a rebuilt profile only takes effect
        on the next warm-load).
        """
        if self._profile_store is None:
            raise ConfigurationError(
                "write_back_profile() needs a profile store — construct "
                "the pool with profile_store=..."
            )
        matches = [
            (sid, meta)
            for sid, meta in self._profiles.items()
            if meta["user_id"] == record.user_id
        ]
        if not matches:
            raise ConfigurationError(
                f"no session in this pool is bound to user "
                f"{record.user_id!r} — bind one via add_session"
                "(user_id=...) before writing back its profile"
            )
        committed = self._profile_store.put(
            record, expected_version=matches[0][1]["version"]
        )
        for _, meta in matches:
            meta["version"] = committed.version
        return committed

    # ------------------------------------------------------------------
    # Durability: snapshot / restore / migration
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Capture the whole pool — membership plus per-session state —
        as one versioned, picklable dict.

        The payload embeds one :meth:`StreamingPTrack.snapshot` per
        session (failed sessions included, with their recorded errors),
        the id allocator, and the pool's pipeline identity, so
        :meth:`restore` on a compatibly configured pool (or
        :meth:`from_snapshot`) resumes every stream bit-identically.
        """
        return {
            "schema": SESSION_SNAPSHOT_SCHEMA,
            "kind": "pool",
            "sample_rate_hz": self._rate,
            "config": self._config,
            "settle_s": self._settle,
            "max_buffer_s": self._max_buffer_s,
            "fault_policy": self._fault_policy,
            "isolate_failures": self._isolate,
            "backend": SNAPSHOT_BACKEND,
            "collect_observations": self._collect_observations,
            "next_id": self._next_id,
            "errors": dict(self._errors),
            # Store identity per session, so restore can refuse to
            # resume over profiles another writer has since advanced.
            "profiles": {
                sid: dict(meta) for sid, meta in self._profiles.items()
            },
            "sessions": {
                sid: sess.snapshot() for sid, sess in self._sessions.items()
            },
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Replace this pool's sessions with a :meth:`snapshot`'s.

        Existing sessions are discarded; every snapshotted session is
        rebuilt (under this pool's telemetry registry) and restored,
        and the failure ledger and id allocator come along so revived
        pools hand out fresh ids exactly like the original would have.
        Raises :class:`ConfigurationError` before touching any state if
        the snapshot's schema or pipeline identity (rate, config,
        horizons, fault policy, backend) does not match this pool — or,
        when this pool has a profile store attached, if any snapshotted
        session's profile version no longer matches the store (a stale
        profile: another writer trained the user since the snapshot, so
        silently resuming would serve superseded state).
        """
        self.validate_snapshot(snapshot)
        self._check_profile_staleness(snapshot)
        sessions: Dict[int, StreamingPTrack] = {}
        for sid, blob in snapshot["sessions"].items():
            sessions[sid] = StreamingPTrack.from_snapshot(
                blob, telemetry=self._telemetry
            )
        self._sessions = sessions
        self._errors = dict(snapshot["errors"])
        self._profiles = {
            sid: dict(meta)
            for sid, meta in snapshot.get("profiles", {}).items()
        }
        self._next_id = int(snapshot["next_id"])
        if self._telemetry is not None:
            self._m_live.set(len(self._sessions))

    def _check_profile_staleness(self, snapshot: Dict[str, Any]) -> None:
        """Refuse to resume a snapshot whose profile versions the
        attached store has since moved past (fail loud, not silently
        serve a superseded profile). No store attached = no check: the
        snapshot is self-contained and the caller owns freshness."""
        if self._profile_store is None:
            return
        stale = []
        for sid, meta in snapshot.get("profiles", {}).items():
            record = self._profile_store.get(meta["user_id"])
            current = 0 if record is None else record.version
            if current != int(meta["version"]):
                stale.append(
                    f"session {sid} user {meta['user_id']!r} (snapshot "
                    f"v{meta['version']}, store v{current})"
                )
        if stale:
            raise ConfigurationError(
                "pool snapshot is stale against the profile store — "
                + "; ".join(stale)
                + ". Another writer updated these profiles since the "
                "snapshot was taken; rebuild the sessions from the "
                "store (add_session(user_id=...)) instead of restoring."
            )

    def validate_snapshot(self, snapshot: Any) -> None:
        """Raise :class:`ConfigurationError` unless ``snapshot`` is a
        pool snapshot this pool can resume bit-identically."""
        ensure_snapshot_kind(snapshot, "pool")
        mismatches = []
        if snapshot["sample_rate_hz"] != self._rate:
            mismatches.append(
                f"sample_rate_hz {snapshot['sample_rate_hz']} != {self._rate}"
            )
        if snapshot["config"] != self._config:
            mismatches.append("PTrackConfig differs")
        if (
            snapshot["settle_s"] != self._settle
            or snapshot["max_buffer_s"] != self._max_buffer_s
        ):
            mismatches.append(
                f"horizons (settle_s={snapshot['settle_s']}, max_buffer_s="
                f"{snapshot['max_buffer_s']}) != (settle_s={self._settle}, "
                f"max_buffer_s={self._max_buffer_s})"
            )
        if snapshot["fault_policy"] != self._fault_policy:
            mismatches.append("FaultPolicy differs")
        if snapshot["backend"] != SNAPSHOT_BACKEND:
            mismatches.append(
                f"compute backend {snapshot['backend']!r} != "
                f"{SNAPSHOT_BACKEND!r}"
            )
        if (
            bool(snapshot.get("collect_observations", False))
            != self._collect_observations
        ):
            mismatches.append(
                "collect_observations "
                f"{bool(snapshot.get('collect_observations', False))} != "
                f"{self._collect_observations}"
            )
        if mismatches:
            if snapshot["backend"] != SNAPSHOT_BACKEND:
                # from_snapshot refuses such a blob the same way.
                advice = (
                    "A snapshot written by a retired lockstep pool cannot "
                    "resume under any pool; re-serve the shard from its "
                    "trace."
                )
            else:
                advice = (
                    "Construct the pool with the snapshot's own parameters "
                    "(SessionPool.from_snapshot does this)."
                )
            raise ConfigurationError(
                "pool snapshot cannot resume here — credits would not be "
                "bit-identical: " + "; ".join(mismatches) + ". " + advice
            )

    @classmethod
    def from_snapshot(
        cls,
        snapshot: Dict[str, Any],
        telemetry: Optional[MetricsRegistry] = None,
    ) -> "SessionPool":
        """Build a pool resuming exactly where ``snapshot`` left off
        (constructed with the snapshot's own pipeline identity, then
        :meth:`restore`)."""
        ensure_snapshot_kind(snapshot, "pool")
        pool = cls(
            sample_rate_hz=snapshot["sample_rate_hz"],
            config=snapshot["config"],
            settle_s=snapshot["settle_s"],
            max_buffer_s=snapshot["max_buffer_s"],
            fault_policy=snapshot["fault_policy"],
            isolate_failures=snapshot["isolate_failures"],
            telemetry=telemetry,
            collect_observations=bool(
                snapshot.get("collect_observations", False)
            ),
        )
        pool.restore(snapshot)
        return pool

    def export_session(self, session_id: int) -> Dict[str, Any]:
        """One session's state as a standalone ``kind="session"`` blob
        (the migration unit for :meth:`import_session` on another
        pool/shard). The live session is untouched."""
        return self._session(session_id).snapshot()

    def import_session(
        self,
        snapshot: Dict[str, Any],
        session_id: Optional[int] = None,
    ) -> int:
        """Adopt a session exported from another pool; return its id.

        The blob must match this pool's pipeline identity (rate,
        config, horizons, fault policy) — enforced by the session-level
        restore — so a migrated stream keeps crediting bit-identically.
        By default the next free id is assigned; passing ``session_id``
        preserves the original id (required when a fleet shard map
        addresses sessions by id), and collides with an existing id as
        a :class:`ConfigurationError`.
        """
        ensure_snapshot_kind(snapshot, "session")
        self._check_import_identity(snapshot)
        sid = self._next_id if session_id is None else session_id
        if sid in self._sessions:
            raise ConfigurationError(
                f"cannot import session as id {sid}: the id is already "
                "live in this pool — omit session_id to auto-assign, or "
                "remove_session() the occupant first"
            )
        self._sessions[sid] = StreamingPTrack.from_snapshot(
            snapshot, telemetry=self._telemetry
        )
        self._next_id = max(self._next_id, sid + 1)
        if self._telemetry is not None:
            self._m_live.set(len(self._sessions))
        return sid

    def remove_session(self, session_id: int) -> None:
        """Drop a session from the pool (the hand-off half of a
        migration: export, import elsewhere, then remove here)."""
        self._session(session_id)
        del self._sessions[session_id]
        self._errors.pop(session_id, None)
        self._profiles.pop(session_id, None)
        if self._telemetry is not None:
            self._m_live.set(len(self._sessions))

    def _check_import_identity(self, snapshot: Dict[str, Any]) -> None:
        """Pool-level identity gate for :meth:`import_session`, so the
        error names the pool mismatch instead of a session detail."""
        if (
            snapshot["sample_rate_hz"] != self._rate
            or snapshot["config"] != self._config
            or snapshot["settle_s"] != self._settle
            or snapshot["max_buffer_s"] != self._max_buffer_s
            or snapshot["fault_policy"] != self._fault_policy
        ):
            raise ConfigurationError(
                "session snapshot does not match this pool's pipeline "
                f"identity (pool: rate={self._rate}, settle_s="
                f"{self._settle}, max_buffer_s={self._max_buffer_s}; "
                f"snapshot: rate={snapshot['sample_rate_hz']}, settle_s="
                f"{snapshot['settle_s']}, max_buffer_s="
                f"{snapshot['max_buffer_s']}) — migrate only between "
                "pools serving the same device class"
            )

    # ------------------------------------------------------------------
    # Failure isolation
    # ------------------------------------------------------------------
    @property
    def failed_sessions(self) -> Dict[int, str]:
        """Recorded error per failed session id (a copy)."""
        return dict(self._errors)

    def session_status(self, session_id: int) -> str:
        """``"ok"`` or ``"failed"`` for one live session."""
        self._session(session_id)
        return "failed" if session_id in self._errors else "ok"

    def revive_session(
        self,
        session_id: int,
        profile: Optional[UserProfile] = None,
        user_id: Optional[str] = None,
    ) -> None:
        """Clear a session's failure record and rewind it for reuse
        (``profile``/``user_id`` follow :meth:`reset_session`'s
        provenance rule)."""
        self._session(session_id)
        if session_id in self._errors and self._telemetry is not None:
            self._m_revived.inc()
        self._errors.pop(session_id, None)
        self.reset_session(session_id, profile, user_id=user_id)

    def _mark_failed(self, session_id: int, exc: BaseException) -> None:
        """Record a poisoned session, or propagate when not isolating."""
        if self._telemetry is not None:
            self._m_failed.inc()
        if not self._isolate:
            # ``exc`` may have been caught earlier and handed over by a
            # batched kernel, outside any except block.
            raise exc
        self._errors[session_id] = f"{type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------
    # Batched ingest
    # ------------------------------------------------------------------
    def append(
        self,
        session_ids: Sequence[int],
        batches: Sequence[np.ndarray],
    ) -> List[Credits]:
        """Feed one batch to each named session; credit settled cycles.

        Every session buffers its batch, then the due hop boundaries
        drain in fleet rounds: each round advances every due session by
        one boundary through the six batched stages.

        Args:
            session_ids: Target sessions (need not cover the pool; a
                session may also appear only when its device uploaded).
            batches: Sample arrays of shape (n_i, 3), float64, aligned
                with ``session_ids``.

        Returns:
            Per-session ``(steps, strides)`` pairs aligned with
            ``session_ids`` — exactly what each session's own
            ``append`` would have returned. A session that credited
            something gets two new lists, its own; every other session
            (one that settled nothing, or a failed one, see
            :attr:`failed_sessions`) gets the one shared, immutable
            empty pair :data:`NO_CREDITS`, ``((), ())``.

        Raises:
            ConfigurationError: On unknown ids, duplicate ids, or a
                ``session_ids``/``batches`` length mismatch — all
                caller mistakes, raised before any session is touched.
            SignalError: On a batch with a bad shape or dtype, when
                ``isolate_failures`` is off.
        """
        t0 = time.perf_counter() if self._telemetry is not None else 0.0
        self._validate_append(session_ids, batches)
        sessions = [self._sessions[sid] for sid in session_ids]
        out: List[Credits] = [NO_CREDITS] * len(sessions)
        errors = self._errors
        active = [
            k for k in range(len(sessions)) if session_ids[k] not in errors
        ]
        if self._fault_policy is None and _strict_batches_ok(batches, active):
            # One finiteness check cleared every batch, and a strict
            # ingest parks no credits: each session only buffers.
            for k in active:
                sessions[k]._accept(batches[k])
        else:
            ingested: List[int] = []
            for k in active:
                sess = sessions[k]
                try:
                    sess.ingest(batches[k])
                    parked = sess.take_pending_credits()
                except Exception as exc:  # noqa: BLE001 — isolation boundary
                    self._mark_failed(session_ids[k], exc)
                    continue
                if parked is not None:
                    out[k] = parked
                ingested.append(k)
            active = ingested
        drain_rounds(
            sessions, active, out, self._fail_at(session_ids),
            self._m_occupancy, self._m_stages, self._buffers,
        )
        if self._telemetry is not None:
            # Count per-session batch appends (not rounds) so the total
            # is invariant to how the fleet is sharded across pools.
            self._m_appends.inc(len(session_ids))
            self._m_round_s.observe(time.perf_counter() - t0)
        return out

    def flush(
        self, session_ids: Optional[Sequence[int]] = None
    ) -> List[Credits]:
        """Settle the remaining tail of the named (default all) sessions.

        Each session's credits are exactly its own
        :meth:`StreamingPTrack.flush`, and a session that raises
        anywhere in its flush is marked failed and yields empty credits
        (failed sessions yield them without raising); as in
        :meth:`append`, a session with nothing to deliver gets the
        shared :data:`NO_CREDITS`. The tails run fleet-batched, in
        chunks of at most :data:`FLUSH_STACK_SESSIONS` sessions: open
        every session's flush, drain due hop boundaries through ordinary
        rounds, settle all tails in one final round, close.
        """
        t0 = time.perf_counter() if self._telemetry is not None else 0.0
        ids = self.session_ids if session_ids is None else list(session_ids)
        sessions = [self._session(sid) for sid in ids]
        out: List[Credits] = [NO_CREDITS] * len(ids)
        chunk: List[int] = []
        members: Set[int] = set()
        for k, sid in enumerate(ids):
            # A repeated id flushes again only after its first flush
            # completed, as the one-at-a-time flush would.
            if len(chunk) == FLUSH_STACK_SESSIONS or sid in members:
                self._flush_chunk(ids, sessions, chunk, out)
                chunk, members = [], set()
            chunk.append(k)
            members.add(sid)
        if chunk:
            self._flush_chunk(ids, sessions, chunk, out)
        if self._telemetry is not None:
            self._m_flush_s.observe(time.perf_counter() - t0)
        return out

    def _flush_chunk(
        self,
        session_ids: Sequence[int],
        sessions: Sequence[StreamingPTrack],
        chunk: List[int],
        out: List[Credits],
    ) -> None:
        """Flush the sessions at positions ``chunk``, tails batched."""
        errors = self._errors
        flush_sessions(
            sessions,
            [k for k in chunk if session_ids[k] not in errors],
            out,
            self._fail_at(session_ids),
            self._m_occupancy,
            self._m_stages,
            self._buffers,
        )

    def _fail_at(
        self, session_ids: Sequence[int]
    ) -> Callable[[int, BaseException], None]:
        """The round's failure callback for the sessions named, by
        position, in ``session_ids``."""
        return lambda k, exc: self._mark_failed(session_ids[k], exc)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def step_count(self, session_id: int) -> int:
        """Steps credited to one session."""
        return self._session(session_id).step_count

    def distance_m(self, session_id: int) -> float:
        """Distance credited to one session."""
        return self._session(session_id).distance_m

    @property
    def total_steps(self) -> int:
        """Steps credited across the whole pool."""
        return sum(s.step_count for s in self._sessions.values())

    @property
    def total_distance_m(self) -> float:
        """Distance credited across the whole pool."""
        return float(sum(s.distance_m for s in self._sessions.values()))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _session(self, session_id: int) -> StreamingPTrack:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown session id {session_id!r}"
            ) from None

    def _validate_append(
        self,
        session_ids: Sequence[int],
        batches: Sequence[np.ndarray],
    ) -> None:
        """Reject caller mistakes before any session is touched."""
        if len(session_ids) != len(batches):
            raise ConfigurationError(
                f"got {len(session_ids)} session ids but {len(batches)} "
                "batches; append() pairs them positionally — pass "
                "exactly one batch per session id"
            )
        unknown = [s for s in session_ids if s not in self._sessions]
        if unknown:
            raise ConfigurationError(
                f"unknown session id(s) {sorted(set(unknown))!r}; the "
                f"pool has {self.n_sessions} live session(s) — ids come "
                "from add_session()/add_sessions() and are not recycled"
            )
        duplicates = sorted(
            s for s, c in Counter(session_ids).items() if c > 1
        )
        if duplicates:
            raise ConfigurationError(
                f"duplicate session id(s) {duplicates!r} in one append "
                "call; a session takes at most one batch per call — "
                "concatenate the batches upstream or split the call"
            )


def _strict_batches_ok(
    batches: Sequence[np.ndarray], positions: Sequence[int]
) -> bool:
    """Whether every batch at ``positions`` would pass a strict
    :meth:`StreamingPTrack.ingest`: a float64 ``(n, 3)`` array, all of
    it finite. The finiteness check runs once over all the batches."""
    picked = [batches[k] for k in positions]
    for b in picked:
        if not (
            isinstance(b, np.ndarray)
            and b.ndim == 2
            and b.shape[1] == 3
            and b.dtype == np.float64
        ):
            return False
    return not picked or bool(np.isfinite(np.concatenate(picked)).all())


#: The pool's former name, kept for callers that still import it.
BatchedSessionPool = SessionPool
