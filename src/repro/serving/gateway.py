"""Async ingest gateway: ragged arrivals in, batched rounds out.

A :class:`~repro.serving.pool.SessionPool` called directly advances
every named session by its batch in one call — the right shape for
benchmarks and finished traces, the wrong one for production traffic,
where devices burst, stall, reorder uploads and disconnect at
independent cadences. One slow producer must
not gate the fleet, and one flooding producer must not eat the process.

:class:`IngestGateway` decouples *arrival* from *ingest*:

* **Per-session bounded mailboxes.** Every ``offer`` lands in the
  target session's :class:`SessionMailbox`: a bounded, sequence-ordered
  buffer. Batches carry a per-session sequence number; a batch that
  arrives ahead of a missing predecessor is *held* (up to
  ``reorder_window`` sequence slots) and released in order, so
  transport-level reordering never reaches the tracker.
* **Backpressure with explicit drop accounting.** A mailbox holds at
  most ``capacity_samples`` queued samples. Arrivals beyond that bound
  are **shed whole** (drop-newest — deterministic, and the shed seqs
  are remembered so the stream never stalls on them). Every shed is
  counted exactly once, per reason, in both the gateway's
  :class:`GatewayStats` and the ``serving_gateway_*`` telemetry.
* **A coalescing scheduler.** Each :meth:`IngestGateway.tick` drains
  whatever every mailbox has ready, concatenates each session's run of
  in-order batches into *one* array, and feeds all of them to the
  backing pool in a single vectorized ``append`` — sessions with
  nothing pending simply don't appear in the round.

**The equivalence contract.** Credits are a pure function of each
session's *delivered* sample stream: because
:class:`~repro.core.streaming.StreamingPTrack` is chunk-invariant and
sessions are independent, the gateway's credits are bit-identical to a
serial replay of exactly the batches the mailbox delivered, in sequence
order — for *any* arrival schedule (bursts, stalls, reorderings within
the window, join/leave mid-stream). The arrival-order fuzzing suite
asserts this against serial replay and the directly driven pool
(``serial == pooled == sharded == gateway``).

Failure isolation extends the pool's: a failed session's mailbox is
drained (with ``failed_drops`` accounting) instead of backing up, so a
poisoned stream never blocks its round-mates. Time is read through the
:mod:`repro.runtime.clock` seam, so tests drive the gateway with a
:class:`~repro.runtime.clock.ManualClock` and never sleep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PTrackConfig
from repro.exceptions import ConfigurationError
from repro.faults.policy import FaultPolicy
from repro.runtime.clock import Clock, SystemClock
from repro.serving.pool import SessionPool
from repro.serving.workload import ArrivalSchedule
from repro.telemetry.registry import MetricsRegistry, get_registry
from repro.types import StepEvent, StrideEstimate, UserProfile

__all__ = [
    "OfferResult",
    "SessionMailbox",
    "GatewayStats",
    "IngestGateway",
    "serve_schedule",
]

#: Bucket layout for the per-tick coalescing histogram: how many queued
#: batches each ingested session run collapsed into one append.
COALESCE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class OfferResult:
    """The gateway's answer to one ``offer``: what happened to the batch.

    Attributes:
        accepted: Samples queued for ingest.
        shed: Samples dropped (``reason`` says why).
        reason: ``"queued"`` when accepted; ``"capacity"`` (mailbox
            full), ``"reorder_window"`` (sequence too far ahead),
            ``"duplicate"`` (sequence already seen) or ``"closed"``
            (session left the gateway) when shed.
    """

    accepted: int
    shed: int
    reason: str

    @property
    def ok(self) -> bool:
        """Whether the batch was queued in full."""
        return self.shed == 0


class SessionMailbox:
    """A bounded, sequence-ordered arrival buffer for one session.

    The mailbox is the gateway's unit of backpressure and of delivery
    ordering. It never touches sample *values* — batches go in and come
    out unchanged — so the only ways it can influence credits are the
    documented ones: dropping whole batches (shedding, duplicates) and
    restoring sequence order.

    Args:
        capacity_samples: Upper bound on queued (undelivered) samples.
        reorder_window: How many sequence slots ahead of the next
            expected batch an arrival may be and still be held for
            in-order delivery. ``0`` demands in-order arrival.
    """

    def __init__(
        self, capacity_samples: int, reorder_window: int = 0
    ) -> None:
        if capacity_samples < 1:
            raise ConfigurationError(
                f"capacity_samples must be >= 1, got {capacity_samples}"
            )
        if reorder_window < 0:
            raise ConfigurationError(
                f"reorder_window must be >= 0, got {reorder_window}"
            )
        self.capacity_samples = int(capacity_samples)
        self.reorder_window = int(reorder_window)
        self._held: Dict[int, np.ndarray] = {}
        self._shed_seqs: set = set()
        self._next_seq = 0  # next sequence number to deliver
        self._auto_seq = 0  # next sequence number to auto-assign
        self.queued_samples = 0
        self.shed_samples = 0
        self.shed_batches = 0
        self.duplicates = 0
        self.gap_skips = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def saturation(self) -> float:
        """Queued samples as a fraction of capacity."""
        return self.queued_samples / self.capacity_samples

    @property
    def stalled(self) -> bool:
        """Whether held batches are blocked behind a missing sequence."""
        return bool(self._held) and not self._deliverable(self._next_seq)

    @property
    def next_seq(self) -> int:
        """The next sequence number the mailbox will deliver or skip."""
        return self._next_seq

    def _deliverable(self, seq: int) -> bool:
        return seq in self._held or seq in self._shed_seqs

    # ------------------------------------------------------------------
    # Arrival
    # ------------------------------------------------------------------
    def offer(
        self, samples: np.ndarray, seq: Optional[int] = None
    ) -> OfferResult:
        """Queue one batch; apply the backpressure and ordering rules.

        Args:
            samples: The batch, shape (n, 3). Not copied — the mailbox
                only ever hands it onward.
            seq: The producer's per-session sequence number. ``None``
                auto-assigns the next number (an in-order producer);
                mixing auto and explicit numbering on one mailbox is a
                caller bug and raises.

        Returns:
            An :class:`OfferResult` saying whether the batch was queued
            or shed, and why.
        """
        n = int(np.asarray(samples).shape[0])
        if seq is None:
            if self._auto_seq < 0:
                raise ConfigurationError(
                    "mailbox switched to explicit sequence numbers; "
                    "pass seq= on every offer"
                )
            seq = self._auto_seq
            self._auto_seq += 1
        else:
            seq = int(seq)
            if seq < 0:
                raise ConfigurationError(f"seq must be >= 0, got {seq}")
            self._auto_seq = -1  # explicit numbering from here on
        if seq < self._next_seq or self._deliverable(seq):
            self.duplicates += 1
            return OfferResult(accepted=0, shed=n, reason="duplicate")
        if seq > self._next_seq + self.reorder_window + self._pending_span():
            self._shed(seq, n)
            return OfferResult(accepted=0, shed=n, reason="reorder_window")
        if self.queued_samples + n > self.capacity_samples:
            self._shed(seq, n)
            return OfferResult(accepted=0, shed=n, reason="capacity")
        self._held[seq] = samples
        self.queued_samples += n
        return OfferResult(accepted=n, shed=0, reason="queued")

    def _pending_span(self) -> int:
        """Sequence slots already consumed by held/shed batches.

        The reorder window is measured from the *highest* contiguous
        frontier, not from ``next_seq`` alone: a producer that bursts
        ``k`` in-window batches may keep running ahead as long as each
        arrival stays within ``reorder_window`` of the furthest slot
        already accounted for.
        """
        if not self._held and not self._shed_seqs:
            return 0
        frontier = max(
            max(self._held, default=self._next_seq - 1),
            max(self._shed_seqs, default=self._next_seq - 1),
        )
        return max(0, frontier - self._next_seq + 1)

    def _shed(self, seq: int, n: int) -> None:
        """Record a dropped batch so the stream never waits for it."""
        self._shed_seqs.add(seq)
        self.shed_samples += n
        self.shed_batches += 1

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def take_ready(self) -> List[np.ndarray]:
        """Pop the contiguous run of in-order batches, advancing seqs.

        Shed sequence numbers inside the run are skipped silently (they
        were already accounted when shed); a *missing* sequence number
        stops delivery — the mailbox is stalled until it arrives, is
        shed, or :meth:`drain` force-skips it.
        """
        out: List[np.ndarray] = []
        while True:
            if self._next_seq in self._shed_seqs:
                self._shed_seqs.discard(self._next_seq)
                self._next_seq += 1
                continue
            batch = self._held.pop(self._next_seq, None)
            if batch is None:
                break
            out.append(batch)
            self.queued_samples -= int(batch.shape[0])
            self._next_seq += 1
        return out

    def drain(self) -> List[np.ndarray]:
        """Deliver *everything* held, skipping sequence gaps.

        Used at flush/close time: batches stuck behind a gap (their
        predecessor never arrived) are delivered in sequence order, and
        each skipped gap is counted in :attr:`gap_skips`.
        """
        out = self.take_ready()
        for seq in sorted(self._held):
            if seq > self._next_seq:
                # Shed seqs inside the gap were already accounted for;
                # only genuinely missing sequence numbers count.
                self.gap_skips += sum(
                    1
                    for s in range(self._next_seq, seq)
                    if s not in self._shed_seqs
                )
            batch = self._held.pop(seq)
            out.append(batch)
            self.queued_samples -= int(batch.shape[0])
            self._next_seq = seq + 1
        self._shed_seqs = {
            s for s in self._shed_seqs if s >= self._next_seq
        }
        return out

    def discard(self) -> int:
        """Drop every queued batch (failed session); samples discarded."""
        dropped = self.queued_samples
        if self._held:
            self._next_seq = max(self._held) + 1
        self._held.clear()
        self._shed_seqs.clear()
        self.queued_samples = 0
        return dropped


@dataclass
class GatewayStats:
    """Cumulative gateway accounting (mirrors the telemetry counters).

    Attributes are totals over the gateway's lifetime; per-reason shed
    totals satisfy ``samples_shed == shed_capacity + shed_reorder +
    shed_closed`` (duplicates are tracked separately — a duplicate is
    not lost data, it is data that already arrived).
    """

    offers: int = 0
    samples_accepted: int = 0
    samples_ingested: int = 0
    samples_shed: int = 0
    batches_shed: int = 0
    shed_capacity: int = 0
    shed_reorder: int = 0
    shed_closed: int = 0
    duplicates: int = 0
    gap_skips: int = 0
    failed_drops: int = 0
    ticks: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and JSON)."""
        return dict(self.__dict__)


@dataclass
class _GatewaySession:
    """Gateway-side bookkeeping for one pool session."""

    mailbox: SessionMailbox
    closed: bool = False


class IngestGateway:
    """Event-driven front end over a session pool.

    Example::

        gw = IngestGateway(sample_rate_hz=100.0, capacity_s=60.0)
        sid = gw.add_session(profile)
        gw.offer(sid, burst_a)            # arrivals at device cadence
        gw.offer(sid, burst_b)
        credits = gw.tick()               # one vectorized round over
                                          # whatever arrived, fleet-wide
        tail = gw.flush()                 # settle every session

    Args:
        sample_rate_hz: Sampling rate shared by every session.
        pool: The backing :class:`~repro.serving.pool.SessionPool`
            (the gateway adds every session itself; pass a freshly
            built pool). ``None`` builds one from the remaining
            arguments.
        config, settle_s, max_buffer_s, fault_policy: Forwarded to the
            default pool when ``pool`` is ``None``.
        capacity_s: Default mailbox bound, in seconds of signal
            (``capacity_samples = capacity_s * sample_rate_hz``).
        reorder_window: Default per-session reorder window, in batches.
        clock: Time source for tick latency telemetry
            (:class:`~repro.runtime.clock.ManualClock` makes tests
            fully deterministic). Credits never depend on the clock.
        telemetry: Metrics registry for the ``serving_gateway_*``
            series; ``None`` falls back to the process gate.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        pool: Optional[SessionPool] = None,
        config: Optional[PTrackConfig] = None,
        settle_s: float = 2.5,
        max_buffer_s: float = 30.0,
        fault_policy: Optional[FaultPolicy] = None,
        capacity_s: float = 60.0,
        reorder_window: int = 8,
        clock: Optional[Clock] = None,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity_s <= 0:
            raise ConfigurationError(
                f"capacity_s must be positive, got {capacity_s!r}"
            )
        self._rate = sample_rate_hz
        self._telemetry = (
            telemetry if telemetry is not None else get_registry()
        )
        if pool is None:
            pool = SessionPool(
                sample_rate_hz,
                config=config,
                settle_s=settle_s,
                max_buffer_s=max_buffer_s,
                fault_policy=fault_policy,
                telemetry=self._telemetry,
            )
        elif pool.n_sessions:
            raise ConfigurationError(
                "the backing pool must start empty; the gateway owns "
                "session creation so mailbox and pool ids stay aligned"
            )
        self._pool = pool
        self._capacity_samples = max(1, int(capacity_s * sample_rate_hz))
        self._reorder_window = int(reorder_window)
        self._clock = clock if clock is not None else SystemClock()
        self._sessions: Dict[int, _GatewaySession] = {}
        self.stats = GatewayStats()
        if self._telemetry is not None:
            reg = self._telemetry
            self._m_offers = reg.counter("serving_gateway_offers_total")
            self._m_accepted = reg.counter(
                "serving_gateway_samples_accepted_total"
            )
            self._m_ingested = reg.counter(
                "serving_gateway_samples_ingested_total"
            )
            self._m_shed = reg.counter("serving_gateway_samples_shed_total")
            self._m_shed_batches = reg.counter(
                "serving_gateway_batches_shed_total"
            )
            self._m_duplicates = reg.counter(
                "serving_gateway_duplicates_total"
            )
            self._m_gap_skips = reg.counter(
                "serving_gateway_gap_skips_total"
            )
            self._m_failed_drops = reg.counter(
                "serving_gateway_failed_drops_total"
            )
            self._m_ticks = reg.counter("serving_gateway_ticks_total")
            self._m_depth = reg.gauge(
                "serving_gateway_queue_depth_samples"
            )
            self._m_saturation = reg.gauge("serving_gateway_saturation")
            self._m_stalled = reg.gauge("serving_gateway_stalled_sessions")
            self._m_live = reg.gauge("serving_gateway_sessions")
            self._m_tick_s = reg.histogram("serving_gateway_tick_seconds")
            self._m_coalesce = reg.histogram(
                "serving_gateway_coalesced_batches", COALESCE_BUCKETS
            )

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> SessionPool:
        """The backing pool (read-oriented introspection)."""
        return self._pool

    def adopt_pool(self, pool: SessionPool) -> None:
        """Swap in a pool restored from a snapshot (pool-crash recovery).

        The gateway's mailboxes live in this process and survive a pool
        failure; after rebuilding the lost pool from its last snapshot
        (``SessionPool.from_snapshot``), adopting it lets the queued
        arrivals drain into the restored sessions — credits stay
        arrival-order invariant because the mailboxes preserved every
        undelivered sample and its sequence order. The restored pool
        must cover exactly the gateway's session ids; anything else is
        a wiring mistake raised as :class:`ConfigurationError` rather
        than a silent mis-delivery.
        """
        have = set(pool.session_ids)
        want = set(self._sessions)
        if have != want:
            missing = sorted(want - have)
            extra = sorted(have - want)
            raise ConfigurationError(
                "adopted pool does not match the gateway's sessions "
                f"(missing ids {missing!r}, unexpected ids {extra!r}); "
                "restore the pool from a snapshot taken while it was "
                "serving this gateway"
            )
        self._pool = pool

    @property
    def n_sessions(self) -> int:
        """Sessions currently accepting arrivals."""
        return sum(1 for s in self._sessions.values() if not s.closed)

    @property
    def session_ids(self) -> List[int]:
        """Ids of open sessions, in creation order."""
        return [
            sid for sid, s in self._sessions.items() if not s.closed
        ]

    def add_session(
        self,
        profile: Optional[UserProfile] = None,
        capacity_samples: Optional[int] = None,
        reorder_window: Optional[int] = None,
    ) -> int:
        """Open one session (any time — fleets join mid-stream)."""
        sid = self._pool.add_session(profile)
        self._sessions[sid] = _GatewaySession(
            mailbox=SessionMailbox(
                capacity_samples=(
                    self._capacity_samples
                    if capacity_samples is None
                    else capacity_samples
                ),
                reorder_window=(
                    self._reorder_window
                    if reorder_window is None
                    else reorder_window
                ),
            )
        )
        if self._telemetry is not None:
            self._m_live.set(self.n_sessions)
        return sid

    def mailbox(self, session_id: int) -> SessionMailbox:
        """One session's mailbox (read-oriented introspection)."""
        return self._state(session_id).mailbox

    def close_session(
        self, session_id: int
    ) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        """Leave: drain the mailbox, settle the tail, return all credits.

        The session's remaining queued batches (including any stuck
        behind a sequence gap) are ingested in sequence order, the pool
        session is flushed, and every credit not yet handed out by a
        ``tick`` is returned. Further offers are shed with reason
        ``"closed"``.
        """
        state = self._state(session_id)
        if state.closed:
            return ([], [])
        delivered = self._deliver([session_id], drain=True)
        out = delivered.get(session_id, ([], []))
        ((steps, strides),) = self._pool.flush([session_id])
        out[0].extend(steps)
        out[1].extend(strides)
        state.closed = True
        if self._telemetry is not None:
            self._m_live.set(self.n_sessions)
            self._publish_depth()
        return out

    # ------------------------------------------------------------------
    # Arrival side
    # ------------------------------------------------------------------
    def offer(
        self,
        session_id: int,
        samples: np.ndarray,
        seq: Optional[int] = None,
    ) -> OfferResult:
        """Queue one upload batch for a session; never blocks.

        Returns the mailbox's verdict (queued in full, or shed with a
        reason). All accounting — gateway stats and telemetry — happens
        here, exactly once per offer.
        """
        state = self._state(session_id)
        n = int(np.asarray(samples).shape[0])
        if state.closed:
            result = OfferResult(accepted=0, shed=n, reason="closed")
        else:
            result = state.mailbox.offer(samples, seq=seq)
        self.stats.offers += 1
        self.stats.samples_accepted += result.accepted
        if self._telemetry is not None:
            self._m_offers.inc()
            if result.accepted:
                self._m_accepted.inc(result.accepted)
        if result.reason == "duplicate":
            self.stats.duplicates += 1
            if self._telemetry is not None:
                self._m_duplicates.inc()
        elif result.shed:
            self.stats.samples_shed += result.shed
            self.stats.batches_shed += 1
            key = {
                "capacity": "shed_capacity",
                "reorder_window": "shed_reorder",
                "closed": "shed_closed",
            }[result.reason]
            setattr(self.stats, key, getattr(self.stats, key) + result.shed)
            if self._telemetry is not None:
                self._m_shed.inc(result.shed)
                self._m_shed_batches.inc()
        return result

    # ------------------------------------------------------------------
    # Ingest side
    # ------------------------------------------------------------------
    def tick(
        self,
    ) -> Dict[int, Tuple[List[StepEvent], List[StrideEstimate]]]:
        """One scheduler round: coalesce whatever arrived and ingest it.

        Every open session's mailbox is drained of its in-order run;
        sessions with data get their run concatenated into one batch
        and all of them go through a single pool ``append``. Failed
        sessions' mailboxes are discarded (``failed_drops``) so they
        never block round-mates.

        Returns:
            ``{session_id: (steps, strides)}`` for the sessions that
            credited anything this round — an empty dict when nothing
            was pending.
        """
        t0 = self._clock.now()
        credits = self._deliver(
            [sid for sid, s in self._sessions.items() if not s.closed],
            drain=False,
        )
        self.stats.ticks += 1
        if self._telemetry is not None:
            self._m_ticks.inc()
            self._m_tick_s.observe(max(0.0, self._clock.now() - t0))
            self._publish_depth()
        return credits

    def flush(
        self,
    ) -> Dict[int, Tuple[List[StepEvent], List[StrideEstimate]]]:
        """Drain every mailbox (skipping gaps) and settle every tail.

        Closed sessions are skipped (their credits were returned by
        :meth:`close_session`).
        """
        open_ids = [
            sid for sid, s in self._sessions.items() if not s.closed
        ]
        out = self._deliver(open_ids, drain=True)
        for sid, (steps, strides) in zip(
            open_ids, self._pool.flush(open_ids)
        ):
            if steps or strides:
                bucket = out.setdefault(sid, ([], []))
                bucket[0].extend(steps)
                bucket[1].extend(strides)
        if self._telemetry is not None:
            self._publish_depth()
        return out

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_steps(self) -> int:
        """Steps credited across the whole fleet (pool total)."""
        return self._pool.total_steps

    @property
    def total_distance_m(self) -> float:
        """Distance credited across the whole fleet (pool total)."""
        return self._pool.total_distance_m

    @property
    def queue_depth_samples(self) -> int:
        """Samples queued across all open mailboxes."""
        return sum(
            s.mailbox.queued_samples
            for s in self._sessions.values()
            if not s.closed
        )

    @property
    def saturation(self) -> float:
        """The fullest open mailbox's fill fraction (0 when empty)."""
        return max(
            (
                s.mailbox.saturation
                for s in self._sessions.values()
                if not s.closed
            ),
            default=0.0,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _state(self, session_id: int) -> _GatewaySession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown session id {session_id!r}; gateway ids come "
                "from add_session()"
            ) from None

    def _deliver(
        self, session_ids: Sequence[int], drain: bool
    ) -> Dict[int, Tuple[List[StepEvent], List[StrideEstimate]]]:
        """Coalesce ready batches and run one pool round over them."""
        failed = self._pool.failed_sessions
        ids: List[int] = []
        arrays: List[np.ndarray] = []
        coalesced: List[int] = []
        for sid in session_ids:
            state = self._sessions[sid]
            if sid in failed:
                dropped = state.mailbox.discard()
                if dropped:
                    self.stats.failed_drops += dropped
                    if self._telemetry is not None:
                        self._m_failed_drops.inc(dropped)
                continue
            before = state.mailbox.gap_skips
            batches = (
                state.mailbox.drain() if drain else state.mailbox.take_ready()
            )
            if drain:
                skipped = state.mailbox.gap_skips - before
                if skipped:
                    self.stats.gap_skips += skipped
                    if self._telemetry is not None:
                        self._m_gap_skips.inc(skipped)
            if not batches:
                continue
            ids.append(sid)
            arrays.append(
                batches[0]
                if len(batches) == 1
                else np.concatenate(batches, axis=0)
            )
            coalesced.append(len(batches))
        out: Dict[int, Tuple[List[StepEvent], List[StrideEstimate]]] = {}
        if not ids:
            return out
        results = self._pool.append(ids, arrays)
        ingested = sum(a.shape[0] for a in arrays)
        self.stats.samples_ingested += ingested
        if self._telemetry is not None:
            self._m_ingested.inc(ingested)
            for n_batches in coalesced:
                self._m_coalesce.observe(n_batches)
        # The pool hands each crediting session two lists of its own
        # and every other session the shared empty pair: pass them on.
        for sid, credits in zip(ids, results):
            if credits[0] or credits[1]:
                out[sid] = credits
        return out

    def _publish_depth(self) -> None:
        self._m_depth.set(self.queue_depth_samples)
        self._m_saturation.set(self.saturation)
        self._m_stalled.set(
            sum(
                1
                for s in self._sessions.values()
                if not s.closed and s.mailbox.stalled
            )
        )


def serve_schedule(
    gateway: IngestGateway,
    schedule: ArrivalSchedule,
    traces: Sequence[np.ndarray],
    profiles: Optional[Sequence[Optional[UserProfile]]] = None,
    flush: bool = True,
) -> Dict[int, Tuple[List[StepEvent], List[StrideEstimate]]]:
    """Replay an arrival schedule through a gateway, tick by tick.

    Sessions are added lazily at their first arrival (join-mid-stream);
    each tick's arrivals are offered in schedule order, then the
    gateway ticks once. Deterministic end to end: no sleeps, no clock
    dependence.

    Args:
        gateway: A freshly built gateway (its pool must be empty).
        schedule: The arrival process (see
            :func:`repro.serving.synthesize_arrival_schedule`).
        traces: Per-schedule-session sample arrays the events index.
        profiles: Optional per-session profiles, aligned with
            ``traces``.
        flush: Settle every session after the last tick (default).

    Returns:
        ``{schedule session index: (steps, strides)}`` accumulated over
        every tick (plus the flush).
    """
    if schedule.n_sessions > len(traces):
        raise ConfigurationError(
            f"schedule addresses {schedule.n_sessions} sessions but only "
            f"{len(traces)} traces were provided"
        )
    sid_of: Dict[int, int] = {}
    credits: Dict[int, Tuple[List[StepEvent], List[StrideEstimate]]] = {}

    def _accumulate(
        round_credits: Dict[int, Tuple[List[StepEvent], List[StrideEstimate]]],
        reverse: Dict[int, int],
    ) -> None:
        for sid, (steps, strides) in round_credits.items():
            k = reverse[sid]
            bucket = credits.setdefault(k, ([], []))
            bucket[0].extend(steps)
            bucket[1].extend(strides)

    for tick_events in schedule.events:
        for ev in tick_events:
            sid = sid_of.get(ev.session)
            if sid is None:
                profile = (
                    profiles[ev.session] if profiles is not None else None
                )
                sid = gateway.add_session(profile)
                sid_of[ev.session] = sid
            gateway.offer(
                sid, traces[ev.session][ev.start : ev.stop], seq=ev.seq
            )
        reverse = {sid: k for k, sid in sid_of.items()}
        _accumulate(gateway.tick(), reverse)
    if flush:
        reverse = {sid: k for k, sid in sid_of.items()}
        _accumulate(gateway.flush(), reverse)
    return credits
