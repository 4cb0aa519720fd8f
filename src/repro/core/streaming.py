"""Online (streaming) PTrack.

A watch does not hand the app a finished trace; samples arrive in small
batches and steps must be credited with bounded latency.
:class:`StreamingPTrack` is an *incremental* driver for the batch
pipeline: every stage that the batch path runs over a whole trace —
low-pass filtering, candidate segmentation, the offset and stepping
admission tests, the Fig.-4 consecutive-confirmation streak, the
per-cycle bounce solve — is cached across ``append`` calls, and only
the unsettled tail of the stream is ever (re)computed:

* **Filtering** is finalised in fixed hop-sized blocks, each computed
  with a fixed amount of left/right context, so a sample is filtered a
  bounded number of times no matter how the stream is chopped into
  ``append`` calls.
* **Segmentation** runs over a bounded window starting at the end of
  the last consumed cycle (the *anchor*); settled cycles — those
  ending far enough from the head that no future sample can change
  their boundaries — are classified exactly once and never revisited.
* **Classification state** (the Fig.-4 streak and its pending buffer)
  lives in a persistent :class:`~repro.core.step_counter.Fig4Streak`,
  shared with the batch counter, so decisions match the batch flow.

Work is performed only when the head crosses fixed *hop* boundaries,
which makes results independent of how the stream is chunked (one
giant append and 60 000 single-sample appends produce bit-identical
credits) and makes the amortised per-sample cost O(1). Each pass runs
as a round of one (:mod:`repro.core.rounds`), the round a
:class:`repro.serving.SessionPool` runs over a whole fleet.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounce import direct_bounce, extract_cycle_moments
from repro.core.config import PTrackConfig
from repro.core.rounds import RoundCycles, drain_rounds, flush_sessions
from repro.core.step_counter import CycleCandidate, Fig4Streak
from repro.core.stride import PTrackStrideEstimator
from repro.exceptions import ConfigurationError, GeometryError, SignalError
from repro.faults.policy import FaultPolicy
from repro.signal.projection import anterior_direction, project_horizontal
from repro.telemetry.registry import MetricsRegistry, get_registry
from repro.types import CycleObservation, GaitType, StepEvent, StrideEstimate, UserProfile

__all__ = [
    "SESSION_SNAPSHOT_SCHEMA",
    "ensure_snapshot_kind",
    "StreamingOpStats",
    "StreamingPTrack",
]

#: Version tag of the durable session state format (mirrors the
#: ``ptrack-telemetry-v1`` precedent). Restore paths refuse any other
#: schema so a stale or foreign blob can never silently resume with
#: wrong credits; bump the suffix when the state layout changes.
SESSION_SNAPSHOT_SCHEMA = "ptrack-session-v1"


def ensure_snapshot_kind(
    blob: Any, kind: str, schema: str = SESSION_SNAPSHOT_SCHEMA
) -> None:
    """Validate the envelope of a versioned durable-state blob.

    Every durable-state payload in this codebase — a single session
    (``kind="session"``), a pool (``kind="pool"``), a fleet checkpoint
    (``kind="checkpoint"``), a profile record (``kind="profile"`` under
    the ``ptrack-profile-v1`` schema) — shares the same envelope: a
    dict carrying ``schema`` (the exact version string) and ``kind``.
    This is the one place that envelope is enforced; mismatches raise
    an actionable :class:`ConfigurationError` instead of a silent
    wrong-credit resume or a cryptic ``KeyError`` deep in a restore
    path.
    """
    if not isinstance(blob, dict) or "schema" not in blob:
        raise ConfigurationError(
            f"expected a {schema} snapshot dict, got "
            f"{type(blob).__name__}; produce one with snapshot()"
        )
    if blob["schema"] != schema:
        raise ConfigurationError(
            f"unsupported snapshot schema {blob['schema']!r}; this build "
            f"restores only {schema!r} — re-snapshot with "
            "a matching build instead of resuming across versions"
        )
    if blob.get("kind") != kind:
        raise ConfigurationError(
            f"snapshot kind {blob.get('kind')!r} cannot restore here; "
            f"expected kind {kind!r} (session/pool/checkpoint blobs are "
            "not interchangeable)"
        )


@dataclass
class StreamingOpStats:
    """Operation counters proving the amortised-O(1) append claim.

    Every counter is cumulative over the stream's lifetime; the
    regression tests assert that each stays linear in ``samples_in``
    with small constants (the pre-PR driver re-filtered and
    re-classified the whole rolling buffer on every append, making
    ``samples_filtered`` proportional to ``appends x buffer`` instead).

    Attributes:
        samples_in: Samples accepted by ``append``.
        appends: ``append`` calls made.
        passes: Hop-boundary processing passes executed.
        samples_filtered: Samples pushed through the low-pass filter
            (including the fixed per-block context).
        segmentation_samples: Samples scanned by the candidate
            segmenter across all passes.
        cycles_staged: Candidate cycles staged for classification
            (each cycle is classified exactly once).
        offset_evaluations: Critical-point offset computations.
        stepping_tests: Stepping admission-test evaluations.
        samples_repaired: Invalid samples bridged by degraded-mode
            repair (bounded interpolation under a
            :class:`repro.faults.FaultPolicy`).
        samples_rejected: Invalid samples quarantined and dropped
            (part of an unrecoverable gap or a trailing defect).
        gaps_reset: Unrecoverable gaps that forced a segmentation
            reset instead of fusing disjoint signal.
    """

    samples_in: int = 0
    appends: int = 0
    passes: int = 0
    samples_filtered: int = 0
    segmentation_samples: int = 0
    cycles_staged: int = 0
    offset_evaluations: int = 0
    stepping_tests: int = 0
    samples_repaired: int = 0
    samples_rejected: int = 0
    gaps_reset: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and JSON)."""
        return {
            "samples_in": self.samples_in,
            "appends": self.appends,
            "passes": self.passes,
            "samples_filtered": self.samples_filtered,
            "segmentation_samples": self.segmentation_samples,
            "cycles_staged": self.cycles_staged,
            "offset_evaluations": self.offset_evaluations,
            "stepping_tests": self.stepping_tests,
            "samples_repaired": self.samples_repaired,
            "samples_rejected": self.samples_rejected,
            "gaps_reset": self.gaps_reset,
        }


def _reraise(k: int, exc: BaseException) -> None:
    """The failure callback of a lone session's round: fail fast."""
    raise exc


# The slot descriptors' setters of the credit records. Crediting builds
# each record with ``object.__new__`` and these sets: field for field
# what the frozen dataclass's constructor builds, at half its cost
# (``object.__setattr__`` would check the frozen class first).
_set_step_time = StepEvent.time.__set__
_set_step_index = StepEvent.index.__set__
_set_step_gait = StepEvent.gait_type.__set__
_set_step_cycle = StepEvent.cycle_id.__set__
_set_stride_time = StrideEstimate.time.__set__
_set_stride_length = StrideEstimate.length_m.__set__
_set_stride_bounce = StrideEstimate.bounce_m.__set__
_set_stride_cycle = StrideEstimate.cycle_id.__set__
_set_stride_gait = StrideEstimate.gait_type.__set__


@functools.lru_cache(maxsize=None)
def _stride_fractions(per_cycle: int) -> Tuple[float, ...]:
    """Where in its cycle each of a cycle's ``per_cycle`` strides is
    stamped, as a fraction of the cycle."""
    return tuple((k + 0.5) / per_cycle for k in range(per_cycle))


class StreamingPTrack:
    """Incremental step counting and stride estimation.

    Example::

        streamer = StreamingPTrack(sample_rate_hz=100.0, profile=profile)
        for batch in sensor_batches:          # (n, 3) float64 arrays
            steps, strides = streamer.append(batch)
            ...
        steps, strides = streamer.flush()     # settle the tail

    Appends are amortised O(1) per sample: each sample is filtered,
    segmented and classified a bounded number of times regardless of
    how many ``append`` calls the stream is split into, and credited
    cycles are never revisited. Results are identical across chunkings
    and match the batch pipeline on the same data up to the settle
    horizon (verified by tests).

    Args:
        sample_rate_hz: Sampling rate of the incoming stream.
        profile: Optional user profile; without it only steps are
            produced.
        config: PTrack configuration.
        settle_s: How far behind the buffer head a cycle must end
            before it is classified. Must exceed one maximum-length
            gait cycle so segmentation near the head cannot change
            settled boundaries. Default: 2.5 s (latency of crediting).
        max_buffer_s: Rolling buffer length; processed samples older
            than this are dropped.
        fault_policy: ``None`` (default) keeps strict ingest — any
            non-finite batch raises. A :class:`repro.faults.FaultPolicy`
            switches ingest into degraded mode: invalid samples
            (non-finite or saturated) are quarantined, short defects
            repaired, unrecoverable gaps reset segmentation, and the
            ``samples_repaired`` / ``samples_rejected`` / ``gaps_reset``
            counters in :attr:`op_stats` record it all. On a clean
            stream both modes credit bit-identical results.
        telemetry: Metrics registry receiving this session's
            instrumentation (append-latency histogram, credited
            steps/strides, and every :class:`StreamingOpStats` counter
            as a ``ptrack_*_total`` series). ``None`` falls back to
            the process gate (:func:`repro.telemetry.get_registry`) at
            construction time; with the gate closed the session runs
            uninstrumented and the data path is untouched
            (bit-identical credits, zero added work per append).
        collect_observations: When ``True``, every credited WALKING or
            STEPPING cycle also deposits a profile-free
            :class:`repro.types.CycleObservation` (direct bounce, or
            the Eqs. (3)-(5) moment triple) into a bounded buffer
            drained by :meth:`take_pending_observations` — the feed of
            :class:`repro.profiles.IncrementalSelfTrainer`. Off by
            default: credits are unchanged either way (observations are
            a read-only tap), but collection prices each credited
            walking cycle's moments once more.
    """

    #: Drop-oldest bound of the observation buffer (see
    #: ``observations_dropped``); ~an hour of credited cycles.
    MAX_PENDING_OBSERVATIONS = 4096

    def __init__(
        self,
        sample_rate_hz: float,
        profile: Optional[UserProfile] = None,
        config: Optional[PTrackConfig] = None,
        settle_s: float = 2.5,
        max_buffer_s: float = 30.0,
        fault_policy: Optional[FaultPolicy] = None,
        telemetry: Optional[MetricsRegistry] = None,
        collect_observations: bool = False,
    ) -> None:
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")
        self._config = config if config is not None else PTrackConfig()
        min_cycle_s = 2.0 / self._config.min_step_rate_hz
        if settle_s < min_cycle_s:
            raise ConfigurationError(
                f"settle_s must cover one maximal gait cycle "
                f"({min_cycle_s:.1f} s), got {settle_s}"
            )
        if max_buffer_s < 4 * settle_s:
            raise ConfigurationError("max_buffer_s must be >= 4 * settle_s")
        self._rate = sample_rate_hz
        self._profile = profile
        self._settle = settle_s
        self._max_buffer_s = max_buffer_s
        self._max_buffer = int(max_buffer_s * sample_rate_hz)
        self._settle_margin = int(settle_s * sample_rate_hz)
        # Processing happens only when the head crosses hop boundaries:
        # per-sample cost is amortised over the hop, and the boundary
        # positions (absolute sample indices) are what make results
        # chunking-invariant.
        self._hop = max(16, self._settle_margin // 2)
        # Filter context per finalised block. filtfilt edge transients
        # decay within well under a second at gait-band cutoffs; the
        # margin keeps the settle horizon behind the filter frontier.
        self._pad = max(24, min(int(round(sample_rate_hz)),
                                self._settle_margin - self._hop))
        self._estimator = (
            PTrackStrideEstimator(profile, self._config)
            if profile is not None
            else None
        )
        self._collect_observations = bool(collect_observations)
        self._policy = fault_policy
        self._max_repair = (
            int(round(fault_policy.max_repair_s * sample_rate_hz))
            if fault_policy is not None
            else 0
        )
        # Cached as a plain float: the degraded fast path compares
        # against it on every append.
        self._sat_limit = (
            float(fault_policy.saturation_limit)
            if fault_policy is not None
            else 0.0
        )
        # The rolling raw and filtered buffers. Buffer row 0 (absolute
        # index ``_buf_start``) sits at array row ``_off``: a trim only
        # moves the offset, and the rows move to the front when an
        # ingest reaches the end of the arrays.
        self._data = np.empty((max(256, self._max_buffer // 8), 3))
        self._filt = np.empty_like(self._data)
        self._machine = Fig4Streak(self._config)
        self._recent_strides: deque = deque(maxlen=32)
        self._stats = StreamingOpStats()
        self._bind_telemetry(telemetry)
        self._reset_positions()

    def _bind_telemetry(self, telemetry: Optional[MetricsRegistry]) -> None:
        """Publish to ``telemetry`` from here on (``None``: the process
        gate). Work done before the bind belongs to the registry it ran
        under, so the delta ledger restarts at the current counters:
        a fleet rebinds a live session to each epoch's fresh registry
        right after the epoch's snapshot has published everything."""
        self._telemetry = (
            telemetry if telemetry is not None else get_registry()
        )
        if self._telemetry is not None:
            reg = self._telemetry
            self._m_append_s = reg.histogram("ptrack_append_seconds")
            self._m_steps = reg.counter("ptrack_steps_credited_total")
            self._m_strides = reg.counter("ptrack_strides_credited_total")
            self._m_distance = reg.counter("ptrack_distance_m_total")
            self._m_ops = {
                field: reg.counter(f"ptrack_{field}_total")
                for field in StreamingOpStats().as_dict()
            }
            self._published: Dict[str, int] = self._stats.as_dict()

    def _reset_positions(self) -> None:
        """Zero all stream positions (construction and :meth:`reset`)."""
        self._size = 0
        self._off = 0  # array row of buffer row 0
        self._buf_start = 0  # absolute index of buffer row 0
        self._filt_final = 0  # filtered rows [buf_start, here) are final
        self._next_boundary = self._hop  # next processing pass position
        self._credited_until = 0  # absolute index after last credited step
        self._last_peak = -1  # absolute index of last consumed step peak
        self._cycle_counter = 0
        # Segments of the cycles fed to the streak and not yet
        # resolved, by cycle id: three dicts rather than one of
        # per-cycle tuples (the snapshot's ``seg_store`` pairs them up).
        self._seg_v: Dict[int, np.ndarray] = {}
        self._seg_h: Dict[int, np.ndarray] = {}
        self._seg_a: Dict[int, Optional[np.ndarray]] = {}
        self._total_steps = 0
        self._total_distance = 0.0
        self._trim_boundary: Optional[int] = None
        # Degraded-mode (FaultPolicy) stream state: the last valid
        # sample seen, how many invalid samples are pending a repair
        # decision, whether the stream is inside an unrecoverable gap,
        # and credits settled by a gap reset awaiting delivery.
        self._last_good: Optional[np.ndarray] = None
        self._pending_invalid = 0
        self._in_gap = False
        self._pending_credits: Optional[
            Tuple[List[StepEvent], List[StrideEstimate]]
        ] = None
        # Self-training observation buffer (collect_observations=True):
        # profile-free per-cycle measurements awaiting a drain by
        # take_pending_observations(). Bounded drop-oldest so an
        # undrained session can never grow without limit. A session
        # without the tap holds the empty tuple: no buffer to allocate.
        self._pending_observations: Sequence[CycleObservation] = (
            [] if self._collect_observations else ()
        )
        self._observations_dropped = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def step_count(self) -> int:
        """Steps credited so far."""
        return self._total_steps

    @property
    def distance_m(self) -> float:
        """Distance credited so far (0 without a profile)."""
        return self._total_distance

    @property
    def latency_s(self) -> float:
        """Crediting latency from the settle window."""
        return self._settle

    @property
    def credit_hop_s(self) -> float:
        """Extra worst-case latency from the hop-boundary batching."""
        return self._hop / self._rate

    @property
    def op_stats(self) -> StreamingOpStats:
        """A snapshot of the cumulative operation counters."""
        return replace(self._stats)

    @property
    def profile(self) -> Optional[UserProfile]:
        """The active user profile (``None`` for counter-only use)."""
        return self._profile

    @property
    def config(self) -> PTrackConfig:
        """The active pipeline configuration."""
        return self._config

    @property
    def sample_rate_hz(self) -> float:
        """The stream's sampling rate."""
        return self._rate

    def reset(self) -> None:
        """Rewind to an empty stream without reallocating buffers.

        A serving fleet reuses session objects across users/segments;
        ``reset`` drops every piece of stream state (positions, streak,
        totals, operation counters) while keeping the two preallocated
        rolling buffers, so no allocation churn occurs on reassignment.
        """
        self._machine.reset()
        self._recent_strides.clear()
        if self._telemetry is not None:
            # Flush unpublished op-stat deltas before the ledger is
            # wiped: the registry's totals stay monotonic across
            # session reuse while the delta baseline restarts with
            # the stream.
            self._publish_ops()
            self._published = {}
        self._stats = StreamingOpStats()
        self._reset_positions()

    def snapshot(self) -> Dict[str, Any]:
        """Capture the full session state as a versioned, picklable dict.

        The snapshot is a deep value copy — no buffer aliases the live
        session — so it can be pickled, shipped to another process, or
        held while the live session keeps appending. Restoring it (on a
        compatible session via :meth:`restore`, or from scratch via
        :meth:`from_snapshot`) resumes the stream *bit-identically*: the
        credits emitted after a snapshot/restore at any append boundary
        equal those of the uninterrupted run, in the same way credits
        are invariant to append chunking.

        Covered state: the rolling raw/filtered buffers and every
        absolute stream position, the segmentation staging store, the
        Fig.-4 streak and its pending buffer, the recent-stride history
        used for median imputation, degraded-mode health state (last
        good sample, pending invalid run, gap flag, parked credits),
        totals, and the cumulative operation counters. The telemetry
        registry is deliberately *not* part of session state — it has
        its own ``ptrack-telemetry-v1`` snapshot format — and a
        restored session publishes only post-restore deltas.
        """
        if self._telemetry is not None:
            # Snapshotting is a publication boundary: flush the op-stat
            # deltas still lagging since the last credit boundary, so
            # the registry the snapshot leaves behind accounts for all
            # snapshotted work and a restore under a fresh registry
            # (whose baseline is the snapshotted stats) loses nothing.
            self._publish_ops()
        n_filt = max(0, self._filt_final - self._buf_start)
        pending = self._pending_credits
        state: Dict[str, Any] = {
            "size": self._size,
            "buf_start": self._buf_start,
            "filt_final": self._filt_final,
            "next_boundary": self._next_boundary,
            "credited_until": self._credited_until,
            "last_peak": self._last_peak,
            "cycle_counter": self._cycle_counter,
            "total_steps": self._total_steps,
            "total_distance": self._total_distance,
            "trim_boundary": self._trim_boundary,
            "pending_invalid": self._pending_invalid,
            "in_gap": self._in_gap,
            "last_good": (
                None if self._last_good is None else self._last_good.copy()
            ),
            "pending_credits": (
                None
                if pending is None
                else (list(pending[0]), list(pending[1]))
            ),
            "data": self._data[self._off : self._off + self._size].copy(),
            "filt": self._filt[self._off : self._off + n_filt].copy(),
            "seg_store": {
                cid: (
                    v.copy(),
                    self._seg_h[cid].copy(),
                    None if self._seg_a[cid] is None else self._seg_a[cid].copy(),
                )
                for cid, v in self._seg_v.items()
            },
            "machine": self._machine.state_dict(),
            "recent_strides": list(self._recent_strides),
            "stats": self._stats.as_dict(),
            # Additive optional keys (readers use .get with defaults,
            # so pre-profile ptrack-session-v1 blobs stay restorable).
            "pending_observations": list(self._pending_observations),
            "observations_dropped": self._observations_dropped,
        }
        return {
            "schema": SESSION_SNAPSHOT_SCHEMA,
            "kind": "session",
            "sample_rate_hz": self._rate,
            "settle_s": self._settle,
            "max_buffer_s": self._max_buffer_s,
            "config": self._config,
            "profile": self._profile,
            "fault_policy": self._policy,
            "collect_observations": self._collect_observations,
            "state": state,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Overwrite this session's state from a :meth:`snapshot` dict.

        The receiving session must have been constructed with the same
        pipeline identity the snapshot was taken under — sampling rate,
        config, profile, settle/buffer horizons, and fault policy all
        shape where hop boundaries fall and what gets credited, so any
        mismatch (or an unknown schema version) raises
        :class:`ConfigurationError` naming the offending field instead
        of silently resuming with wrong credits. Use
        :meth:`from_snapshot` when no compatible session exists yet.
        """
        self.validate_snapshot(snapshot)
        st = snapshot["state"]
        size = int(st["size"])
        if size > self._data.shape[0]:
            capacity = self._data.shape[0]
            while capacity < size:
                capacity *= 2
            self._data = np.empty((capacity, 3))
            self._filt = np.empty_like(self._data)
        self._size = size
        self._off = 0
        self._data[:size] = st["data"]
        self._buf_start = int(st["buf_start"])
        self._filt_final = int(st["filt_final"])
        n_filt = max(0, self._filt_final - self._buf_start)
        self._filt[:n_filt] = st["filt"]
        self._next_boundary = int(st["next_boundary"])
        self._credited_until = int(st["credited_until"])
        self._last_peak = int(st["last_peak"])
        self._cycle_counter = int(st["cycle_counter"])
        self._total_steps = int(st["total_steps"])
        self._total_distance = float(st["total_distance"])
        tb = st["trim_boundary"]
        self._trim_boundary = None if tb is None else int(tb)
        self._pending_invalid = int(st["pending_invalid"])
        self._in_gap = bool(st["in_gap"])
        lg = st["last_good"]
        self._last_good = None if lg is None else lg.copy()
        pending = st["pending_credits"]
        self._pending_credits = (
            None if pending is None else (list(pending[0]), list(pending[1]))
        )
        # Copy the staged segments so two sessions restored from the
        # same snapshot never alias each other's staging store.
        self._seg_v.clear()
        self._seg_h.clear()
        self._seg_a.clear()
        for cid, (v, h, a) in st["seg_store"].items():
            self._seg_v[cid] = v.copy()
            self._seg_h[cid] = h.copy()
            self._seg_a[cid] = None if a is None else a.copy()
        self._machine.load_state(st["machine"])
        self._recent_strides = deque(st["recent_strides"], maxlen=32)
        self._pending_observations = (
            list(st.get("pending_observations", []))
            if self._collect_observations
            else ()
        )
        self._observations_dropped = int(st.get("observations_dropped", 0))
        self._stats = StreamingOpStats(**st["stats"])
        if self._telemetry is not None:
            # The snapshotted work was already published by the session
            # that produced it; baseline the delta ledger at the
            # restored counters so only post-restore work publishes.
            self._published = self._stats.as_dict()

    def validate_snapshot(self, snapshot: Any) -> None:
        """Raise :class:`ConfigurationError` unless ``snapshot`` can
        resume on this session bit-identically (schema and pipeline
        identity checks; no state changes)."""
        ensure_snapshot_kind(snapshot, "session")
        if snapshot["sample_rate_hz"] != self._rate:
            raise ConfigurationError(
                f"session snapshot was taken at sample_rate_hz="
                f"{snapshot['sample_rate_hz']} but this session runs at "
                f"{self._rate}; hop boundaries would shift and credits "
                "would diverge — construct the session at the snapshot's "
                "rate (StreamingPTrack.from_snapshot does this)"
            )
        if snapshot["config"] != self._config:
            raise ConfigurationError(
                "session snapshot was taken under a different PTrackConfig "
                "than this session's; admission thresholds would change "
                "mid-stream — construct the session with the snapshot's "
                "config (StreamingPTrack.from_snapshot does this)"
            )
        if snapshot["profile"] != self._profile:
            raise ConfigurationError(
                "session snapshot carries a different user profile than "
                "this session's; stride calibration (m, l) would change "
                "mid-stream — construct the session with the snapshot's "
                "profile (StreamingPTrack.from_snapshot does this)"
            )
        if (
            snapshot["settle_s"] != self._settle
            or snapshot["max_buffer_s"] != self._max_buffer_s
        ):
            raise ConfigurationError(
                f"session snapshot horizons (settle_s="
                f"{snapshot['settle_s']}, max_buffer_s="
                f"{snapshot['max_buffer_s']}) do not match this session's "
                f"(settle_s={self._settle}, max_buffer_s="
                f"{self._max_buffer_s}); the hop grid and trim schedule "
                "would shift — construct the session with the snapshot's "
                "horizons (StreamingPTrack.from_snapshot does this)"
            )
        if snapshot["fault_policy"] != self._policy:
            raise ConfigurationError(
                "session snapshot was taken under a different FaultPolicy "
                "than this session's; repair/gap decisions would change "
                "mid-stream — construct the session with the snapshot's "
                "policy (StreamingPTrack.from_snapshot does this)"
            )
        if bool(snapshot.get("collect_observations", False)) != self._collect_observations:
            raise ConfigurationError(
                "session snapshot's collect_observations="
                f"{snapshot.get('collect_observations', False)} does not "
                f"match this session's {self._collect_observations}; the "
                "self-training tap would silently start or stop mid-stream "
                "— construct the session with the snapshot's flag "
                "(StreamingPTrack.from_snapshot does this)"
            )

    @classmethod
    def from_snapshot(
        cls,
        snapshot: Dict[str, Any],
        telemetry: Optional[MetricsRegistry] = None,
    ) -> "StreamingPTrack":
        """Build a new session resuming exactly where ``snapshot`` left
        off (the migration/restart entry point: construct with the
        snapshot's own pipeline identity, then :meth:`restore`)."""
        ensure_snapshot_kind(snapshot, "session")
        session = cls(
            sample_rate_hz=snapshot["sample_rate_hz"],
            profile=snapshot["profile"],
            config=snapshot["config"],
            settle_s=snapshot["settle_s"],
            max_buffer_s=snapshot["max_buffer_s"],
            fault_policy=snapshot["fault_policy"],
            telemetry=telemetry,
            collect_observations=bool(
                snapshot.get("collect_observations", False)
            ),
        )
        session.restore(snapshot)
        return session

    def append(
        self,
        samples: np.ndarray,
    ) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        """Feed a batch of samples; return newly settled steps/strides.

        Args:
            samples: Array of shape (n, 3), float64, world-frame linear
                acceleration at the stream's sampling rate.

        Returns:
            Tuple of (new step events, new stride estimates), both in
            absolute stream time.

        Raises:
            SignalError: On a shape or dtype that would force a silent
                conversion copy on every call, or — in strict mode
                (no fault policy) — non-finite values.
        """
        t0 = time.perf_counter() if self._telemetry is not None else 0.0
        self.ingest(samples)
        parked = self.take_pending_credits()
        out = [([], []) if parked is None else parked]
        drain_rounds([self], [0], out, _reraise)
        if self._telemetry is not None:
            self._m_append_s.observe(time.perf_counter() - t0)
        return out[0]

    def flush(self) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        """Settle everything remaining in the buffer (end of stream)."""
        out = [([], [])]
        flush_sessions([self], [0], out, _reraise)
        return out[0]

    # ------------------------------------------------------------------
    # Ingest and delivery
    # ------------------------------------------------------------------
    def ingest(self, samples: np.ndarray) -> int:
        """Buffer a batch without processing it; return samples taken.

        Validation is strict: the rolling buffer is float64, and any
        dtype that is not float64 — or anything that is not already a
        numpy array — would be silently converted (copied) on *every*
        append, a per-call tax that is invisible until it dominates a
        serving profile. Such inputs raise :class:`SignalError` with
        the one-line fix instead.

        Without a fault policy, non-finite values also raise. With one
        (degraded mode), invalid samples — non-finite or saturated —
        are quarantined instead: a run no longer than the policy's
        repair bound is bridged by interpolation once the next good
        sample arrives, while a longer run is an unrecoverable gap
        (samples rejected, segmentation state reset, credits settled
        so far delivered through :meth:`take_pending_credits`). All
        repair/reset decisions depend only on the sample sequence, so
        degraded streams stay chunking-invariant.
        """
        if not isinstance(samples, np.ndarray):
            raise SignalError(
                "samples must be a numpy array of shape (n, 3); got "
                f"{type(samples).__name__} (convert once upstream with "
                "np.asarray(samples, dtype=np.float64))"
            )
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise SignalError(
                f"samples must have shape (n, 3), got {samples.shape}"
            )
        if samples.dtype != np.float64:
            raise SignalError(
                f"samples dtype {samples.dtype} forces a silent conversion "
                "copy on every append; convert once upstream with "
                "samples.astype(np.float64)"
            )
        if self._policy is None and not np.isfinite(samples).all():
            # A refused batch still counts as offered.
            self._stats.samples_in += samples.shape[0]
            self._stats.appends += 1
            raise SignalError("samples contain non-finite values")
        return self._accept(samples)

    def _accept(self, samples: np.ndarray) -> int:
        """Count and buffer one checked batch: the step :meth:`ingest`
        ends in. A pool that has checked a round's strict batches
        together hands each one straight to this step."""
        n = samples.shape[0]
        if n == 0:
            return 0
        stats = self._stats
        stats.samples_in += n
        stats.appends += 1
        if self._policy is None:
            self._write(samples)
        else:
            self._ingest_degraded(samples)
        return n

    def take_pending_credits(
        self,
    ) -> Optional[Tuple[List[StepEvent], List[StrideEstimate]]]:
        """Credits settled by a degraded-mode gap reset, delivered once.

        An unrecoverable gap settles the pre-gap tail *during*
        :meth:`ingest`, which cannot return events itself; they are
        parked here and handed to the next caller — ``append`` and
        ``flush`` drain this automatically, and a
        :class:`repro.serving.SessionPool` drains it right after each
        pooled ingest. Returns the parked ``(steps, strides)`` lists,
        now the caller's, or ``None`` when nothing is parked.
        """
        if self._pending_credits is None:
            return None
        steps, strides = self._pending_credits
        self._pending_credits = None
        return steps, strides

    @property
    def collect_observations(self) -> bool:
        """Whether this session taps credited cycles for self-training."""
        return self._collect_observations

    @property
    def observations_dropped(self) -> int:
        """Observations lost to the drop-oldest buffer bound."""
        return self._observations_dropped

    def take_pending_observations(self) -> List[CycleObservation]:
        """Drain the self-training observations collected so far.

        Only populated when the session was constructed with
        ``collect_observations=True``: one profile-free
        :class:`repro.types.CycleObservation` per credited WALKING or
        STEPPING cycle, in credit order. Draining regularly (the
        serving pools do it per round/epoch) keeps the buffer well
        under its :attr:`MAX_PENDING_OBSERVATIONS` drop-oldest bound.
        """
        if not self._pending_observations:
            return []
        observations = self._pending_observations
        self._pending_observations = []
        return observations

    # ------------------------------------------------------------------
    # Round seams
    #
    # Each method is one phase of what a pass at a hop boundary (or the
    # end-of-stream flush) does for a single session, exposed so a
    # round (repro.core.rounds) can run the phase's numeric kernel
    # across all of its sessions between the per-session state
    # transitions. Every op-stat bump lives inside the phase that does
    # the work, so the counters do not depend on who shares the round.
    # ------------------------------------------------------------------
    def begin_flush(self) -> Optional[int]:
        """Open the end-of-stream flush; return the head.

        Quarantines a trailing invalid run (it has no right-hand good
        sample to repair against) and leaves any gap; the credits a gap
        reset parked are then the caller's to take
        (:meth:`take_pending_credits`). The head is the absolute index
        the tail settles through, or ``None`` for a stream that never
        buffered a sample (nothing to settle; go straight to
        :meth:`end_flush`). Otherwise the caller drains the due hop
        boundaries, finalises the filter (:meth:`final_filter_plan`),
        runs one zero-settle pass at the head closed by
        :meth:`stage_cycles`, credits it, then calls
        :meth:`end_flush`.
        """
        if self._pending_invalid:
            self._stats.samples_rejected += self._pending_invalid
            self._pending_invalid = 0
        self._in_gap = False
        head = self._buf_start + self._size
        return head if head else None

    def end_flush(self) -> None:
        """Close the flush: trailing pending cycles can never confirm
        (interference), and the op-stat deltas are published."""
        for res in self._machine.flush():
            self._pop_segments(res.candidate.cycle_id)
        if self._telemetry is not None:
            self._publish_ops()

    def peek_boundary(self) -> Optional[int]:
        """The next due hop boundary, or ``None`` when the head has not
        crossed it. Pure query: no state changes."""
        boundary = self._next_boundary
        if boundary > self._buf_start + self._size:
            return None
        return boundary

    def filter_plan(
        self,
        limit_abs: int,
        los: List[int],
        his: List[int],
        finals: List[int],
    ) -> int:
        """Append the pending filter blocks up to ``limit_abs``; return
        how many. No state changes.

        Each block is one hop-sized finalisation: filter raw rows
        ``[los[e], his[e])`` and keep the output rows starting at
        absolute index ``finals[e]`` (exactly what
        :meth:`apply_filtered_block` consumes). A round collects the
        plans of every due session into the same three lists, gathers
        equal-length raw blocks as the rows of one stack and runs one
        filter call per length group.
        """
        final = self._filt_final
        hop, pad = self._hop, self._pad
        count = 0
        while final + hop + pad <= limit_abs:
            los.append(max(self._buf_start, final - pad))
            his.append(final + hop + pad)
            finals.append(final)
            final += hop
            count += 1
        return count

    def raw_block(self, lo: int, hi: int) -> np.ndarray:
        """Raw buffer rows ``[lo, hi)`` by absolute index (a view)."""
        base = self._buf_start - self._off
        return self._data[lo - base : hi - base]

    def apply_filtered_block(
        self, lo: int, hi: int, final: int, rows: np.ndarray
    ) -> None:
        """Commit one filtered block from a :meth:`filter_plan` entry.

        ``rows`` is the filtered ``raw_block(lo, hi)`` from absolute
        index ``final`` on (at least a hop of rows); its first hop
        becomes final filtered output. Blocks must be applied in plan
        order.
        """
        at = final - self._buf_start + self._off
        hop = self._hop
        self._filt[at : at + hop] = rows[:hop]
        self._filt_final = final + hop
        self._stats.samples_filtered += hi - lo

    def final_filter_plan(
        self,
        head: int,
        los: List[int],
        his: List[int],
        finals: List[int],
    ) -> int:
        """Append the end-of-stream filter block through ``head``;
        return how many (0 or 1). No state changes.

        At most one block ``(lo, head, final)``: no right context
        remains, so the whole unfinalised tail ``[final, head)`` is
        filtered at once from raw rows ``[lo, head)``, with up to
        ``pad`` rows of left context (what :meth:`apply_final_block`
        consumes). None when the filter already reaches ``head``. A
        round stacks equal-length tail blocks exactly as it stacks
        :meth:`filter_plan` blocks.
        """
        if head <= self._filt_final:
            return 0
        los.append(max(self._buf_start, self._filt_final - self._pad))
        his.append(head)
        finals.append(self._filt_final)
        return 1

    def apply_final_block(
        self, lo: int, hi: int, final: int, rows: np.ndarray
    ) -> None:
        """Commit the filtered :meth:`final_filter_plan` block: ``rows``
        are its filtered rows from ``final`` through ``hi``, and become
        final filtered output."""
        at = final - self._buf_start + self._off
        self._filt[at : at + hi - final] = rows
        self._stats.samples_filtered += hi - lo
        self._filt_final = hi

    def begin_pass(
        self,
        boundary: int,
        settle_margin: Optional[int],
        origins: List[int],
        settled_ends: List[int],
        last_peaks: List[int],
    ) -> Optional[np.ndarray]:
        """Open a pass at ``boundary``, whose filter blocks the round
        has applied: expose the segmentation window.

        Returns the retained window's filtered rows (a view, all three
        axes: the segmenter scans the vertical one, column 2, and the
        round copies each admitted cycle's segments out of it) and
        appends the window's :func:`admit_cycles` inputs — the absolute
        index of its first sample, the absolute index before which
        cycles are settled and the consumed-peak watermark — to
        ``origins``, ``settled_ends`` and ``last_peaks``. Returns
        ``None`` (appending nothing) when the retained window is too
        small to segment: the pass still counts, and callers proceed
        straight to :meth:`stage_cycles` with no cycles so the pass
        closes and its trim runs. ``settle_margin`` ``None`` is the
        session's settle horizon.
        """
        margin = self._settle_margin if settle_margin is None else settle_margin
        self._stats.passes += 1
        settled_end = min(boundary - margin, self._filt_final)
        window = self._filt_final - self._buf_start
        if window < 8 or settled_end <= self._buf_start:
            return None
        self._stats.segmentation_samples += window
        origins.append(self._buf_start)
        settled_ends.append(settled_end)
        last_peaks.append(self._last_peak)
        return self._filt[self._off : self._off + window]

    def stage_cycles(
        self, rc: RoundCycles, lo: int, hi: int, boundary: int
    ) -> None:
        """Stage this pass's measured cycles ``lo:hi`` of ``rc`` and
        close the pass at ``boundary``.

        The state half of staging: moves the consumed-peak watermark to
        the last cycle's peak, assigns the cycle ids, bumps the staging
        counters and builds each candidate into ``rc.cands``, leaving
        the measurements (anterior projection, motion gate, offset) to
        the round, which stacks them through
        :func:`repro.core.batched.batched_stage_measurements`. Then
        schedules the next boundary and arms the trim
        :meth:`credit_resolved` runs once the pass's cycles are
        credited. A cycle whose measurement raised re-raises here,
        after the cycles before it were staged and before the pass
        closes, as the per-cycle path would.
        """
        if hi > lo:
            self._last_peak = rc.peaks[hi - 1][-1]
            errors = rc.errors
            cands, starts, ends, peaks = rc.cands, rc.starts, rc.ends, rc.peaks
            motion, offsets = rc.motion_ok, rc.offsets
            stats = self._stats
            new = object.__new__
            for i in range(lo, hi):
                if errors and i in errors:
                    raise errors[i]
                motion_ok = motion[i]
                if motion_ok:
                    stats.offset_evaluations += 1
                # Built via __new__ + attribute sets: one candidate per
                # admitted cycle fleet-wide, and the dataclass
                # constructor is ~2x the cost of plain sets.
                cand = new(CycleCandidate)
                cand.cycle_id = self._cycle_counter
                cand.start = starts[i]
                cand.end = ends[i]
                cand.peaks = peaks[i]
                cand.motion_ok = motion_ok
                cand.offset = offsets[i]
                cand.corr = 0.0
                cand.corr_v = 0.0
                cand.phase_ok = False
                self._cycle_counter += 1
                stats.cycles_staged += 1
                cands[i] = cand
        self._next_boundary = boundary + self._hop
        self._trim_boundary = boundary

    def classify(
        self,
        rc: RoundCycles,
        lo: int,
        hi: int,
        rows: List[int],
        profiles: List[UserProfile],
    ) -> None:
        """Feed staged cycles ``lo:hi`` of ``rc`` through the Fig.-4 streak.

        The state half of a pass's crediting: counts the stepping tests
        :func:`stepping_values` ran, stores each cycle's segments until
        the streak resolves it, advances the confirmation streak, and
        appends the cycles it credits to ``rc``'s credited lists
        (``resolved``, ``cr_v``, ``cr_h``, ``cr_a``). Then appends the
        index of each credited cycle that needs a stride solve to
        ``rows``, and this session's profile to ``profiles``: the rows
        a round passes to
        :func:`repro.core.batched.batched_cycle_solutions`. Cycles left
        out never consult a solution (no estimator, retired segments,
        or no new peaks).
        """
        threshold = self._config.offset_threshold
        seg_v, seg_h, seg_a = self._seg_v, self._seg_h, self._seg_a
        cands, v_segs, h_segs = rc.cands, rc.v_segs, rc.h_segs
        a_segs, anterior_ok = rc.a_segs, rc.anterior_ok
        resolved, cr_v, cr_h, cr_a = rc.resolved, rc.cr_v, rc.cr_h, rc.cr_a
        feed = self._machine.feed
        stats = self._stats
        first = len(resolved)
        for i in range(lo, hi):
            cand = cands[i]
            if cand.motion_ok and cand.offset <= threshold:
                stats.stepping_tests += 1
            cid = cand.cycle_id
            seg_v[cid] = v_segs[i]
            seg_h[cid] = h_segs[i]
            seg_a[cid] = a_segs[i] if anterior_ok[i] else None
            # The streak appends this cycle's resolutions to the round's
            # credited list; interference is compacted away in place.
            keep = len(resolved)
            feed(cand, resolved)
            cands[i] = None
            for n in range(keep, len(resolved)):
                res = resolved[n]
                rid = res.candidate.cycle_id
                v = seg_v.pop(rid, None)
                h = seg_h.pop(rid, None)
                a = seg_a.pop(rid, None)
                if res.gait_type is GaitType.INTERFERENCE:
                    continue
                resolved[keep] = res
                cr_v.append(v)
                cr_h.append(h)
                cr_a.append(a)
                keep += 1
            del resolved[keep:]
        if self._estimator is None:
            return
        profile = self._profile
        for j in range(first, len(resolved)):
            if cr_v[j] is None or not resolved[j].candidate.peaks:
                continue
            rows.append(j)
            profiles.append(profile)

    def credit_resolved(
        self,
        rc: RoundCycles,
        lo: int,
        hi: int,
        steps: List[StepEvent],
        strides: List[StrideEstimate],
    ) -> None:
        """Emit credits for classified cycles ``lo:hi`` of ``rc``; close
        the pass.

        The crediting tail of a pass: step/stride emission, appended to
        ``steps`` and ``strides`` (untouched when ``lo == hi``), with
        the sequential median-imputation fallback, totals, the
        credited-frontier advance, the boundary trim, and telemetry.

        A credited cycle's stride solve (``rc.stride_m[j]``, from the
        round's :func:`~repro.core.batched.batched_cycle_solutions`) is
        consulted only when the cycle qualifies for a solve, and the
        median imputation stays sequential, so a failed solve sees
        exactly the strides credited before it in this round.
        """
        new_steps = new_strides = 0
        if hi > lo:
            n_steps = len(steps)
            n_strides = len(strides)
            self._credit_cycles(rc, lo, hi, steps, strides)
            new_steps = len(steps) - n_steps
            new_strides = len(strides) - n_strides
            self._total_steps += new_steps
            if new_strides:
                distance = float(
                    sum(strides[n].length_m for n in range(n_strides, len(strides)))
                )
                self._total_distance += distance
            if new_steps:
                self._credited_until = max(
                    self._credited_until, steps[-1].index + 1
                )
        if self._trim_boundary is not None:
            boundary = self._trim_boundary
            self._trim_boundary = None
            self._trim(boundary)
        if self._telemetry is not None:
            if new_steps:
                self._m_steps.inc(new_steps)
            if new_strides:
                self._m_strides.inc(new_strides)
                self._m_distance.inc(distance)
            self._publish_ops()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pop_segments(self, cycle_id: int) -> None:
        """Drop a resolved cycle's stored segments."""
        self._seg_v.pop(cycle_id, None)
        self._seg_h.pop(cycle_id, None)
        self._seg_a.pop(cycle_id, None)

    def _observe_credited(self, rc: RoundCycles, lo: int, hi: int) -> None:
        """Deposit self-training observations for credited cycles.

        A read-only tap: the same cycles the stride path prices (live
        segments, new peaks) contribute a profile-free measurement —
        the direct bounce of a STEPPING cycle, the Eqs. (3)-(5) moment
        triple of a WALKING one — computed from the same filtered
        segments the stride solves consume. Cycles whose signal does
        not admit the measurement are skipped exactly as the estimator
        skips their solves. The observation stream therefore tracks the
        offline :func:`repro.core.selftrain.walk_observations`
        extraction the same way streaming credits track the batch
        pipeline: equivalent gait evidence, not bit-equal floats (the
        rolling filter finalises bounded-context blocks).
        """
        dt = 1.0 / self._rate
        out = self._pending_observations
        resolved = rc.resolved
        for j in range(lo, hi):
            v_seg = rc.cr_v[j]
            res = resolved[j]
            resolved[j] = None
            gait = res.gait_type
            if v_seg is None or not res.candidate.peaks:
                continue
            if gait is GaitType.STEPPING:
                try:
                    bounce = direct_bounce(v_seg, dt)
                except SignalError:
                    continue
                out.append(
                    CycleObservation(gait_type=GaitType.STEPPING, bounce_m=bounce)
                )
            elif gait is GaitType.WALKING:
                h_seg, a_seg = rc.cr_h[j], rc.cr_a[j]
                try:
                    if a_seg is None:
                        # Degenerate staged projection: re-derive (and
                        # possibly re-fail) as the stride solve does.
                        a_seg = project_horizontal(
                            h_seg, anterior_direction(h_seg)
                        )
                    moments = extract_cycle_moments(v_seg, a_seg, dt)
                except (SignalError, GeometryError):
                    continue
                out.append(
                    CycleObservation(
                        gait_type=GaitType.WALKING,
                        h1_m=moments.h1_m,
                        h2_m=moments.h2_m,
                        d_m=moments.d_m,
                    )
                )
        overflow = len(out) - self.MAX_PENDING_OBSERVATIONS
        if overflow > 0:
            del out[:overflow]
            self._observations_dropped += overflow

    def _publish_ops(self) -> None:
        """Sync op-stat deltas into the telemetry counters.

        Counters mirror :class:`StreamingOpStats` exactly (one
        ``ptrack_<field>_total`` per field), published as deltas so
        the registry totals stay monotonic across :meth:`reset` and
        session reuse. Publishing happens at credit boundaries —
        :meth:`credit_resolved`, ``flush``, and ``reset`` — which every
        driver (``append``, pool round, sharded fleet) flows
        through, so fleet counter totals are identical across serving
        modes; between boundaries the registry may lag ``op_stats``
        by at most one settle horizon.
        """
        current = self._stats.as_dict()
        published = self._published
        for field, value in current.items():
            delta = value - published.get(field, 0)
            if delta:
                self._m_ops[field].inc(delta)
        self._published = current

    def _write(self, block: np.ndarray) -> None:
        """Append validated rows to the rolling buffer (grow as needed)."""
        n = block.shape[0]
        size = self._size
        at = self._off + size
        if at + n > self._data.shape[0]:
            self._make_room(size + n)
            at = size
        self._data[at : at + n] = block
        self._size = size + n

    def _make_room(self, needed: int) -> None:
        """Move the buffered rows to the front of the arrays, doubling
        their capacity first while it is under ``needed`` rows."""
        size, off = self._size, self._off
        capacity = self._data.shape[0]
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, 3))
            grown[:size] = self._data[off : off + size]
            self._data = grown
            grown_f = np.empty((capacity, 3))
            grown_f[:size] = self._filt[off : off + size]
            self._filt = grown_f
        else:
            # Overlapping copies: NumPy buffers them.
            self._data[:size] = self._data[off : off + size]
            self._filt[:size] = self._filt[off : off + size]
        self._off = 0

    def _ingest_degraded(self, samples: np.ndarray) -> None:
        """Quarantine/repair/reset ingest under the fault policy.

        The batch is split into maximal runs of valid and invalid
        samples and each run is fed through a tiny state machine
        (``_last_good`` / ``_pending_invalid`` / ``_in_gap``) whose
        transitions depend only on the sample sequence — never on how
        the stream was chunked into appends — which preserves the
        chunking-invariance guarantee in degraded mode.
        """
        # Fast path: one fused reduction decides the whole batch.
        # abs().max() propagates NaN and maps inf to inf, and NaN <
        # limit is False, so "peak under the rail" certifies every
        # sample finite AND unsaturated in a single pass — keeping
        # clean-trace overhead within the tracked benchmark budget.
        if not self._in_gap and self._pending_invalid == 0:
            if float(np.abs(samples).max()) < self._sat_limit:
                self._write(samples)
                self._last_good = samples[-1].copy()
                return
        valid = np.isfinite(samples).all(axis=1)
        peak = np.abs(samples).max(axis=1)
        ok = valid & (peak < self._sat_limit)
        if bool(ok.all()) and not self._in_gap and self._pending_invalid == 0:
            self._write(samples)
            self._last_good = samples[-1].copy()
            return
        bounds = np.flatnonzero(np.diff(ok.view(np.int8))) + 1
        edges = [0, *bounds.tolist(), samples.shape[0]]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if ok[lo]:
                self._take_good(samples[lo:hi])
            else:
                self._take_invalid(hi - lo)

    def _take_good(self, block: np.ndarray) -> None:
        """Accept a run of valid samples, repairing any pending defect."""
        self._in_gap = False
        if self._pending_invalid:
            k = self._pending_invalid
            self._pending_invalid = 0
            first = block[0]
            if self._last_good is None:
                # Defect at stream (or post-gap) start: backfill with
                # the first good sample — there is nothing to the left.
                fill = np.tile(first, (k, 1))
            elif self._policy.repair == "hold":
                fill = np.tile(self._last_good, (k, 1))
            else:
                w = (np.arange(1, k + 1) / (k + 1))[:, None]
                fill = self._last_good * (1.0 - w) + first * w
            self._write(fill)
            self._stats.samples_repaired += k
        self._write(block)
        self._last_good = block[-1].copy()

    def _take_invalid(self, count: int) -> None:
        """Quarantine a run of invalid samples; declare gaps when due."""
        if self._in_gap:
            # Inside an already-declared gap every further invalid
            # sample is part of the same outage.
            self._stats.samples_rejected += count
            self._advance_past_gap(count)
            return
        self._pending_invalid += count
        if self._pending_invalid > self._max_repair:
            rejected = self._pending_invalid
            self._pending_invalid = 0
            self._stats.samples_rejected += rejected
            self._stats.gaps_reset += 1
            self._gap_reset(rejected)
            self._in_gap = True

    def _gap_reset(self, skipped: int) -> None:
        """Restart the stream across an unrecoverable gap.

        The pre-gap tail is settled (a zero-horizon flush) and its
        credits parked for :meth:`take_pending_credits`; then every
        piece of segmentation state restarts at the first post-gap
        index so disjoint signal is never fused into phantom cycles.
        Totals, counters and the user's stride history survive — the
        same person is still wearing the watch after the outage.
        """
        steps, strides = self.flush()
        if steps or strides:
            self._pending_credits = (steps, strides)
        new_start = self._buf_start + self._size + skipped
        self._machine.reset()
        self._seg_v.clear()
        self._seg_h.clear()
        self._seg_a.clear()
        self._size = 0
        self._off = 0
        self._buf_start = new_start
        self._filt_final = new_start
        self._next_boundary = new_start + self._hop
        self._credited_until = new_start
        self._last_peak = max(self._last_peak, new_start - 1)
        self._trim_boundary = None
        self._last_good = None

    def _advance_past_gap(self, count: int) -> None:
        """Shift the (empty) stream start past ``count`` gap samples."""
        self._buf_start += count
        self._filt_final = self._buf_start
        self._next_boundary = self._buf_start + self._hop
        self._credited_until = self._buf_start
        self._last_peak = max(self._last_peak, self._buf_start - 1)

    def _credit_cycles(
        self,
        rc: RoundCycles,
        lo: int,
        hi: int,
        steps: List[StepEvent],
        strides: List[StrideEstimate],
    ) -> None:
        """Emit credited cycles ``lo:hi`` of ``rc``: their step events
        and stride estimates, in one pass with the loop's lookups
        hoisted, releasing each resolution once it is spent."""
        dt = 1.0 / self._rate
        resolved, cr_v = rc.resolved, rc.cr_v
        stride_m, bounce_m = rc.stride_m, rc.bounce_m
        estimating = self._estimator is not None
        recent = self._recent_strides
        per_cycle = self._config.steps_per_cycle
        fracs = _stride_fractions(per_cycle)
        # The observation tap reads the resolutions after this loop.
        release = not self._collect_observations
        add_step, add_stride = steps.append, strides.append
        new = object.__new__
        for j in range(lo, hi):
            res = resolved[j]
            if release:
                resolved[j] = None
            cand = res.candidate
            gait = res.gait_type
            cid = cand.cycle_id
            peaks = cand.peaks
            for peak in peaks:
                ev = new(StepEvent)
                _set_step_time(ev, peak * dt)
                _set_step_index(ev, int(peak))
                _set_step_gait(ev, gait)
                _set_step_cycle(ev, cid)
                add_step(ev)
            if not estimating or cr_v[j] is None or not peaks:
                continue
            stride = stride_m[j]
            if stride is not None:
                bounce = bounce_m[j]
                recent.append(stride)
            elif recent:
                # A credited cycle whose geometry did not admit a solve
                # still moved the user; impute with the recent median as
                # the batch estimator does with the walk median.
                stride = float(np.median(recent))
                bounce = None
            else:
                continue
            start = cand.start
            n_seg = cand.end - start
            # A cycle whose earlier peaks were already consumed by a
            # previous (overlapping) cycle contributes only as many
            # strides as it contributes new steps — the latest positions.
            for k in range(max(0, per_cycle - len(peaks)), per_cycle):
                est = new(StrideEstimate)
                _set_stride_time(est, (start + fracs[k] * n_seg) * dt)
                _set_stride_length(est, stride)
                _set_stride_bounce(est, bounce)
                _set_stride_cycle(est, cid)
                _set_stride_gait(est, gait)
                add_stride(est)
        if not release:
            self._observe_credited(rc, lo, hi)

    def _trim(self, boundary: int) -> None:
        """Drop buffer rows no stage can read again (bounded memory).

        The segmenter wants the longest window we can afford (global
        context matches the batch reference), so trimming is
        conservative: stay behind the credited frontier and two settle
        windows of context, and keep the filter's pad of raw history.
        The hard ``max_buffer`` cap always wins, bounding memory for
        streams that never credit.

        Every term is keyed to the *boundary* whose pass was just
        resolved — never to the raw head, which depends on append
        chunking. That keeps the retained window at each future pass a
        pure function of the boundary index, which is what makes
        credits chunking-invariant bit for bit (the head trails the
        last boundary by less than one hop, so the memory bound holds
        with ``boundary + hop``). Dropping rows moves no data: the
        buffer's first row advances, and :meth:`_write` moves the rows
        to the front of the arrays only when it reaches their end.
        """
        keep_abs = min(
            boundary - 2 * self._settle_margin,
            self._credited_until,
            self._filt_final - self._pad,
        )
        keep_abs = max(
            keep_abs,
            boundary + self._hop - self._max_buffer,
            self._buf_start,
        )
        keep_from = keep_abs - self._buf_start
        if keep_from:
            self._off += keep_from
            self._size -= keep_from
            self._buf_start = keep_abs
