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
credits) and makes the amortised per-sample cost O(1).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounce import direct_bounce, extract_cycle_moments
from repro.core.config import PTrackConfig
from repro.core.offset import cycle_offset
from repro.core.step_counter import CycleCandidate, Fig4Streak
from repro.core.stepping import batch_stepping_tests
from repro.core.stride import PTrackStrideEstimator
from repro.exceptions import ConfigurationError, GeometryError, SignalError
from repro.faults.policy import FaultPolicy
from repro.signal.filters import butter_lowpass
from repro.signal.projection import anterior_direction, project_horizontal
from repro.signal.batched import WindowCycles, batched_segment_windows
from repro.telemetry.registry import MetricsRegistry, get_registry
from repro.types import CycleObservation, GaitType, StepEvent, StrideEstimate, UserProfile

__all__ = [
    "SESSION_SNAPSHOT_SCHEMA",
    "ensure_snapshot_kind",
    "StreamingOpStats",
    "StagedCycle",
    "admit_cycles",
    "stepping_values",
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


@dataclass
class StagedCycle:
    """A settled candidate cycle awaiting its stepping-test results.

    Produced by :meth:`StreamingPTrack.make_staged`; the cheap
    per-cycle measurements (motion gate, offset) are already filled in,
    while the stepping admission tests — the batchable hot kernel — run
    afterwards in one :func:`stepping_values` call, over the session's
    own cycles on the solo path or over every session's in a
    :class:`repro.serving.SessionPool` round.

    Attributes:
        candidate: The Fig.-4 candidate (absolute sample indices).
        v_seg: Filtered vertical acceleration of the cycle (copy).
        a_seg: Per-cycle refined anterior acceleration (copy); zeros
            when the projection was degenerate.
        h_seg: Filtered horizontal acceleration, shape (n, 2) (copy).
        needs_stepping: Whether the admission tests must be evaluated
            (the cycle passed the motion gate and the offset kept it
            in play).
        anterior_ok: Whether the anterior projection succeeded; a
            degenerate projection must be re-derived (and re-fail) in
            the stride solve exactly as the batch estimator does.
    """

    candidate: CycleCandidate
    v_seg: np.ndarray
    a_seg: np.ndarray
    h_seg: np.ndarray
    needs_stepping: bool
    anterior_ok: bool = True


def admit_cycles(
    cycles: WindowCycles,
    origins: Sequence[int],
    settled_ends: Sequence[int],
    last_peaks: Sequence[int],
) -> List[List[Tuple[int, int, Tuple[int, ...]]]]:
    """The admission rule of a pass, for every window of a round at once.

    Window ``w`` of ``cycles`` is a session's retained buffer from
    absolute index ``origins[w]``; ``settled_ends[w]`` and
    ``last_peaks[w]`` come from the same :meth:`StreamingPTrack.begin_pass`.
    A cycle is admitted when it has settled (``end <= settled_end``)
    and its second peak is past the consumed-peak watermark; its first
    peak counts only when it is past the watermark too. A cycle whose
    peaks were all consumed in an earlier pass re-appears every pass
    until the buffer trims it; a re-pairing after a trim may also
    splice an old peak with a fresh one (hybrid cycle) — only the fresh
    peaks count. Pairs are disjoint and increasing, so raising the
    watermark after each admitted cycle changes no later decision and
    one mask decides the round.

    Returns:
        Per window, its admitted cycles ``(abs_start, abs_end,
        new_peaks)`` in time order, for
        :meth:`StreamingPTrack.commit_cycles`.
    """
    owners = cycles.owners
    lift = (np.asarray(origins) - cycles.window_starts)[owners]
    watermark = np.asarray(last_peaks)[owners]
    ends = cycles.ends + lift
    p2 = cycles.p2 + lift
    ok = (ends <= np.asarray(settled_ends)[owners]) & (p2 > watermark)
    p1 = cycles.p1[ok] + lift[ok]
    spans = [
        (start, end, (first, second) if fresh else (second,))
        for start, end, first, second, fresh in zip(
            (cycles.starts[ok] + lift[ok]).tolist(),
            ends[ok].tolist(),
            p1.tolist(),
            p2[ok].tolist(),
            (p1 > watermark[ok]).tolist(),
        )
    ]
    bounds = owners[ok].searchsorted(np.arange(len(origins) + 1)).tolist()
    return [spans[bounds[w] : bounds[w + 1]] for w in range(len(origins))]


def stepping_values(
    staged_lists: Sequence[Sequence[StagedCycle]],
    config: PTrackConfig,
) -> List[List[Optional[Tuple[float, float, bool]]]]:
    """The stepping admission tests of a round, for every session at once.

    Every staged cycle that needs the tests, whichever session staged
    it, goes into one :func:`repro.core.stepping.batch_stepping_tests`
    call. The kernels are row-wise over length-grouped stacks, so a
    session's values do not depend on which other sessions share the
    call: the solo drain passes its own cycles alone and a pool round
    passes the whole fleet's.

    Returns:
        Per session, one ``(corr, corr_v, phase_ok)`` triple per staged
        cycle, ``None`` where ``needs_stepping`` is false — the
        ``stepping`` argument of :meth:`StreamingPTrack.classify`.
    """
    values: List[List[Optional[Tuple[float, float, bool]]]] = [
        [None] * len(staged) for staged in staged_lists
    ]
    flat = [
        (si, ci, cyc)
        for si, staged in enumerate(staged_lists)
        for ci, cyc in enumerate(staged)
        if cyc.needs_stepping
    ]
    if flat:
        triples = batch_stepping_tests(
            [cyc.v_seg for _, _, cyc in flat],
            [cyc.a_seg for _, _, cyc in flat],
            config,
        )
        for (si, ci, _), triple in zip(flat, triples):
            values[si][ci] = triple
    return values


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
        self._data = np.empty((max(256, self._max_buffer // 8), 3))
        self._filt = np.empty_like(self._data)
        self._machine = Fig4Streak(self._config)
        self._recent_strides: deque = deque(maxlen=32)
        self._stride_fracs: List[float] = []
        self._stats = StreamingOpStats()
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
            self._published: Dict[str, int] = {}
        self._reset_positions()

    def _reset_positions(self) -> None:
        """Zero all stream positions (construction and :meth:`reset`)."""
        self._size = 0
        self._buf_start = 0  # absolute index of buffer row 0
        self._filt_final = 0  # filtered rows [buf_start, here) are final
        self._next_boundary = self._hop  # next processing pass position
        self._credited_until = 0  # absolute index after last credited step
        self._last_peak = -1  # absolute index of last consumed step peak
        self._cycle_counter = 0
        self._seg_store: Dict[
            int, Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
        ] = {}
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
        # undrained session can never grow without limit.
        self._pending_observations: List[CycleObservation] = []
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
            "data": self._data[: self._size].copy(),
            "filt": self._filt[:n_filt].copy(),
            "seg_store": {
                cid: (v.copy(), h.copy(), None if a is None else a.copy())
                for cid, (v, h, a) in self._seg_store.items()
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
        self._seg_store = {
            cid: (v.copy(), h.copy(), None if a is None else a.copy())
            for cid, (v, h, a) in st["seg_store"].items()
        }
        self._machine.load_state(st["machine"])
        self._recent_strides = deque(st["recent_strides"], maxlen=32)
        self._stride_fracs = []
        self._pending_observations = list(st.get("pending_observations", []))
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
        steps, strides = self.take_pending_credits()
        self._drain(steps, strides)
        if self._telemetry is not None:
            self._m_append_s.observe(time.perf_counter() - t0)
        return steps, strides

    def flush(self) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        """Settle everything remaining in the buffer (end of stream)."""
        head, steps, strides = self.begin_flush()
        if head is not None:
            self._drain(steps, strides)
            # Finalise the filter through the head and classify the tail
            # with a zero settle horizon.
            cfg = self._config
            for lo, hi, final in self.final_filter_plan(head):
                block = butter_lowpass(
                    self.raw_block(lo, hi),
                    cfg.lowpass_cutoff_hz,
                    self._rate,
                    cfg.lowpass_order,
                )
                self.apply_final_block(lo, hi, final, block)
            self._settle_pass(head, 0, steps, strides)
        self.end_flush()
        return steps, strides

    # ------------------------------------------------------------------
    # Ingest and delivery (used by repro.serving.SessionPool)
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
        n = samples.shape[0]
        if n == 0:
            return 0
        self._stats.samples_in += n
        self._stats.appends += 1
        if self._policy is None:
            if not np.isfinite(samples).all():
                raise SignalError("samples contain non-finite values")
            self._write(samples)
            return n
        self._ingest_degraded(samples)
        return n

    def take_pending_credits(
        self,
    ) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        """Credits settled by a degraded-mode gap reset, delivered once.

        An unrecoverable gap settles the pre-gap tail *during*
        :meth:`ingest`, which cannot return events itself; they are
        parked here and handed to the next caller — ``append`` and
        ``flush`` drain this automatically, and a
        :class:`repro.serving.SessionPool` drains it right after each
        pooled ingest.
        """
        if self._pending_credits is None:
            return [], []
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
    # Fleet-batching seams (used by repro.serving.SessionPool)
    #
    # Each method is one phase of what a pass at a hop boundary (or the
    # end-of-stream flush) does for a single session, exposed so a
    # pool round can run the phase's numeric kernel across a whole
    # fleet between the per-session state transitions. Every op-stat
    # bump lives inside the phase that does the work, so the counters
    # stay driver-invariant; and the solo paths (_advance_filter, _pass,
    # _settle_pass, flush) are themselves built from these seams, so
    # there is exactly one implementation of each phase.
    # ------------------------------------------------------------------
    def begin_flush(
        self,
    ) -> Tuple[Optional[int], List[StepEvent], List[StrideEstimate]]:
        """Open the end-of-stream flush; return ``(head, steps, strides)``.

        Quarantines a trailing invalid run (it has no right-hand good
        sample to repair against), leaves any gap, and takes the
        credits a gap reset parked. ``head`` is the absolute index the
        tail settles through, or ``None`` for a stream that never
        buffered a sample (nothing to settle; go straight to
        :meth:`end_flush`). Otherwise the caller drains the due hop
        boundaries, finalises the filter (:meth:`final_filter_plan`),
        runs one zero-settle pass at ``head`` closed by
        :meth:`finish_collect`, credits it, then calls
        :meth:`end_flush`.
        """
        if self._pending_invalid:
            self._stats.samples_rejected += self._pending_invalid
            self._pending_invalid = 0
        self._in_gap = False
        steps, strides = self.take_pending_credits()
        head = self._buf_start + self._size
        return (head if head else None), steps, strides

    def end_flush(self) -> None:
        """Close the flush: trailing pending cycles can never confirm
        (interference), and the op-stat deltas are published."""
        for res in self._machine.flush():
            self._seg_store.pop(res.candidate.cycle_id, None)
        if self._telemetry is not None:
            self._publish_ops()

    def peek_boundary(self) -> Optional[int]:
        """The next due hop boundary, or ``None`` when the head has not
        crossed it. Pure query: no state changes."""
        boundary = self._next_boundary
        if boundary > self._buf_start + self._size:
            return None
        return boundary

    def finish_collect(self, boundary: int) -> None:
        """Close a pass at ``boundary``: schedule the next boundary and
        arm the trim :meth:`credit_resolved` runs once the pass's cycles
        are credited."""
        self._next_boundary = boundary + self._hop
        self._trim_boundary = boundary

    def filter_plan(self, limit_abs: int) -> List[Tuple[int, int, int]]:
        """Pending filter blocks up to ``limit_abs``; no state changes.

        Each entry ``(lo, hi, final)`` is one hop-sized finalisation:
        filter raw rows ``[lo, hi)`` and keep the output rows starting
        at absolute index ``final`` (exactly what
        :meth:`apply_filtered_block` consumes). A batched pool collects
        the plans of every due session, stacks equal-length raw blocks
        column-wise and runs one filter call per length group.
        """
        plan: List[Tuple[int, int, int]] = []
        final = self._filt_final
        while final + self._hop + self._pad <= limit_abs:
            lo = max(self._buf_start, final - self._pad)
            plan.append((lo, final + self._hop + self._pad, final))
            final += self._hop
        return plan

    def raw_block(self, lo: int, hi: int) -> np.ndarray:
        """Raw buffer rows ``[lo, hi)`` by absolute index (a view)."""
        return self._data[lo - self._buf_start : hi - self._buf_start]

    def apply_filtered_block(
        self, lo: int, hi: int, final: int, block: np.ndarray
    ) -> None:
        """Commit one filtered block from a :meth:`filter_plan` entry.

        ``block`` is the filtered ``raw_block(lo, hi)``; the hop-sized
        slice starting at ``final`` becomes final filtered output.
        Blocks must be applied in plan order.
        """
        out_lo = final - lo
        self._filt[
            final - self._buf_start : final + self._hop - self._buf_start
        ] = block[out_lo : out_lo + self._hop]
        self._filt_final = final + self._hop
        self._stats.samples_filtered += hi - lo

    def final_filter_plan(self, head: int) -> List[Tuple[int, int, int]]:
        """The end-of-stream filter block through ``head``; no state
        changes.

        At most one entry ``(lo, head, final)``: no right context
        remains, so the whole unfinalised tail ``[final, head)`` is
        filtered at once from raw rows ``[lo, head)``, with up to
        ``pad`` rows of left context (what :meth:`apply_final_block`
        consumes). Empty when the filter already reaches ``head``. A
        batched pool stacks equal-length tail blocks exactly as it
        stacks :meth:`filter_plan` blocks.
        """
        if head <= self._filt_final:
            return []
        lo = max(self._buf_start, self._filt_final - self._pad)
        return [(lo, head, self._filt_final)]

    def apply_final_block(
        self, lo: int, hi: int, final: int, block: np.ndarray
    ) -> None:
        """Commit the filtered :meth:`final_filter_plan` block: rows
        from ``final`` through ``hi`` become final filtered output."""
        self._filt[final - self._buf_start : hi - self._buf_start] = block[
            final - lo :
        ]
        self._stats.samples_filtered += hi - lo
        self._filt_final = hi

    def begin_pass(
        self, boundary: int, settle_margin: Optional[int] = None
    ) -> Optional[Tuple[np.ndarray, int, int, int]]:
        """Open a pass at ``boundary``: finalise filtering, expose the
        segmentation window.

        Returns ``(vertical_window, origin, settled_end, last_peak)`` —
        the filtered vertical-axis view the segmenter scans, the
        absolute index of its first sample, the absolute index before
        which cycles are settled and the consumed-peak watermark, the
        inputs of :func:`admit_cycles` — or ``None`` when the retained
        window is too small to segment (the pass still counts; callers
        proceed straight to an empty credit so the boundary's trim
        runs).
        """
        margin = self._settle_margin if settle_margin is None else settle_margin
        self._stats.passes += 1
        self._advance_filter(boundary)
        settled_end = min(boundary - margin, self._filt_final)
        window = self._filt_final - self._buf_start
        if window < 8 or settled_end <= self._buf_start:
            return None
        self._stats.segmentation_samples += window
        return (
            self._filt[:window, 2], self._buf_start, settled_end,
            self._last_peak,
        )

    def commit_cycles(
        self, spans: Sequence[Tuple[int, int, Tuple[int, ...]]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Consume this pass's admitted cycles; copy their segments.

        Args:
            spans: The session's :func:`admit_cycles` entry: per
                admitted cycle ``(abs_start, abs_end, new_peaks)``, in
                time order.

        Returns:
            Per cycle, ``(v_seg, h_seg)`` copied out of the buffer. The
            consumed-peak watermark moves to the last cycle's peak.
        """
        if spans:
            self._last_peak = spans[-1][2][-1]
        base = self._buf_start
        filt = self._filt
        return [
            (
                filt[start - base : end - base, 2].copy(),
                filt[start - base : end - base, :2].copy(),
            )
            for start, end, _peaks in spans
        ]

    def make_staged(
        self,
        abs_start: int,
        abs_end: int,
        peaks: Tuple[int, ...],
        v_seg: np.ndarray,
        h_seg: np.ndarray,
        a_seg: np.ndarray,
        anterior_ok: bool,
        motion_ok: bool,
        offset: float,
    ) -> StagedCycle:
        """Build the staged cycle from externally computed measurements.

        The state half of ``_stage``: assigns the cycle id and bumps
        the staging counters, leaving the measurements (anterior
        projection, motion gate, offset) to the caller — the solo path
        computes them per cycle, a batched pool stacks them fleet-wide
        through :func:`repro.core.batched.batched_stage_measurements`.
        """
        if motion_ok:
            self._stats.offset_evaluations += 1
        # Built via __new__ + attribute sets: one candidate and one
        # staged record per admitted cycle fleet-wide, and the
        # dataclass constructors are ~2x the cost of plain sets.
        cand = object.__new__(CycleCandidate)
        cand.cycle_id = self._cycle_counter
        cand.start = abs_start
        cand.end = abs_end
        cand.peaks = peaks
        cand.motion_ok = motion_ok
        cand.offset = offset
        cand.corr = 0.0
        cand.corr_v = 0.0
        cand.phase_ok = False
        self._cycle_counter += 1
        self._stats.cycles_staged += 1
        staged = object.__new__(StagedCycle)
        staged.candidate = cand
        staged.v_seg = v_seg
        staged.a_seg = a_seg
        staged.h_seg = h_seg
        staged.needs_stepping = (
            motion_ok and offset <= self._config.offset_threshold
        )
        staged.anterior_ok = anterior_ok
        return staged

    def classify(
        self,
        staged: Sequence[StagedCycle],
        stepping: Sequence[Optional[Tuple[float, float, bool]]],
    ) -> List[Tuple[CycleCandidate, object, Optional[Tuple]]]:
        """Feed staged cycles through the Fig.-4 streak.

        The state half of a pass's crediting: applies the stepping-test
        results (from :func:`stepping_values`), advances the
        confirmation streak, and returns the
        cycles it credited as ``(candidate, gait_type, segments)``
        triples (``segments`` is the stored ``(v_seg, h_seg, a_seg)``
        or ``None`` when already retired).
        """
        credited: List[Tuple[CycleCandidate, object, Optional[Tuple]]] = []
        for cycle, triple in zip(staged, stepping):
            cand = cycle.candidate
            if triple is not None:
                cand.corr, cand.corr_v, cand.phase_ok = (
                    float(triple[0]),
                    float(triple[1]),
                    bool(triple[2]),
                )
                self._stats.stepping_tests += 1
            self._seg_store[cand.cycle_id] = (
                cycle.v_seg,
                cycle.h_seg,
                cycle.a_seg if cycle.anterior_ok else None,
            )
            for res in self._machine.feed(cand):
                segs = self._seg_store.pop(res.candidate.cycle_id, None)
                if not res.credited:
                    continue
                credited.append((res.candidate, res.gait_type, segs))
        return credited

    def stride_solve_items(
        self,
        credited: Sequence[Tuple[CycleCandidate, object, Optional[Tuple]]],
    ) -> Tuple[List[int], List[Tuple]]:
        """Which credited cycles need a stride solve, and their inputs.

        Returns ``(indices, items)`` where each item is
        ``(v_seg, h_seg, a_seg, gait_type, profile)`` — the argument
        tuple of :func:`repro.core.batched.batched_cycle_solutions`.
        Cycles absent from ``indices`` never consult a solution (no
        estimator, retired segments, or no new peaks).
        """
        indices: List[int] = []
        items: List[Tuple] = []
        if self._estimator is None:
            return indices, items
        for i, (cand, gait, segs) in enumerate(credited):
            if segs is None or not cand.peaks:
                continue
            v_seg, h_seg, a_seg = segs
            indices.append(i)
            items.append((v_seg, h_seg, a_seg, gait, self._profile))
        return indices, items

    def _stride_solutions(
        self,
        credited: Sequence[Tuple[CycleCandidate, object, Optional[Tuple]]],
    ) -> List[Optional[Tuple[float, float]]]:
        """Per-cycle ``(stride, bounce)`` solves for credited cycles.

        The solo path: one scalar estimator call per cycle needing a
        solve. A batched pool computes the same values fleet-wide with
        :func:`repro.core.batched.batched_cycle_solutions` over the
        :meth:`stride_solve_items` of every session in the round.
        """
        solutions: List[Optional[Tuple[float, float]]] = [None] * len(credited)
        indices, items = self.stride_solve_items(credited)
        dt = 1.0 / self._rate
        for i, (v_seg, h_seg, a_seg, gait, _profile) in zip(indices, items):
            solutions[i] = self._estimator.cycle_stride(
                v_seg, h_seg, dt, gait, a_seg
            )
        return solutions

    def credit_resolved(
        self,
        credited: Sequence[Tuple[CycleCandidate, object, Optional[Tuple]]],
        solutions: Sequence[Optional[Tuple[float, float]]],
    ) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        """Emit credits for classified cycles; close the pass.

        The crediting tail of a pass: step/stride emission
        (with the sequential median-imputation fallback), totals, the
        credited-frontier advance, the boundary trim, and telemetry.
        """
        steps: List[StepEvent] = []
        strides: List[StrideEstimate] = []
        for (cand, gait, segs), solved in zip(credited, solutions):
            self._credit(cand, gait, segs, solved, steps, strides)
        if self._collect_observations and credited:
            self._observe_credited(credited)
        self._total_steps += len(steps)
        distance = float(sum(s.length_m for s in strides))
        self._total_distance += distance
        if steps:
            self._credited_until = max(
                self._credited_until, steps[-1].index + 1
            )
        if self._trim_boundary is not None:
            boundary = self._trim_boundary
            self._trim_boundary = None
            self._trim(boundary)
        if self._telemetry is not None:
            if steps:
                self._m_steps.inc(len(steps))
            if strides:
                self._m_strides.inc(len(strides))
                self._m_distance.inc(distance)
            self._publish_ops()
        return steps, strides

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _observe_credited(
        self,
        credited: Sequence[Tuple[CycleCandidate, object, Optional[Tuple]]],
    ) -> None:
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
        for cand, gait, segs in credited:
            if segs is None or not cand.peaks:
                continue
            if gait is GaitType.STEPPING:
                try:
                    bounce = direct_bounce(segs[0], dt)
                except SignalError:
                    continue
                out.append(
                    CycleObservation(gait_type=GaitType.STEPPING, bounce_m=bounce)
                )
            elif gait is GaitType.WALKING:
                v_seg, h_seg, a_seg = segs
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
        driver (solo ``append``, pool round, sharded fleet) flows
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
        needed = self._size + block.shape[0]
        if needed > self._data.shape[0]:
            capacity = self._data.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, 3))
            grown[: self._size] = self._data[: self._size]
            self._data = grown
            grown_f = np.empty((capacity, 3))
            grown_f[: self._size] = self._filt[: self._size]
            self._filt = grown_f
        self._data[self._size : needed] = block
        self._size = needed

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
        self._seg_store.clear()
        self._size = 0
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

    def _credit(
        self,
        cand: CycleCandidate,
        gait,
        segs: Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
        solved: Optional[Tuple[float, float]],
        steps: List[StepEvent],
        strides: List[StrideEstimate],
    ) -> None:
        """Emit one credited cycle's step events and stride estimates.

        ``solved`` is the cycle's pre-computed ``(stride, bounce)`` from
        :meth:`_stride_solutions` (or a fleet batch); it is consulted
        only when the cycle qualifies for a solve, and the median
        imputation below stays sequential so a failed solve sees
        exactly the strides credited before it in this round.
        """
        dt = 1.0 / self._rate
        # Step/stride records are built via __new__/__setattr__: the
        # frozen-dataclass constructor costs ~2x per instance and this
        # loop emits a few records per credited cycle fleet-wide. The
        # instances are field-for-field what the constructor builds.
        _new = object.__new__
        _set = object.__setattr__
        for peak in cand.peaks:
            ev = _new(StepEvent)
            _set(ev, "time", peak * dt)
            _set(ev, "index", int(peak))
            _set(ev, "gait_type", gait)
            _set(ev, "cycle_id", cand.cycle_id)
            steps.append(ev)
        if self._estimator is None or segs is None or not cand.peaks:
            return
        if solved is not None:
            stride, bounce = solved
            self._recent_strides.append(stride)
        elif self._recent_strides:
            # A credited cycle whose geometry did not admit a solve
            # still moved the user; impute with the recent median as
            # the batch estimator does with the walk median.
            stride = float(np.median(self._recent_strides))
            bounce = None
        else:
            return
        n_seg = cand.end - cand.start
        per_cycle = self._config.steps_per_cycle
        fracs = self._stride_fracs
        if len(fracs) != per_cycle:
            fracs = [(k + 0.5) / per_cycle for k in range(per_cycle)]
            self._stride_fracs = fracs
        # A cycle whose earlier peaks were already consumed by a
        # previous (overlapping) cycle contributes only as many strides
        # as it contributes new steps — the latest positions.
        for frac in fracs[-len(cand.peaks):]:
            est = _new(StrideEstimate)
            _set(est, "time", (cand.start + frac * n_seg) * dt)
            _set(est, "length_m", stride)
            _set(est, "bounce_m", bounce)
            _set(est, "cycle_id", cand.cycle_id)
            _set(est, "gait_type", gait)
            strides.append(est)

    def _advance_filter(self, limit_abs: int) -> None:
        """Finalise hop-sized filter blocks up to ``limit_abs``.

        Each block is filtered with exactly ``pad`` samples of context
        on both sides (where the stream provides them), so a block's
        final values depend only on its absolute position — never on
        append chunking — and every sample is filtered a bounded
        number of times.
        """
        for lo, hi, final in self.filter_plan(limit_abs):
            block = butter_lowpass(
                self.raw_block(lo, hi),
                self._config.lowpass_cutoff_hz,
                self._rate,
                self._config.lowpass_order,
            )
            self.apply_filtered_block(lo, hi, final, block)

    def _drain(
        self, steps: List[StepEvent], strides: List[StrideEstimate]
    ) -> None:
        """Run every due hop boundary's pass, extending the credits."""
        while True:
            boundary = self.peek_boundary()
            if boundary is None:
                return
            self._settle_pass(boundary, self._settle_margin, steps, strides)

    def _settle_pass(
        self,
        boundary: int,
        settle_margin: int,
        steps: List[StepEvent],
        strides: List[StrideEstimate],
    ) -> None:
        """One pass at ``boundary``, credited: the solo round of one.

        Stages the settled cycles, closes the pass, runs their stepping
        tests, feeds them through the streak and credits them — each
        step the same seam a pool round calls, with one scalar stride
        solve per credited cycle in place of the padded stack.
        """
        staged = self._pass(boundary, settle_margin)
        self.finish_collect(boundary)
        credited = self.classify(
            staged, stepping_values([staged], self._config)[0]
        )
        st, sr = self.credit_resolved(
            credited, self._stride_solutions(credited)
        )
        steps.extend(st)
        strides.extend(sr)

    def _pass(self, boundary: int, settle_margin: int) -> List[StagedCycle]:
        """One processing pass at an absolute hop boundary.

        Segmentation runs over the whole retained filtered buffer (the
        window the batch segmenter would see, minus what :meth:`_trim`
        has provably retired), so peak prominences and the peak-pairing
        parity match the batch pipeline. Already-consumed cycles are
        skipped through the ``_last_peak`` watermark; only cycles whose
        end has settled — i.e. no future sample can move their
        boundaries — are staged, exactly once. This is a fleet round of
        one window: the same segmenter and admission rule.
        """
        opened = self.begin_pass(boundary, settle_margin)
        if opened is None:
            return []
        vertical, origin, settled_end, last_peak = opened
        cfg = self._config
        cycles = batched_segment_windows(
            [vertical],
            self._rate,
            min_step_rate_hz=cfg.min_step_rate_hz,
            max_step_rate_hz=cfg.max_step_rate_hz,
            min_prominence=cfg.min_peak_prominence,
        )
        if cycles.errors[0] is not None:
            raise cycles.errors[0]
        spans = admit_cycles(cycles, [origin], [settled_end], [last_peak])[0]
        return [
            self._stage(abs_start, abs_end, peaks, v_seg, h_seg)
            for (abs_start, abs_end, peaks), (v_seg, h_seg) in zip(
                spans, self.commit_cycles(spans)
            )
        ]

    def _stage(
        self,
        abs_start: int,
        abs_end: int,
        peaks: Tuple[int, ...],
        v_seg: np.ndarray,
        h_seg: np.ndarray,
    ) -> StagedCycle:
        """Measure one committed cycle's segments and stage it."""
        cfg = self._config
        anterior_ok = True
        try:
            # Per-cycle anterior refinement: project this cycle's
            # horizontal samples onto their own dominant direction so a
            # turning walker does not smear the projection.
            direction = anterior_direction(h_seg)
            a_seg = project_horizontal(h_seg, direction)
        except SignalError:
            a_seg = np.zeros_like(v_seg)
            anterior_ok = False
        motion_ok = float(np.std(v_seg - v_seg.mean())) >= cfg.min_vertical_std
        offset = cycle_offset(v_seg, a_seg, cfg) if motion_ok else 0.0
        return self.make_staged(
            abs_start, abs_end, peaks,
            v_seg, h_seg, a_seg, anterior_ok, motion_ok, offset,
        )

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
        with ``boundary + hop``).
        """
        keep_abs = min(
            boundary - 2 * self._settle_margin,
            self._credited_until,
            self._filt_final - self._pad,
        )
        keep_abs = max(keep_abs, boundary + self._hop - self._max_buffer)
        keep_abs = max(keep_abs, self._buf_start)
        keep_from = keep_abs - self._buf_start
        if keep_from <= 0:
            return
        kept = self._size - keep_from
        # In-place tail copies: the regions overlap left-to-right, so a
        # single bounded copy keeps the active prefix compact without
        # allocating fresh buffers.
        self._data[:kept] = self._data[keep_from : self._size].copy()
        self._filt[:kept] = self._filt[keep_from : self._size].copy()
        self._size = kept
        self._buf_start = keep_abs

