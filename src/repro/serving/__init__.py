"""Multi-session serving for high-throughput deployments.

The incremental streaming core (:class:`repro.core.StreamingPTrack`)
makes one session cheap; this package makes *many* sessions cheap
together:

* :class:`SessionPool` — N independent sessions behind one vectorized
  ingest call: every round's filter / segmentation / measurement /
  stepping / stride kernels run once for the whole fleet as float64
  batched kernels, bit-identical to serial sessions.
  ``BatchedSessionPool`` is the same class under its former name.
* :class:`IngestGateway` — the async ingest front end: per-session
  bounded mailboxes absorb ragged arrivals (bursts, stalls, bounded
  reordering, join/leave), a coalescing scheduler feeds whatever has
  arrived to a backing pool in one vectorized round per tick, and
  backpressure sheds overload with exact drop accounting — credits
  stay bit-identical to serial replay of the delivered streams.
* :func:`serve_fleet` — shard a fleet of sessions across worker
  processes via :func:`repro.runtime.parallel_map`, with a guaranteed
  shard-layout-independent result; with ``checkpoint_every_s`` it runs
  as a rolling-restartable service with checkpoint recovery and live
  rebalancing.
* :class:`CheckpointStore` / :func:`make_checkpoint` /
  :func:`split_checkpoint` — atomic on-disk persistence and splitting
  for the durable fleet's ``ptrack-session-v1`` shard checkpoints.
* :class:`RebalancePolicy` — telemetry-driven live shard splitting
  from round-latency and crash statistics.
* :func:`synthesize_workload` / :func:`synthesize_arrival_schedule` —
  deterministic per-session walks and ragged arrival processes keyed
  by ``derive_rng(seed, i)`` for benchmarks and equivalence tests.
"""

from repro.serving.checkpoint import (
    CheckpointStore,
    make_checkpoint,
    split_checkpoint,
    split_pool_snapshot,
)
from repro.serving.fleet import FleetReport, SessionReport, serve_fleet
from repro.serving.gateway import (
    GatewayStats,
    IngestGateway,
    OfferResult,
    SessionMailbox,
    serve_schedule,
)
from repro.serving.pool import NO_CREDITS, BatchedSessionPool, SessionPool
from repro.serving.rebalance import RebalancePolicy, ShardEpochStats
from repro.runtime.buffers import FleetBatchBuffer
from repro.serving.workload import (
    ArrivalEvent,
    ArrivalSchedule,
    SessionWorkload,
    synthesize_arrival_schedule,
    synthesize_workload,
)

__all__ = [
    "ArrivalEvent",
    "ArrivalSchedule",
    "BatchedSessionPool",
    "CheckpointStore",
    "FleetBatchBuffer",
    "FleetReport",
    "GatewayStats",
    "IngestGateway",
    "NO_CREDITS",
    "OfferResult",
    "RebalancePolicy",
    "SessionMailbox",
    "SessionPool",
    "SessionReport",
    "SessionWorkload",
    "ShardEpochStats",
    "make_checkpoint",
    "serve_fleet",
    "serve_schedule",
    "split_checkpoint",
    "split_pool_snapshot",
    "synthesize_arrival_schedule",
    "synthesize_workload",
]
