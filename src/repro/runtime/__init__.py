"""Parallel/cached experiment runtime.

The runtime layer turns the experiment drivers from single-threaded
loops into fan-out studies:

* :mod:`repro.runtime.parallel` — an ordered process-pool map with
  deterministic per-task seeding (serial and parallel runs produce
  identical results);
* :mod:`repro.runtime.cache` — a content-keyed trace cache (in-memory
  LRU + optional on-disk store) so repeated experiments stop
  re-simulating identical walks.

* :mod:`repro.runtime.buffers` — grow-on-demand keyed scratch arrays
  shared by the batched kernel layers and the fleet serving round.

* :mod:`repro.runtime.clock` — the clock seam for event-driven
  components (:class:`SystemClock` in production,
  :class:`ManualClock` in tests, so schedulers are testable without
  wall-clock sleeps).

See ``docs/performance.md`` for the workflow, worker-count resolution
and cache invalidation rules.
"""

from repro.runtime.buffers import FleetBatchBuffer
from repro.runtime.clock import Clock, ManualClock, SystemClock
from repro.runtime.cache import (
    CACHE_SCHEMA,
    TraceCache,
    content_key,
    get_default_cache,
    set_default_cache,
    simulate_interference_cached,
    simulate_spoofer_cached,
    simulate_walk_cached,
)
from repro.runtime.parallel import (
    TaskOutcome,
    derive_rng,
    parallel_map,
    parallel_map_outcomes,
    resolve_workers,
)

__all__ = [
    "Clock",
    "FleetBatchBuffer",
    "ManualClock",
    "SystemClock",
    "TaskOutcome",
    "CACHE_SCHEMA",
    "TraceCache",
    "content_key",
    "get_default_cache",
    "set_default_cache",
    "simulate_interference_cached",
    "simulate_spoofer_cached",
    "simulate_walk_cached",
    "derive_rng",
    "parallel_map",
    "parallel_map_outcomes",
    "resolve_workers",
]
