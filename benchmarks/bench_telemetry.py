"""Tracked telemetry benchmarks: instrumentation overhead + merging.

Two sections, written into the ``telemetry`` block of the JSON
scoreboard (``BENCH_PR5.json``):

* **instrumented_overhead** — the cost of observability: the same
  clean trace served with the telemetry gate closed and with a live
  registry attached, side by side in interleaved pairs. The
  instrumented path must stay bit-identical (telemetry observes, never
  steers) and the median pair ratio within the tracked overhead
  budget (<5%), so instrumentation can be left on in production
  rather than sampled per deployment.
* **fleet_merge** — :func:`serve_fleet` with per-shard registries
  merged across process boundaries: the merged counter totals must be
  identical whether the fleet runs in one shard or many, serial or
  parallel — the telemetry analogue of the serial == pooled == sharded
  serving identity.

Every timed configuration asserts result integrity first; a benchmark
that silently diverges from the reference is reporting noise.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict, Optional

from bench_common import (
    HEADLINE_CADENCE,
    SAMPLE_RATE_HZ,
    paired_overhead,
    serve_session,
)
from repro.core.streaming import StreamingPTrack
from repro.serving import serve_fleet, synthesize_workload
from repro.telemetry import MetricsRegistry

#: Tracked budget: instrumented streaming on a clean trace must cost
#: less than this fraction over the uninstrumented path.
TELEMETRY_OVERHEAD_BUDGET = 0.05


def bench_instrumented_overhead(
    duration_s: float = 300.0,
    repeats: int = 5,
    seed: int = 4,
) -> Dict[str, Any]:
    """Gate closed vs live registry on a clean trace: identity + cost."""
    (workload,) = synthesize_workload(1, duration_s, seed=seed)
    data = workload.samples

    plain_steps, _ = serve_session(data, profile=workload.profile)
    registry = MetricsRegistry()
    instr_steps, instr_sess = serve_session(
        data, profile=workload.profile, telemetry=registry
    )
    # Bit-identical credits: telemetry observes, never steers.
    assert [(e.index, e.time) for e in plain_steps] == [
        (e.index, e.time) for e in instr_steps
    ]
    # And the registry totals agree with the session's own ledger.
    snap = registry.snapshot()
    assert snap["counters"]["ptrack_steps_credited_total"] == len(instr_steps)
    assert (
        snap["counters"]["ptrack_samples_in_total"]
        == instr_sess.op_stats.samples_in
    )

    session = partial(
        StreamingPTrack, SAMPLE_RATE_HZ, profile=workload.profile
    )
    pairs = paired_overhead(
        data,
        ("plain", session),
        ("instrumented", lambda: session(telemetry=MetricsRegistry())),
        repeats,
    )
    return {
        "duration_s": duration_s,
        "n_samples": int(data.shape[0]),
        "repeats": repeats,
        **pairs,
        "overhead_budget": TELEMETRY_OVERHEAD_BUDGET,
        "overhead_ok": pairs["overhead_frac"] < TELEMETRY_OVERHEAD_BUDGET,
        "identical_credits": True,
    }


def bench_fleet_merge(
    n_sessions: int = 12,
    duration_s: float = 30.0,
    seed: int = 6,
) -> Dict[str, Any]:
    """Merged fleet counters are shard- and worker-invariant."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    traces = [w.samples for w in workloads]
    profiles = [w.profile for w in workloads]

    def run(shard_size: Optional[int], workers: int):
        t0 = time.perf_counter()
        report = serve_fleet(
            traces,
            SAMPLE_RATE_HZ,
            profiles=profiles,
            batch_samples=HEADLINE_CADENCE,
            sessions_per_shard=shard_size,
            workers=workers,
            telemetry=True,
        )
        return report, time.perf_counter() - t0

    single, single_s = run(None, 1)
    sharded, sharded_s = run(3, 1)
    parallel, parallel_s = run(3, 2)
    assert single.telemetry is not None
    n_counters = len(single.telemetry["counters"])
    counters = dict(single.telemetry["counters"])
    # Credited metres accumulate in shard-dependent order; the float
    # counter agrees to tolerance, every integer counter bitwise.
    dist = counters.pop("ptrack_distance_m_total")
    for other in (sharded, parallel):
        others = dict(other.telemetry["counters"])
        assert abs(others.pop("ptrack_distance_m_total") - dist) <= (
            1e-9 * max(1.0, abs(dist))
        )
        assert others == counters
    # The merged ledger agrees with the report's own aggregates.
    assert counters["ptrack_steps_credited_total"] == single.total_steps
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "single_shard_s": single_s,
        "sharded_s": sharded_s,
        "parallel_s": parallel_s,
        "merged_counters": n_counters,
        "total_steps": int(counters["ptrack_steps_credited_total"]),
        "counters_invariant": True,
    }


def run_telemetry(check: bool = False) -> Dict[str, Any]:
    """The full telemetry section of the scoreboard."""
    if check:
        return {
            "instrumented_overhead": bench_instrumented_overhead(
                duration_s=60.0, repeats=7
            ),
            "fleet_merge": bench_fleet_merge(
                n_sessions=4, duration_s=15.0
            ),
        }
    return {
        "instrumented_overhead": bench_instrumented_overhead(),
        "fleet_merge": bench_fleet_merge(),
    }
