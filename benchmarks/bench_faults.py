"""Tracked fault-handling benchmarks: degraded ingest + healing fleet.

Two sections, written into the ``faults`` block of the JSON scoreboard
(``BENCH_PR4.json``):

* **clean_overhead** — the cost of vigilance: the same clean trace
  served by a strict session and by a degraded-mode session
  (``fault_policy`` set). The degraded path must stay bit-identical on
  clean input and within the tracked overhead budget (<5%), so fault
  tolerance can be left on in production rather than toggled per
  deployment.
* **faulted_fleet** — end-to-end throughput of :func:`serve_fleet`
  over fault-injected workloads (dropout + outages + saturation): the
  whole fleet must complete without raising, with repair/reset
  counters aggregated on the report.

Every timed configuration asserts result integrity first; a benchmark
that silently diverges from the reference is reporting noise.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict

from bench_common import (
    HEADLINE_CADENCE,
    SAMPLE_RATE_HZ,
    paired_overhead,
    serve_session,
)
from repro.core.streaming import StreamingPTrack
from repro.faults import (
    FaultPolicy,
    Outage,
    SampleDropout,
    Saturation,
    inject_faults,
)
from repro.serving import serve_fleet, synthesize_workload

#: Tracked budget: degraded-mode ingest on a clean trace must cost
#: less than this fraction over strict ingest.
CLEAN_OVERHEAD_BUDGET = 0.05


def bench_clean_overhead(
    duration_s: float = 300.0,
    repeats: int = 5,
    seed: int = 4,
) -> Dict[str, Any]:
    """Strict vs degraded ingest on a clean trace: identity + cost."""
    (workload,) = synthesize_workload(1, duration_s, seed=seed)
    data = workload.samples
    policy = FaultPolicy()

    strict_steps, _ = serve_session(data, profile=workload.profile)
    degraded_steps, degraded_sess = serve_session(
        data, profile=workload.profile, fault_policy=policy
    )
    # Bit-identical credits on clean input, and a quiet health ledger.
    assert [(e.index, e.time) for e in strict_steps] == [
        (e.index, e.time) for e in degraded_steps
    ]
    ops = degraded_sess.op_stats
    assert ops.samples_repaired == 0
    assert ops.samples_rejected == 0
    assert ops.gaps_reset == 0

    session = partial(
        StreamingPTrack, SAMPLE_RATE_HZ, profile=workload.profile
    )
    pairs = paired_overhead(
        data,
        ("strict", session),
        ("degraded", partial(session, fault_policy=policy)),
        repeats,
    )
    return {
        "duration_s": duration_s,
        "n_samples": int(data.shape[0]),
        "repeats": repeats,
        **pairs,
        "overhead_budget": CLEAN_OVERHEAD_BUDGET,
        "overhead_ok": pairs["overhead_frac"] < CLEAN_OVERHEAD_BUDGET,
        "identical_credits": True,
    }


def bench_faulted_fleet(
    n_sessions: int = 20,
    duration_s: float = 60.0,
    seed: int = 5,
) -> Dict[str, Any]:
    """serve_fleet over fault-injected workloads: completion + counters."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    injectors = [
        SampleDropout(prob=0.02),
        Outage(rate_per_min=1.0, min_gap_s=0.5, max_gap_s=1.5),
        Saturation(limit=20.0),
    ]
    traces = [
        inject_faults(w.samples, injectors, seed=seed, index=i)
        for i, w in enumerate(workloads)
    ]
    policy = FaultPolicy(saturation_limit=20.0)
    t0 = time.perf_counter()
    report = serve_fleet(
        traces,
        SAMPLE_RATE_HZ,
        profiles=[w.profile for w in workloads],
        batch_samples=HEADLINE_CADENCE,
        workers=1,
        fault_policy=policy,
    )
    wall_s = time.perf_counter() - t0
    # The acceptance bar: a faulted fleet completes without raising,
    # every session reports, and the defects actually hit the ledger.
    assert len(report.sessions) == n_sessions
    assert all(s.status == "ok" for s in report.sessions)
    assert report.samples_repaired + report.samples_rejected > 0
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "n_samples": report.n_samples,
        "wall_s": wall_s,
        "samples_per_s": report.n_samples / wall_s,
        "real_time_factor": n_sessions * duration_s / wall_s,
        "total_steps": report.total_steps,
        "samples_repaired": report.samples_repaired,
        "samples_rejected": report.samples_rejected,
        "gaps_reset": report.gaps_reset,
        "n_failed": report.n_failed,
        "status": report.status,
    }


def run_faults(check: bool = False) -> Dict[str, Any]:
    """The full fault-handling section of the scoreboard."""
    if check:
        return {
            "clean_overhead": bench_clean_overhead(
                duration_s=60.0, repeats=7
            ),
            "faulted_fleet": bench_faulted_fleet(
                n_sessions=4, duration_s=20.0
            ),
        }
    return {
        "clean_overhead": bench_clean_overhead(),
        "faulted_fleet": bench_faulted_fleet(),
    }
