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

import gc
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.streaming import StreamingPTrack
from repro.faults import (
    FaultPolicy,
    Outage,
    SampleDropout,
    Saturation,
    inject_faults,
)
from repro.serving import serve_fleet, synthesize_workload

SAMPLE_RATE_HZ = 100.0
HEADLINE_CADENCE = 50  # samples per append: the 0.5 s upload interval

#: Tracked budget: degraded-mode ingest on a clean trace must cost
#: less than this fraction over strict ingest.
CLEAN_OVERHEAD_BUDGET = 0.05


def _serve(profile, data: np.ndarray, policy) -> tuple:
    """Drive one session at the headline cadence; return its credits."""
    sess = StreamingPTrack(
        SAMPLE_RATE_HZ, profile=profile, fault_policy=policy
    )
    steps: List[Any] = []
    for i in range(0, data.shape[0], HEADLINE_CADENCE):
        new_steps, _ = sess.append(data[i : i + HEADLINE_CADENCE])
        steps.extend(new_steps)
    new_steps, _ = sess.flush()
    steps.extend(new_steps)
    return steps, sess


def bench_clean_overhead(
    duration_s: float = 300.0,
    repeats: int = 5,
    seed: int = 4,
) -> Dict[str, Any]:
    """Strict vs degraded ingest on a clean trace: identity + cost."""
    (workload,) = synthesize_workload(1, duration_s, seed=seed)
    data = workload.samples
    policy = FaultPolicy()

    strict_steps, _ = _serve(workload.profile, data, None)
    degraded_steps, degraded_sess = _serve(workload.profile, data, policy)
    # Bit-identical credits on clean input, and a quiet health ledger.
    assert [(e.index, e.time) for e in strict_steps] == [
        (e.index, e.time) for e in degraded_steps
    ]
    ops = degraded_sess.op_stats
    assert ops.samples_repaired == 0
    assert ops.samples_rejected == 0
    assert ops.gaps_reset == 0

    # Gate on the median of interleaved pair ratios: both arms of a
    # pair serve the trace side by side, one upload at a time, so
    # host-speed drift on a shared machine hits both alike, and the
    # median rides out a stalled pair.
    strict_times: List[float] = []
    degraded_times: List[float] = []
    for pair in range(repeats):
        strict_s, degraded_s = _time_pair(
            workload.profile, data, policy, strict_first=pair % 2 == 0
        )
        strict_times.append(strict_s)
        degraded_times.append(degraded_s)
    ratios = [d / s for s, d in zip(strict_times, degraded_times)]
    overhead = float(np.median(ratios)) - 1.0
    return {
        "duration_s": duration_s,
        "n_samples": int(data.shape[0]),
        "repeats": repeats,
        "strict_s": float(np.median(strict_times)),
        "degraded_s": float(np.median(degraded_times)),
        "overhead_frac": overhead,
        "overhead_min": min(ratios) - 1.0,
        "overhead_max": max(ratios) - 1.0,
        "overhead_budget": CLEAN_OVERHEAD_BUDGET,
        "overhead_ok": overhead < CLEAN_OVERHEAD_BUDGET,
        "identical_credits": True,
    }


def _time_pair(
    profile, data: np.ndarray, policy, strict_first: bool
) -> Tuple[float, float]:
    """Serve ``data`` through a strict and a degraded session in
    lockstep, timing each session's appends and flush separately;
    ``strict_first`` picks which arm takes each upload first."""
    sessions = {
        "strict": StreamingPTrack(SAMPLE_RATE_HZ, profile=profile),
        "degraded": StreamingPTrack(
            SAMPLE_RATE_HZ, profile=profile, fault_policy=policy
        ),
    }
    order = ["strict", "degraded"] if strict_first else ["degraded", "strict"]
    elapsed = dict.fromkeys(order, 0.0)
    # Start from a collected heap, so a full collection of earlier
    # pairs' garbage never lands inside this one.
    gc.collect()
    for i in range(0, data.shape[0], HEADLINE_CADENCE):
        batch = data[i : i + HEADLINE_CADENCE]
        for arm in order:
            t0 = time.perf_counter()
            sessions[arm].append(batch)
            elapsed[arm] += time.perf_counter() - t0
    for arm in order:
        t0 = time.perf_counter()
        sessions[arm].flush()
        elapsed[arm] += time.perf_counter() - t0
    return elapsed["strict"], elapsed["degraded"]


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
