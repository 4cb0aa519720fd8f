"""Tracked serving benchmarks: streaming core + multi-session fleet.

Two sections, both written into the ``serving`` block of the JSON
scoreboard (``BENCH_PR3.json``; its ``single_session`` rows measured a
reprocessing driver that no longer ships):

* **amortized_append** — the O(1) evidence: the incremental core's
  wall time and op-counter ratios as the same stream is sliced into
  8x more append calls. Flat cost and identical work counters mean
  per-append work is bounded by the hop, not the buffer.
* **fleet_scaling** — :class:`repro.serving.SessionPool` throughput at
  1/10/100/1000 concurrent sessions (sessions/s, samples/s, real-time
  factor), after asserting serial == pooled == sharded credits on a
  small fleet.

Every timed configuration asserts result integrity first; a benchmark
that silently diverges from the reference is reporting noise.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.streaming import StreamingPTrack
from repro.serving import SessionPool, serve_fleet, synthesize_workload

SAMPLE_RATE_HZ = 100.0
HEADLINE_CADENCE = 50  # samples per append: the 0.5 s upload interval


def bench_amortized_append(
    duration_s: float = 300.0,
    cadences: Sequence[int] = (25, 50, 100, 200),
    seed: int = 2,
) -> Dict[str, Any]:
    """Per-append cost curve: work must not grow with append count."""
    (workload,) = synthesize_workload(1, duration_s, seed=seed)
    data = workload.samples
    rows: List[Dict[str, Any]] = []
    for batch in cadences:
        streamer = StreamingPTrack(SAMPLE_RATE_HZ, profile=workload.profile)
        t0 = time.perf_counter()
        for i in range(0, data.shape[0], batch):
            streamer.append(data[i : i + batch])
        wall_s = time.perf_counter() - t0
        ops = streamer.op_stats
        rows.append(
            {
                "batch_samples": batch,
                "appends": ops.appends,
                "wall_s": wall_s,
                "us_per_append": 1e6 * wall_s / max(1, ops.appends),
                "us_per_sample": 1e6 * wall_s / max(1, ops.samples_in),
                "samples_filtered_ratio": ops.samples_filtered
                / max(1, ops.samples_in),
                "segmentation_ratio": ops.segmentation_samples
                / max(1, ops.samples_in),
                "cycles_staged": ops.cycles_staged,
            }
        )
    # The defining O(1) property: identical signal work regardless of
    # how many appends delivered the stream.
    assert len({r["samples_filtered_ratio"] for r in rows}) == 1
    assert len({r["cycles_staged"] for r in rows}) == 1
    walls = [r["wall_s"] for r in rows]
    return {
        "duration_s": duration_s,
        "n_samples": int(data.shape[0]),
        "cadences": rows,
        "wall_spread": max(walls) / min(walls),
        "work_counters_cadence_invariant": True,
    }


def _assert_pool_identity(duration_s: float, seed: int) -> bool:
    """serial == pooled == sharded on a small fleet, or raise."""
    workloads = synthesize_workload(3, duration_s, seed=seed)
    serial: List[List[int]] = []
    for w in workloads:
        sess = StreamingPTrack(SAMPLE_RATE_HZ, profile=w.profile)
        indices: List[int] = []
        for i in range(0, w.samples.shape[0], HEADLINE_CADENCE):
            steps, _ = sess.append(w.samples[i : i + HEADLINE_CADENCE])
            indices.extend(e.index for e in steps)
        steps, _ = sess.flush()
        indices.extend(e.index for e in steps)
        serial.append(indices)

    pool = SessionPool(SAMPLE_RATE_HZ)
    sids = pool.add_sessions([w.profile for w in workloads])
    pooled: List[List[int]] = [[] for _ in sids]
    n = max(w.samples.shape[0] for w in workloads)
    for i in range(0, n, HEADLINE_CADENCE):
        out = pool.append(
            sids, [w.samples[i : i + HEADLINE_CADENCE] for w in workloads]
        )
        for k, (steps, _) in enumerate(out):
            pooled[k].extend(e.index for e in steps)
    for k, (steps, _) in enumerate(pool.flush(sids)):
        pooled[k].extend(e.index for e in steps)

    report = serve_fleet(
        [w.samples for w in workloads],
        SAMPLE_RATE_HZ,
        profiles=[w.profile for w in workloads],
        batch_samples=HEADLINE_CADENCE,
        workers=1,
        sessions_per_shard=2,
    )
    sharded = [[e.index for e in s.steps] for s in report.sessions]
    assert serial == pooled == sharded
    return True


def bench_fleet_scaling(
    session_counts: Sequence[int] = (1, 10, 100, 1000),
    duration_s: float = 10.0,
    identity_duration_s: float = 20.0,
    seed: int = 3,
    workers: Optional[int] = 1,
) -> Dict[str, Any]:
    """SessionPool throughput as the fleet grows."""
    identity_ok = _assert_pool_identity(identity_duration_s, seed=seed)
    max_sessions = max(session_counts)
    # One workload prefix per fleet size: session i's trace is a pure
    # function of (seed, i), so bigger fleets strictly extend smaller
    # ones (asserted by the serving tests).
    workloads = synthesize_workload(max_sessions, duration_s, seed=seed + 1)
    rows: List[Dict[str, Any]] = []
    for count in session_counts:
        fleet = workloads[:count]
        t0 = time.perf_counter()
        report = serve_fleet(
            [w.samples for w in fleet],
            SAMPLE_RATE_HZ,
            profiles=[w.profile for w in fleet],
            batch_samples=HEADLINE_CADENCE,
            workers=workers,
        )
        wall_s = time.perf_counter() - t0
        truth = sum(w.true_steps for w in fleet)
        assert abs(report.total_steps - truth) <= 4 * count
        rows.append(
            {
                "sessions": count,
                "wall_s": wall_s,
                "sessions_per_s": count / wall_s,
                "samples_per_s": report.n_samples / wall_s,
                "real_time_factor": count * duration_s / wall_s,
                "total_steps": report.total_steps,
                "true_steps": truth,
            }
        )
    return {
        "duration_s": duration_s,
        "identity_serial_pooled_sharded": identity_ok,
        "workers": workers,
        "scaling": rows,
        "max_sessions": max_sessions,
    }


def run_serving(check: bool = False) -> Dict[str, Any]:
    """The full serving section of the scoreboard."""
    if check:
        return {
            "amortized_append": bench_amortized_append(
                duration_s=30.0, cadences=(25, 200)
            ),
            "fleet_scaling": bench_fleet_scaling(
                session_counts=(1, 5),
                duration_s=8.0,
                identity_duration_s=10.0,
            ),
        }
    return {
        "amortized_append": bench_amortized_append(),
        "fleet_scaling": bench_fleet_scaling(),
    }
