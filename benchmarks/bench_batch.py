"""Tracked fleet-batched serving benchmarks (the PR-6 scoreboard).

Three sections, written into the ``fleet_batch`` block of
``BENCH_PR6.json``:

* **identity** — the serving equivalence oracle, asserted *before any
  timing*: per-session credits (step index/time/gait and bitwise
  stride times/lengths) must satisfy ``serial == pooled == sharded``
  on the same workload. A fleet driver that diverges from the
  reference is benchmarking noise, so every other section refuses to
  run until this passes.
* **pool_vs_serial** — the headline: amortized steady-state ingest
  cost (µs/sample) of :class:`repro.serving.SessionPool` against the
  serial-session baseline (one
  :meth:`~repro.core.streaming.StreamingPTrack.append` per session per
  tick) on the same 1000-session workload, best of several
  interleaved replicates. The tracked target is a >= 5x reduction.
  (``BENCH_PR6.json`` records the retired lockstep pool as its
  baseline, under ``batched_vs_lockstep``.)
* **occupancy** — pool throughput swept across fleet sizes
  (10 / 100 / 1000 / 10000 sessions): µs/sample, samples/s and the
  real-time factor as round occupancy grows.

Timing methodology: sessions are created and the final ``flush()``
runs *outside* the timed window, so the rows read the steady-state
ingest cost the fleet round restructures.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.streaming import StreamingPTrack
from repro.serving import SessionPool, serve_fleet, synthesize_workload

SAMPLE_RATE_HZ = 100.0
#: Samples per append in every timed loop — a 2.56 s upload burst, the
#: batch size the fleet drivers are provisioned for.
BATCH_SAMPLES = 256
TARGET_SPEEDUP = 5.0


def _credit_signature(steps, strides) -> Tuple[tuple, tuple]:
    """A bitwise-comparable signature of one session's credits."""
    return (
        tuple((s.index, s.time, s.gait_type.name) for s in steps),
        tuple((s.time, s.length_m) for s in strides),
    )


def _run_serial(workloads) -> List[Tuple[tuple, tuple]]:
    out = []
    for w in workloads:
        sess = StreamingPTrack(SAMPLE_RATE_HZ, profile=w.profile)
        steps: list = []
        strides: list = []
        for i in range(0, w.samples.shape[0], BATCH_SAMPLES):
            s, r = sess.append(w.samples[i : i + BATCH_SAMPLES])
            steps.extend(s)
            strides.extend(r)
        s, r = sess.flush()
        steps.extend(s)
        strides.extend(r)
        out.append(_credit_signature(steps, strides))
    return out


def _run_pool(workloads) -> List[Tuple[tuple, tuple]]:
    pool = SessionPool(SAMPLE_RATE_HZ)
    sids = pool.add_sessions([w.profile for w in workloads])
    acc: List[Tuple[list, list]] = [([], []) for _ in sids]
    n = max(w.samples.shape[0] for w in workloads)
    for i in range(0, n, BATCH_SAMPLES):
        out = pool.append(
            sids, [w.samples[i : i + BATCH_SAMPLES] for w in workloads]
        )
        for k, (s, r) in enumerate(out):
            acc[k][0].extend(s)
            acc[k][1].extend(r)
    for k, (s, r) in enumerate(pool.flush(sids)):
        acc[k][0].extend(s)
        acc[k][1].extend(r)
    return [_credit_signature(s, r) for s, r in acc]


def assert_batched_identity(
    n_sessions: int = 6,
    duration_s: float = 20.0,
    seed: int = 11,
) -> Dict[str, Any]:
    """The crediting oracle: serial == pooled == sharded."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    serial = _run_serial(workloads)
    pooled = _run_pool(workloads)
    report = serve_fleet(
        [w.samples for w in workloads],
        SAMPLE_RATE_HZ,
        profiles=[w.profile for w in workloads],
        batch_samples=BATCH_SAMPLES,
        workers=1,
        sessions_per_shard=2,
    )
    sharded = [
        _credit_signature(s.steps, s.strides) for s in report.sessions
    ]
    assert serial == pooled, "pool diverged from serial sessions"
    assert serial == sharded, "sharded fleet diverged from serial sessions"
    return {
        "oracle": "serial == pooled == sharded",
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "compared_steps": sum(len(s[0]) for s in serial),
        "compared_strides": sum(len(s[1]) for s in serial),
        "ok": True,
    }


def _timed_ingest(pool, workloads, sids) -> Tuple[float, int]:
    """Steady-state append loop; returns (wall seconds, samples fed)."""
    total = 0
    n = max(w.samples.shape[0] for w in workloads)
    t0 = time.perf_counter()
    for i in range(0, n, BATCH_SAMPLES):
        batches = [w.samples[i : i + BATCH_SAMPLES] for w in workloads]
        total += sum(b.shape[0] for b in batches)
        pool.append(sids, batches)
    wall = time.perf_counter() - t0
    return wall, total


def timed_serial(workloads) -> Tuple[float, int, int]:
    """The serial-session baseline: one ``StreamingPTrack.append`` per
    session per tick; returns (wall seconds, samples fed, steps).

    Sessions are built and flushed outside the timed window, as the
    pool rows are.
    """
    sessions = [
        StreamingPTrack(SAMPLE_RATE_HZ, profile=w.profile) for w in workloads
    ]
    total = 0
    n = max(w.samples.shape[0] for w in workloads)
    t0 = time.perf_counter()
    for i in range(0, n, BATCH_SAMPLES):
        for sess, w in zip(sessions, workloads):
            batch = w.samples[i : i + BATCH_SAMPLES]
            total += batch.shape[0]
            sess.append(batch)
    wall = time.perf_counter() - t0
    for sess in sessions:
        sess.flush()
    return wall, total, sum(sess.step_count for sess in sessions)


def _timed_pool(workloads) -> Tuple[float, int, int]:
    """One fresh pool's steady-state ingest; (wall, samples, steps)."""
    pool = SessionPool(SAMPLE_RATE_HZ)
    sids = pool.add_sessions([w.profile for w in workloads])
    wall, total = _timed_ingest(pool, workloads, sids)
    pool.flush(sids)
    return wall, total, pool.total_steps


def bench_pool_vs_serial(
    n_sessions: int = 1000,
    duration_s: float = 30.0,
    reps: int = 3,
    seed: int = 12,
) -> Dict[str, Any]:
    """Headline: amortized µs/sample, pool vs serial sessions."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    rows: List[Dict[str, Any]] = []
    best: Dict[str, float] = {}
    steps: Dict[str, int] = {}
    drivers = (("pool", _timed_pool), ("serial", timed_serial))
    # Untimed warmup on a slice of the fleet: page in the workload,
    # prime scipy/numpy caches (filter design, ufunc loops) before
    # the first timed replicate — otherwise rep 0
    # of whichever driver runs first absorbs the one-time costs.
    warm = workloads[: max(1, n_sessions // 16)]
    for _name, run in drivers:
        run(warm)
    for rep in range(reps):
        # Interleaved replicates so machine drift hits both drivers,
        # with the order alternating per replicate so neither driver
        # systematically inherits the other's cache residue.
        order = drivers if rep % 2 == 0 else drivers[::-1]
        for name, run in order:
            wall, total, steps[name] = run(workloads)
            us = 1e6 * wall / total
            rows.append(
                {
                    "driver": name,
                    "rep": rep,
                    "wall_s": wall,
                    "us_per_sample": us,
                    "samples_per_s": total / wall,
                }
            )
            best[name] = min(best.get(name, float("inf")), us)
    assert steps["pool"] == steps["serial"]
    speedup = best["serial"] / best["pool"]
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "batch_samples": BATCH_SAMPLES,
        "reps": reps,
        "rows": rows,
        "pool_us_per_sample": best["pool"],
        "serial_us_per_sample": best["serial"],
        "speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "speedup_ok": bool(speedup >= TARGET_SPEEDUP),
        "total_steps": steps["pool"],
    }


def bench_occupancy(
    session_counts: Sequence[int] = (10, 100, 1000, 10000),
    durations_s: Optional[Dict[int, float]] = None,
    seed: int = 13,
) -> Dict[str, Any]:
    """Pool throughput as round occupancy grows."""
    if durations_s is None:
        # Bigger fleets get shorter traces: the sweep measures
        # occupancy scaling, not wall-clock endurance.
        durations_s = {10: 120.0, 100: 60.0, 1000: 30.0, 10000: 6.0}
    rows: List[Dict[str, Any]] = []
    for count in session_counts:
        duration = durations_s.get(count, 30.0)
        workloads = synthesize_workload(count, duration, seed=seed)
        pool = SessionPool(SAMPLE_RATE_HZ)
        sids = pool.add_sessions([w.profile for w in workloads])
        wall, total = _timed_ingest(pool, workloads, sids)
        pool.flush(sids)
        truth = sum(w.true_steps for w in workloads)
        assert abs(pool.total_steps - truth) <= 6 * count
        rows.append(
            {
                "sessions": count,
                "duration_s": duration,
                "wall_s": wall,
                "us_per_sample": 1e6 * wall / total,
                "samples_per_s": total / wall,
                "real_time_factor": count * duration / wall,
                "total_steps": pool.total_steps,
                "true_steps": truth,
            }
        )
    return {"rows": rows}


def run_fleet_batch(check: bool = False) -> Dict[str, Any]:
    """The full fleet-batch suite; ``check`` shrinks every workload."""
    if check:
        identity = assert_batched_identity(n_sessions=4, duration_s=12.0)
        headline = bench_pool_vs_serial(
            n_sessions=32, duration_s=8.0, reps=1
        )
        occupancy = bench_occupancy(
            session_counts=(4, 16), durations_s={4: 8.0, 16: 8.0}
        )
    else:
        identity = assert_batched_identity()
        headline = bench_pool_vs_serial()
        occupancy = bench_occupancy()
    return {
        "check_mode": check,
        "identity": identity,
        "pool_vs_serial": headline,
        "occupancy": occupancy,
    }
