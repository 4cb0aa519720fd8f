"""Tracked SessionPool benchmarks (the ``pool`` suite).

One :class:`repro.serving.SessionPool` round credits every wearer of a
fleet; this suite asserts that round's oracles, then times it. Seven
sections, written into the ``pool`` block of ``BENCH_POOL.json``:

* **identity** — the crediting oracle, asserted *before any timing*:
  per-session credits (step index/time/gait and bitwise stride
  times/lengths) must satisfy ``serial == pooled == sharded`` with
  50-sample (the 0.5 s upload) and 256-sample (a 2.56 s burst)
  uploads, and the two upload sizes must credit the same.
* **bounce_differential** — the batched bounce solver
  (:func:`repro.core.bounce.solve_bounce_block`) against the scalar
  :func:`~repro.core.bounce.solve_bounce` on randomized geometries:
  every converged row must be float64 **bit-identical** to scipy's
  ``brentq`` result, and every geometry the scalar path rejects must
  come back ``valid=False``.
* **amortized_append** — the O(1) evidence: a session's wall time and
  op-counter ratios as the same stream is sliced into 8x more append
  calls. The work counters must not change with the cadence.
* **pool_vs_serial** — the headline: steady-state µs/sample of the
  pool against serial sessions (one ``StreamingPTrack.append`` per
  session per tick) at 1000 sessions. Tracked targets: >= 5x over
  serial, <= 1.2 µs/sample, and >= 1.5x over the PR-6 batched row
  (:data:`PR6_BATCHED_US_PER_SAMPLE`).
* **occupancy** — pool throughput from 1 to 10 000 sessions; the
  10-session row also times serial sessions.
* **bounce_kernel** — one ``solve_bounce_block`` call against the
  equivalent scalar loop at a fleet-scale row count.
* **check_reference** — the regression gate: the pool's speedup over
  serial sessions at check scale (32 sessions x 8 s), the median of
  :data:`CHECK_REFERENCE_PAIRS` interleaved pairs, must reach
  :data:`CHECK_SPEEDUP_FLOOR`. It gates a *ratio*, not absolute µs,
  so it holds across runner speeds.

Timing methodology: sessions are created and the final ``flush()``
runs *outside* the timed window, every timed run starts from a
collected heap, and an untimed warmup primes filter design and ufunc
loops before the first timed run.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench_common import HEADLINE_CADENCE, SAMPLE_RATE_HZ, credit_signature
from repro.core.bounce import GeometryError, solve_bounce, solve_bounce_block
from repro.core.streaming import StreamingPTrack
from repro.serving import SessionPool, serve_fleet, synthesize_workload

#: Samples per append in every timed loop — a 2.56 s upload burst, the
#: batch size the fleet drivers are provisioned for.
BATCH_SAMPLES = 256
#: Tracked targets for the 1000-session headline.
TARGET_SPEEDUP = 5.0
TARGET_IMPROVEMENT = 1.5
TARGET_US_PER_SAMPLE = 1.2
#: The PR-6 batched row, ``fleet_batch.batched_vs_lockstep
#: .batched_us_per_sample`` in ``BENCH_PR6.json``.
PR6_BATCHED_US_PER_SAMPLE = 1.967118483333555
#: Interleaved pool/serial pairs behind the check-scale ratio.
CHECK_REFERENCE_PAIRS = 7
#: Regression gate: the check-scale serial/pool speedup must reach
#: this. It is 0.8 x the median of 15 readings of
#: :func:`measure_check_reference` (each the median of
#: :data:`CHECK_REFERENCE_PAIRS` pairs) on a shared 2-vCPU host, which
#: spread 5.16-6.05x around a median of 5.39x; it may not drop below
#: 3.0, the floor the gate had against the lockstep pool.
CHECK_SPEEDUP_FLOOR = 4.32


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def _run_serial(workloads, batch: int) -> List[Tuple[tuple, tuple]]:
    out = []
    for w in workloads:
        sess = StreamingPTrack(SAMPLE_RATE_HZ, profile=w.profile)
        steps: list = []
        strides: list = []
        for i in range(0, w.samples.shape[0], batch):
            s, r = sess.append(w.samples[i : i + batch])
            steps.extend(s)
            strides.extend(r)
        s, r = sess.flush()
        steps.extend(s)
        strides.extend(r)
        out.append(credit_signature(steps, strides))
    return out


def _run_pool(workloads, batch: int) -> List[Tuple[tuple, tuple]]:
    pool = SessionPool(SAMPLE_RATE_HZ)
    sids = pool.add_sessions([w.profile for w in workloads])
    acc: List[Tuple[list, list]] = [([], []) for _ in sids]
    n = max(w.samples.shape[0] for w in workloads)
    for i in range(0, n, batch):
        out = pool.append(sids, [w.samples[i : i + batch] for w in workloads])
        for k, (s, r) in enumerate(out):
            acc[k][0].extend(s)
            acc[k][1].extend(r)
    for k, (s, r) in enumerate(pool.flush(sids)):
        acc[k][0].extend(s)
        acc[k][1].extend(r)
    return [credit_signature(s, r) for s, r in acc]


def assert_pool_identity(
    n_sessions: int = 6,
    duration_s: float = 20.0,
    seed: int = 11,
    batch_sizes: Sequence[int] = (HEADLINE_CADENCE, BATCH_SAMPLES),
) -> Dict[str, Any]:
    """The crediting oracle: serial == pooled == sharded, per upload size."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    signatures = []
    for batch in batch_sizes:
        serial = _run_serial(workloads, batch)
        pooled = _run_pool(workloads, batch)
        report = serve_fleet(
            [w.samples for w in workloads],
            SAMPLE_RATE_HZ,
            profiles=[w.profile for w in workloads],
            batch_samples=batch,
            workers=1,
            sessions_per_shard=2,
        )
        sharded = [
            credit_signature(s.steps, s.strides) for s in report.sessions
        ]
        assert serial == pooled, f"pool diverged from serial at {batch}"
        assert serial == sharded, f"sharded fleet diverged at {batch}"
        signatures.append(serial)
    reference = signatures[0]
    assert all(s == reference for s in signatures), "upload size moved credits"
    return {
        "oracle": "serial == pooled == sharded",
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "batch_samples": list(batch_sizes),
        "compared_steps": sum(len(s[0]) for s in reference),
        "compared_strides": sum(len(s[1]) for s in reference),
        "ok": True,
    }


def _random_bounce_rows(
    n: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Randomized bounce geometries spanning the physical input range.

    Mixes the nominal walking envelope with degenerate rows (oversized
    travel, non-positive arms) that the scalar solver rejects, so the
    differential covers both outcomes.
    """
    h1 = rng.uniform(-0.15, 0.25, n)
    h2 = rng.uniform(-0.15, 0.25, n)
    d = rng.uniform(0.0, 0.9, n)
    m = rng.uniform(0.4, 0.95, n)
    k = max(1, n // 20)
    bad = rng.choice(n, size=k, replace=False)
    d[bad] = rng.uniform(1.5, 3.0, k)  # travel beyond any reachable arc
    zero = rng.choice(n, size=k, replace=False)
    m[zero] = 0.0  # non-positive arm
    return h1, h2, d, m


def assert_bounce_differential(
    n_rows: int = 50_000, seed: int = 81
) -> Dict[str, Any]:
    """Block solver vs scalar brentq: bit-identity on every row."""
    rng = np.random.default_rng(seed)
    h1, h2, d, m = _random_bounce_rows(n_rows, rng)
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    n_valid = 0
    n_rejected = 0
    for r in range(n_rows):
        try:
            ref = solve_bounce(
                float(h1[r]), float(h2[r]), float(d[r]), float(m[r])
            )
        except GeometryError:
            assert not valid[r], (
                f"row {r}: scalar raised GeometryError but block solver "
                f"returned valid bounce {bounce[r]!r}"
            )
            n_rejected += 1
            continue
        assert valid[r], f"row {r}: scalar solved but block marked invalid"
        assert bounce[r] == ref, (
            f"row {r}: block {bounce[r]!r} != scalar {ref!r} "
            f"(inputs h1={h1[r]!r} h2={h2[r]!r} d={d[r]!r} m={m[r]!r})"
        )
        n_valid += 1
    return {
        "oracle": "solve_bounce_block == solve_bounce (bitwise)",
        "rows": n_rows,
        "solved_rows": n_valid,
        "rejected_rows": n_rejected,
        "ok": True,
    }


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


# ----------------------------------------------------------------------
# Timed drivers
# ----------------------------------------------------------------------


def _timed_pool(workloads) -> Tuple[float, int, int]:
    """One fresh pool's steady-state ingest; (wall, samples, steps)."""
    pool = SessionPool(SAMPLE_RATE_HZ)
    sids = pool.add_sessions([w.profile for w in workloads])
    total = 0
    n = max(w.samples.shape[0] for w in workloads)
    t0 = time.perf_counter()
    for i in range(0, n, BATCH_SAMPLES):
        batches = [w.samples[i : i + BATCH_SAMPLES] for w in workloads]
        total += sum(b.shape[0] for b in batches)
        pool.append(sids, batches)
    wall = time.perf_counter() - t0
    pool.flush(sids)
    return wall, total, pool.total_steps


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


DRIVERS = (("pool", _timed_pool), ("serial", timed_serial))


def _warmup(workloads, drivers=DRIVERS) -> None:
    """Untimed pass on a slice of the fleet: page in the workload and
    prime scipy/numpy caches (filter design, ufunc loops), so the first
    timed run does not absorb the one-time costs."""
    warm = workloads[: max(1, len(workloads) // 16)]
    for _name, run in drivers:
        run(warm)


def _best_of(workloads, reps: int, drivers=DRIVERS) -> Dict[str, Any]:
    """Best-of-``reps`` µs/sample per driver, replicates interleaved.

    The driver order alternates per replicate, so machine drift hits
    every driver and none systematically inherits another's cache
    residue. Every driver must credit the same steps.
    """
    rows: List[Dict[str, Any]] = []
    best: Dict[str, float] = {}
    steps: Dict[str, int] = {}
    for rep in range(reps):
        order = drivers if rep % 2 == 0 else drivers[::-1]
        for name, run in order:
            # Start every timed run from a collected heap, so a full
            # collection of earlier runs' garbage never lands inside it.
            gc.collect()
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
    assert len(set(steps.values())) == 1, f"drivers credited {steps}"
    return {"rows": rows, "best": best, "steps": steps[drivers[0][0]]}


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def bench_pool_vs_serial(
    n_sessions: int = 1000,
    duration_s: float = 30.0,
    reps: int = 3,
    seed: int = 12,
) -> Dict[str, Any]:
    """Headline: amortized µs/sample, pool vs serial sessions."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    _warmup(workloads)
    timed = _best_of(workloads, reps)
    pool_us = timed["best"]["pool"]
    speedup = timed["best"]["serial"] / pool_us
    improvement = PR6_BATCHED_US_PER_SAMPLE / pool_us
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "batch_samples": BATCH_SAMPLES,
        "reps": reps,
        "rows": timed["rows"],
        "pool_us_per_sample": pool_us,
        "serial_us_per_sample": timed["best"]["serial"],
        "total_steps": timed["steps"],
        "speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "speedup_ok": bool(speedup >= TARGET_SPEEDUP),
        "baseline_us_per_sample": PR6_BATCHED_US_PER_SAMPLE,
        "improvement_x": improvement,
        "target_improvement_x": TARGET_IMPROVEMENT,
        "improvement_ok": bool(improvement >= TARGET_IMPROVEMENT),
        "target_us_per_sample": TARGET_US_PER_SAMPLE,
        "absolute_ok": bool(pool_us <= TARGET_US_PER_SAMPLE),
    }


def bench_occupancy(
    session_counts: Sequence[int] = (1, 10, 100, 1000, 10000),
    durations_s: Optional[Dict[int, float]] = None,
    serial_sessions: int = 10,
    reps: int = 3,
    seed: int = 13,
) -> Dict[str, Any]:
    """Pool throughput as round occupancy grows.

    The ``serial_sessions`` row also times serial sessions on the same
    fleet: the small-fleet reading of the packed round.
    """
    if durations_s is None:
        # Bigger fleets get shorter traces: the sweep measures
        # occupancy scaling, not wall-clock endurance.
        durations_s = {1: 120.0, 10: 120.0, 100: 60.0, 1000: 30.0, 10000: 6.0}
    rows: List[Dict[str, Any]] = []
    for count in session_counts:
        duration = durations_s.get(count, 30.0)
        workloads = synthesize_workload(count, duration, seed=seed)
        drivers = DRIVERS if count == serial_sessions else DRIVERS[:1]
        _warmup(workloads, drivers)
        timed = _best_of(workloads, reps, drivers)
        truth = sum(w.true_steps for w in workloads)
        # The tighter of the two truth bands the sweeps this one
        # replaces asserted (4 and 6 steps per session).
        assert abs(timed["steps"] - truth) <= 4 * count
        us = timed["best"]["pool"]
        row = {
            "sessions": count,
            "duration_s": duration,
            "us_per_sample": us,
            "samples_per_s": 1e6 / us,
            "real_time_factor": 1e6 / (us * SAMPLE_RATE_HZ),
            "total_steps": timed["steps"],
            "true_steps": truth,
        }
        if "serial" in timed["best"]:
            row["serial_us_per_sample"] = timed["best"]["serial"]
            row["speedup"] = timed["best"]["serial"] / us
        rows.append(row)
    return {"batch_samples": BATCH_SAMPLES, "reps": reps, "rows": rows}


def bench_bounce_kernel(
    n_rows: int = 4096, reps: int = 5, seed: int = 85
) -> Dict[str, Any]:
    """One block solve vs the equivalent scalar loop, same rows."""
    rng = np.random.default_rng(seed)
    h1, h2, d, m = _random_bounce_rows(n_rows, rng)

    def scalar_loop() -> int:
        solved = 0
        for r in range(n_rows):
            try:
                solve_bounce(
                    float(h1[r]), float(h2[r]), float(d[r]), float(m[r])
                )
                solved += 1
            except GeometryError:
                pass
        return solved

    solve_bounce_block(h1, h2, d, m)  # warmup
    block_s = min(
        _timeit(lambda: solve_bounce_block(h1, h2, d, m))
        for _ in range(reps)
    )
    scalar_s = min(_timeit(scalar_loop) for _ in range(reps))
    return {
        "rows": n_rows,
        "reps": reps,
        "block_us_per_row": 1e6 * block_s / n_rows,
        "scalar_us_per_row": 1e6 * scalar_s / n_rows,
        "speedup": scalar_s / block_s,
    }


def _timeit(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure_check_reference(seed: int = 86) -> Dict[str, Any]:
    """The check-scale pool-over-serial speedup and its gate.

    The median over :data:`CHECK_REFERENCE_PAIRS` interleaved
    pool/serial runs of each pair's ratio: host-speed drift on a
    shared machine hits both runs of a pair alike, and the median rides
    out a stalled run.
    """
    workloads = synthesize_workload(32, 8.0, seed=seed)
    _warmup(workloads)
    pooled: List[float] = []
    serial: List[float] = []
    for _pair in range(CHECK_REFERENCE_PAIRS):
        for name, run in DRIVERS:
            gc.collect()
            wall, total, _steps = run(workloads)
            (pooled if name == "pool" else serial).append(1e6 * wall / total)
    ratios = [ser / poo for poo, ser in zip(pooled, serial)]
    speedup = float(np.median(ratios))
    return {
        "n_sessions": 32,
        "duration_s": 8.0,
        "pairs": CHECK_REFERENCE_PAIRS,
        "pool_us_per_sample": float(np.median(pooled)),
        "serial_us_per_sample": float(np.median(serial)),
        "speedup": speedup,
        "speedup_min": min(ratios),
        "speedup_max": max(ratios),
        "floor_speedup": CHECK_SPEEDUP_FLOOR,
        "regression_ok": bool(speedup >= CHECK_SPEEDUP_FLOOR),
    }


def run_pool(check: bool = False) -> Dict[str, Any]:
    """The full pool suite; ``check`` shrinks every workload but the
    check-scale reference, which both modes measure and gate."""
    if check:
        identity = assert_pool_identity(n_sessions=4, duration_s=12.0)
        differential = assert_bounce_differential(n_rows=2_000)
        amortized = bench_amortized_append(duration_s=30.0, cadences=(25, 200))
        headline = bench_pool_vs_serial(n_sessions=32, duration_s=8.0, reps=1)
        occupancy = bench_occupancy(
            session_counts=(1, 10, 16),
            durations_s={1: 8.0, 10: 8.0, 16: 8.0},
            reps=1,
        )
        bounce_kernel = bench_bounce_kernel(n_rows=512, reps=2)
    else:
        identity = assert_pool_identity()
        differential = assert_bounce_differential()
        amortized = bench_amortized_append()
        headline = bench_pool_vs_serial()
        occupancy = bench_occupancy()
        bounce_kernel = bench_bounce_kernel()
    return {
        "check_mode": check,
        "identity": identity,
        "bounce_differential": differential,
        "amortized_append": amortized,
        "pool_vs_serial": headline,
        "occupancy": occupancy,
        "bounce_kernel": bounce_kernel,
        "check_reference": measure_check_reference(),
    }
