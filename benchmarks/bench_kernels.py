"""Tracked batched-kernel benchmarks (the PR-8 scoreboard).

Four sections, written into the ``fleet_kernels`` block of
``BENCH_PR8.json``:

* **identity** — asserted *before any timing*: (a) the serving
  crediting oracle ``serial == pooled == sharded`` on the packed round
  (reused from the PR-6 suite), and (b) a differential
  sweep of the batched bounce solver
  (:func:`repro.core.bounce.solve_bounce_block`) against the scalar
  :func:`~repro.core.bounce.solve_bounce` on randomized physical
  geometries — every converged row must be float64 **bit-identical**
  to scipy's ``brentq`` result, and every geometry the scalar path
  rejects must come back ``valid=False``.
* **headline** — amortized steady-state ingest cost (µs/sample) of the
  pool at 1000 sessions, measured against
  the *tracked PR-6 batched baseline* read from ``BENCH_PR6.json``.
  The tracked targets: >= 1.5x improvement over that baseline and an
  absolute cost <= 1.2 µs/sample.
* **small_fleet** — the 10-session row: the pool's packed round
  against serial sessions (one ``StreamingPTrack.append`` per session
  per tick), plus the improvement over the PR-6 10-session occupancy
  row.
* **bounce_kernel** — the solver microbenchmark: one
  ``solve_bounce_block`` call against the equivalent scalar loop at a
  fleet-scale row count.

Every run also records ``check_reference`` — the check-scale speedup
of the pool over serial sessions — so CI smoke runs (``--check``) can
gate on a *ratio* instead of absolute µs, which would be
runner-dependent: check mode fails when the current speedup — the
median ratio over interleaved pool/serial pairs — drops below
:data:`CHECK_SPEEDUP_FLOOR`.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from bench_batch import (
    BATCH_SAMPLES,
    SAMPLE_RATE_HZ,
    _timed_ingest,
    assert_batched_identity,
    timed_serial,
)
from repro.core.bounce import GeometryError, solve_bounce, solve_bounce_block
from repro.serving import SessionPool, synthesize_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Tracked targets for the 1000-session headline.
TARGET_IMPROVEMENT = 1.5
TARGET_US_PER_SAMPLE = 1.2
#: Interleaved pool/serial pairs behind the check-scale ratio.
CHECK_REFERENCE_PAIRS = 7
#: Check-mode regression gate: the check-scale serial/pool speedup
#: must reach this. It is 0.8 x the median of 15 readings of
#: :func:`measure_check_reference` (each the median of
#: :data:`CHECK_REFERENCE_PAIRS` pairs) on a shared 2-vCPU host, which
#: spread 5.16-6.05x around a median of 5.39x; it may not drop below
#: 3.0, the floor the gate had against the lockstep pool.
CHECK_SPEEDUP_FLOOR = 4.32

#: PR-6 fallbacks, used only when ``BENCH_PR6.json`` is unreadable
#: (the tracked file is the source of truth).
_PR6_BATCHED_US_FALLBACK = 1.967118483333555
_PR6_OCCUPANCY_10_US_FALLBACK = 5.197


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


def load_pr6_baseline() -> Dict[str, Any]:
    """The tracked PR-6 batched numbers this suite improves on."""
    path = REPO_ROOT / "BENCH_PR6.json"
    try:
        fleet = json.loads(path.read_text())["fleet_batch"]
        headline_us = float(
            fleet["batched_vs_lockstep"]["batched_us_per_sample"]
        )
        ten = next(
            r for r in fleet["occupancy"]["rows"] if r["sessions"] == 10
        )
        return {
            "source": str(path.name),
            "batched_us_per_sample": headline_us,
            "occupancy_10_us_per_sample": float(ten["us_per_sample"]),
        }
    except (OSError, KeyError, ValueError, StopIteration):
        return {
            "source": "fallback-constants",
            "batched_us_per_sample": _PR6_BATCHED_US_FALLBACK,
            "occupancy_10_us_per_sample": _PR6_OCCUPANCY_10_US_FALLBACK,
        }


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------


def _pool_us(workloads) -> float:
    """Steady-state ingest µs/sample of one fresh pool (flush untimed)."""
    pool = SessionPool(SAMPLE_RATE_HZ)
    sids = pool.add_sessions([w.profile for w in workloads])
    # Start every timed run from a collected heap, so a full collection
    # of the earlier runs' garbage never lands inside this one.
    gc.collect()
    wall, total = _timed_ingest(pool, workloads, sids)
    pool.flush(sids)
    return 1e6 * wall / total


def _serial_us(workloads) -> float:
    """Steady-state ingest µs/sample of fresh serial sessions."""
    gc.collect()
    wall, total, _steps = timed_serial(workloads)
    return 1e6 * wall / total


def _best_pool_us(workloads, reps: int) -> float:
    """Best-of-``reps`` steady-state µs/sample, fresh pool per rep."""
    return min(_pool_us(workloads) for _ in range(reps))


def _warmup(workloads) -> None:
    """Untimed pass priming filter design and ufunc loops."""
    warm = workloads[: max(1, len(workloads) // 16)]
    pool = SessionPool(SAMPLE_RATE_HZ)
    sids = pool.add_sessions([w.profile for w in warm])
    _timed_ingest(pool, warm, sids)
    pool.flush(sids)


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def bench_headline(
    n_sessions: int = 1000,
    duration_s: float = 30.0,
    reps: int = 3,
    seed: int = 82,
    baseline: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """1000-session µs/sample vs the tracked PR-6 batched row."""
    if baseline is None:
        baseline = load_pr6_baseline()
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    _warmup(workloads)
    us = _best_pool_us(workloads, reps)
    base_us = baseline["batched_us_per_sample"]
    improvement = base_us / us
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "batch_samples": BATCH_SAMPLES,
        "reps": reps,
        "us_per_sample": us,
        "baseline_us_per_sample": base_us,
        "baseline_source": baseline["source"],
        "improvement_x": improvement,
        "target_improvement_x": TARGET_IMPROVEMENT,
        "target_us_per_sample": TARGET_US_PER_SAMPLE,
        "improvement_ok": bool(improvement >= TARGET_IMPROVEMENT),
        "absolute_ok": bool(us <= TARGET_US_PER_SAMPLE),
    }


def bench_small_fleet(
    n_sessions: int = 10,
    duration_s: float = 60.0,
    reps: int = 3,
    seed: int = 83,
    baseline: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The 10-session row: the packed round vs serial sessions."""
    if baseline is None:
        baseline = load_pr6_baseline()
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    _warmup(workloads)
    packed_us = _best_pool_us(workloads, reps)
    serial_us = min(_serial_us(workloads) for _ in range(reps))
    base_us = baseline["occupancy_10_us_per_sample"]
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "reps": reps,
        "packed_us_per_sample": packed_us,
        "serial_us_per_sample": serial_us,
        "packed_beats_serial": bool(packed_us <= serial_us),
        "baseline_us_per_sample": base_us,
        "baseline_source": baseline["source"],
        "improvement_x": base_us / packed_us,
    }


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
    """The check-scale pool-over-serial speedup (the CI gate ratio).

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
        pooled.append(_pool_us(workloads))
        serial.append(_serial_us(workloads))
    ratios = [ser / poo for poo, ser in zip(pooled, serial)]
    return {
        "n_sessions": 32,
        "duration_s": 8.0,
        "pairs": CHECK_REFERENCE_PAIRS,
        "pool_us_per_sample": float(np.median(pooled)),
        "serial_us_per_sample": float(np.median(serial)),
        "speedup": float(np.median(ratios)),
        "speedup_min": min(ratios),
        "speedup_max": max(ratios),
    }


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------


def run_fleet_kernels(check: bool = False) -> Dict[str, Any]:
    """The full PR-8 kernel suite; ``check`` shrinks every workload.

    Check mode additionally gates on ``check_reference``: the
    check-scale pool-over-serial speedup must reach
    :data:`CHECK_SPEEDUP_FLOOR`.
    """
    baseline = load_pr6_baseline()
    if check:
        identity = assert_batched_identity(n_sessions=4, duration_s=12.0)
        differential = assert_bounce_differential(n_rows=2_000)
        reference = measure_check_reference()
        headline = bench_headline(
            n_sessions=32, duration_s=8.0, reps=1, baseline=baseline
        )
        small_fleet = bench_small_fleet(
            n_sessions=4, duration_s=8.0, reps=1, baseline=baseline
        )
        bounce_kernel = bench_bounce_kernel(n_rows=512, reps=2)
        regression = {
            "status": "compared",
            "current_speedup": reference["speedup"],
            "floor_speedup": CHECK_SPEEDUP_FLOOR,
            "regression_ok": bool(
                reference["speedup"] >= CHECK_SPEEDUP_FLOOR
            ),
        }
        result: Dict[str, Any] = {
            "check_mode": True,
            "identity": identity,
            "bounce_differential": differential,
            "headline": headline,
            "small_fleet": small_fleet,
            "bounce_kernel": bounce_kernel,
            "check_reference": reference,
            "regression": regression,
        }
        return result
    identity = assert_batched_identity()
    differential = assert_bounce_differential()
    headline = bench_headline(baseline=baseline)
    small_fleet = bench_small_fleet(baseline=baseline)
    bounce_kernel = bench_bounce_kernel()
    reference = measure_check_reference()
    return {
        "check_mode": False,
        "identity": identity,
        "bounce_differential": differential,
        "headline": headline,
        "small_fleet": small_fleet,
        "bounce_kernel": bounce_kernel,
        "check_reference": reference,
        "regression": {"status": "full_run", "regression_ok": True},
    }
