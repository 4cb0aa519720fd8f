"""Tracked performance benchmarks for the repro.runtime subsystem.

Two granularities:

* **Kernel micro-benchmarks** — the vectorised hot signal primitives
  against their retained scalar reference implementations
  (``zero_crossings``, ``offset_from_points``, ``best_lag``). Both
  sides run the same inputs and the results are asserted equivalent
  before any timing is reported.
* **Macro benchmark** — a replicate study (simulate + count for a user
  population across seeds) through :func:`repro.eval.harness.repeat`
  three ways: the seed-style serial loop, the runtime with a cold
  replicate cache, and the runtime warm (the "regenerate the figures"
  workflow). All three must produce identical replicate values.

``scripts/bench.py`` drives this module and writes the JSON scoreboard
(``BENCH_PR1.json``) checked into the repository root.
"""

from __future__ import annotations

import functools
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from repro.core.config import PTrackConfig
from repro.core.offset import critical_points_for_offset, offset_from_points
from repro.core.step_counter import PTrackStepCounter
from repro.eval.harness import repeat
from repro.eval.metrics import count_accuracy
from repro.runtime import (
    TraceCache,
    content_key,
    derive_rng,
    parallel_map,
    resolve_workers,
    simulate_walk_cached,
)
from repro.signal.correlation import _best_lag_scalar, best_lag
from repro.signal.critical_points import zero_crossings
from repro.simulation.profiles import sample_users
from repro.simulation.walker import simulate_walk

# The scalar baselines are the references the tests hold the kernels to.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from scalar_references import (  # noqa: E402
    offset_from_points_scalar,
    zero_crossings_scalar,
)

BENCH_SCHEMA = "ptrack-bench-v1"


def _time(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Kernel micro-benchmarks
# ----------------------------------------------------------------------
def bench_zero_crossings(n: int = 200_000, repeats: int = 3) -> Dict[str, Any]:
    """Scalar vs vectorised hysteresis zero-crossing extraction."""
    rng = np.random.default_rng(11)
    signal = np.cumsum(rng.normal(0.0, 1.0, n))
    signal -= signal.mean()
    hysteresis = 0.5 * float(np.std(signal))
    assert zero_crossings(signal, hysteresis) == zero_crossings_scalar(
        signal, hysteresis
    )
    scalar_s = _time(lambda: zero_crossings_scalar(signal, hysteresis), repeats)
    vector_s = _time(lambda: zero_crossings(signal, hysteresis), repeats)
    return {
        "n_samples": n,
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
    }


def bench_offset_matching(
    n_cycles: int = 400, cycle_len: int = 120, repeats: int = 3
) -> Dict[str, Any]:
    """Scalar vs searchsorted critical-point matching over many cycles.

    Half the cycles carry gait-like point densities (a handful of
    points); the other half are noise-dense segments whose relaxed
    gates produce dozens of points each — the regime where the scalar
    matcher's per-point scans grow quadratic.
    """
    cfg = PTrackConfig()
    dense_cfg = cfg.with_overrides(
        critical_point_prominence=0.05 * cfg.critical_point_prominence,
        crossing_hysteresis=0.05 * cfg.crossing_hysteresis,
    )
    rng = np.random.default_rng(13)
    point_sets = []
    for i in range(n_cycles):
        t = np.linspace(0.0, 2 * np.pi, cycle_len)
        v = np.sin(t) + 0.3 * rng.normal(size=cycle_len)
        a = np.cos(t + rng.uniform(0, 0.8)) + 0.3 * rng.normal(size=cycle_len)
        pts_cfg = cfg if i % 2 == 0 else dense_cfg
        v_pts = [
            p for p in critical_points_for_offset(v, pts_cfg) if p.kind.is_turning
        ]
        a_pts = critical_points_for_offset(a, pts_cfg)
        if v_pts and len(a_pts) >= 2:
            point_sets.append((v_pts, a_pts))
    for v_pts, a_pts in point_sets:
        fast = offset_from_points(v_pts, a_pts, cycle_len, cfg)
        slow = offset_from_points_scalar(v_pts, a_pts, cycle_len, cfg)
        assert abs(fast - slow) <= 1e-12

    def run(fn: Callable) -> None:
        for v_pts, a_pts in point_sets:
            fn(v_pts, a_pts, cycle_len, cfg)

    scalar_s = _time(lambda: run(offset_from_points_scalar), repeats)
    vector_s = _time(lambda: run(offset_from_points), repeats)
    return {
        "n_cycles": len(point_sets),
        "cycle_len": cycle_len,
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
    }


def bench_best_lag(
    n_pairs: int = 200, n: int = 120, max_lag: int = 60, repeats: int = 3
) -> Dict[str, Any]:
    """Scalar vs batched sliding-Pearson lag search."""
    rng = np.random.default_rng(17)
    pairs = [
        (rng.normal(size=n) + np.sin(np.linspace(0, 6, n)), rng.normal(size=n))
        for _ in range(n_pairs)
    ]
    for a, b in pairs:
        assert best_lag(a, b, max_lag) == _best_lag_scalar(a, b, max_lag)

    def run(fn: Callable) -> None:
        for a, b in pairs:
            fn(a, b, max_lag)

    scalar_s = _time(lambda: run(_best_lag_scalar), repeats)
    vector_s = _time(lambda: run(best_lag), repeats)
    return {
        "n_pairs": n_pairs,
        "n_samples": n,
        "max_lag": max_lag,
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
    }


# ----------------------------------------------------------------------
# Trace-cache benchmark
# ----------------------------------------------------------------------
def bench_trace_cache(
    n_traces: int = 6, duration_s: float = 20.0
) -> Dict[str, Any]:
    """Cold vs warm trace simulation through the content-keyed cache."""
    users = sample_users(2, np.random.default_rng(19))
    cache = TraceCache(max_items=64)

    def sweep() -> None:
        for i in range(n_traces):
            simulate_walk_cached(
                users[i % len(users)], duration_s, seed=i, cache=cache
            )

    t0 = time.perf_counter()
    sweep()
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sweep()
    warm_s = time.perf_counter() - t0
    return {
        "n_traces": n_traces,
        "duration_s": duration_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "hits": cache.hits,
        "misses": cache.misses,
    }


# ----------------------------------------------------------------------
# Macro benchmark — the replicate-study workflow
# ----------------------------------------------------------------------
def _macro_measure(seed: int, n_users: int, duration_s: float) -> Dict[str, float]:
    """One replicate: simulate and count a small user population.

    Module-level (and partial-friendly) so worker processes can pickle
    it; every random draw derives from ``(seed, user index)``.
    """
    users = sample_users(n_users, np.random.default_rng(29))
    accuracies: List[float] = []
    for i, user in enumerate(users):
        rng = derive_rng(seed, i)
        trace, truth = simulate_walk(user, duration_s, rng=rng)
        counted = PTrackStepCounter().count_steps(trace)
        accuracies.append(count_accuracy(counted, truth.step_count))
    return {
        "mean_accuracy": float(np.mean(accuracies)),
        "min_accuracy": float(np.min(accuracies)),
    }


def bench_macro(
    n_seeds: int = 6,
    n_users: int = 2,
    duration_s: float = 30.0,
    workers: int = 0,
) -> Dict[str, Any]:
    """The replicate study: seed-style serial vs runtime cold vs warm.

    The warm pass is the everyday workflow this PR optimises: re-running
    a study (tweaked plots, added analyses) whose replicates are already
    memoized under their content keys.
    """
    seeds = list(range(100, 100 + n_seeds))
    measure = functools.partial(
        _macro_measure, n_users=n_users, duration_s=duration_s
    )
    key = content_key("bench-macro", n_users, float(duration_s))
    n_workers = resolve_workers(workers)

    serial_s = _time(lambda: repeat(measure, seeds), repeats=1)
    serial = repeat(measure, seeds)

    cache = TraceCache(max_items=256)
    t0 = time.perf_counter()
    cold = repeat(measure, seeds, workers=n_workers, cache=cache, cache_key=key)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = repeat(measure, seeds, workers=n_workers, cache=cache, cache_key=key)
    warm_s = time.perf_counter() - t0

    identical = all(
        serial[name].values == cold[name].values == warm[name].values
        for name in serial
    )
    return {
        "n_seeds": n_seeds,
        "n_users": n_users,
        "duration_s": duration_s,
        "workers": n_workers,
        "serial_s": serial_s,
        "runtime_cold_s": cold_s,
        "runtime_warm_s": warm_s,
        "speedup_cold": serial_s / cold_s,
        "speedup_warm": serial_s / warm_s,
        "identical_results": identical,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
    }


def _parallel_probe() -> Dict[str, Any]:
    """Smoke-check the process pool with a trivial picklable task."""
    n_workers = resolve_workers(0)
    out = parallel_map(abs, [-3, -2, -1, 0, 1], workers=2)
    return {
        "available_workers": n_workers,
        "pool_roundtrip_ok": out == [3, 2, 1, 0, 1],
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_all(
    n_seeds: int = 6,
    n_users: int = 2,
    duration_s: float = 30.0,
    workers: int = 0,
    check: bool = False,
) -> Dict[str, Any]:
    """Run every benchmark and return the JSON-ready scoreboard.

    Args:
        n_seeds: Replicates in the macro study.
        n_users: Users per macro replicate.
        duration_s: Walk duration per macro trace.
        workers: Worker processes for the runtime passes (0 = all
            cores).
        check: Smoke mode — shrink every workload so the whole suite
            runs in seconds (used by the test tier).

    Returns:
        Nested dict of benchmark sections.
    """
    if check:
        kernels = {
            "zero_crossings": bench_zero_crossings(n=5_000, repeats=1),
            "offset_matching": bench_offset_matching(
                n_cycles=20, cycle_len=80, repeats=1
            ),
            "best_lag": bench_best_lag(n_pairs=10, n=60, max_lag=30, repeats=1),
        }
        trace_cache = bench_trace_cache(n_traces=2, duration_s=5.0)
        macro = bench_macro(n_seeds=2, n_users=1, duration_s=8.0, workers=workers)
    else:
        kernels = {
            "zero_crossings": bench_zero_crossings(),
            "offset_matching": bench_offset_matching(),
            "best_lag": bench_best_lag(),
        }
        trace_cache = bench_trace_cache()
        macro = bench_macro(
            n_seeds=n_seeds,
            n_users=n_users,
            duration_s=duration_s,
            workers=workers,
        )
    return {
        "schema": BENCH_SCHEMA,
        "check_mode": check,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "parallel": _parallel_probe(),
        "kernels": kernels,
        "trace_cache": trace_cache,
        "macro": macro,
    }
