"""Tracked profile-store benchmarks (the PR-10 scoreboard).

Three sections, written into the ``profiles`` block of
``BENCH_PR10.json``:

* **equivalence** — the trainer oracle, asserted *before any timing*:
  an :class:`repro.profiles.IncrementalSelfTrainer` fed the same
  observations as the batch :class:`repro.core.selftrain.SelfTrainer`
  — in one gulp, in ragged chunks, and in shuffled order — must train
  the bit-identical ``(m̂, l̂, k)`` profile. A streaming trainer that
  drifts from the paper's batch solve is a correctness bug, not a
  performance trade, so the timing sections refuse to run until this
  passes.
* **population** — the store at population scale: ingest a
  million-profile population through batched ``put_many`` (one atomic
  rewrite per touched shard), then re-open the store cold and measure
  random ``get_many`` warm-load throughput plus the full-scan
  ``stats()`` wall. The tracked numbers are puts/s and cold gets/s.
* **warm_load** — the serving integration: the same fleet served with
  profiles passed directly versus warm-loaded from the store by
  ``user_id``. Credits must match bit-exactly (the PR-10 serving
  oracle), and the recorded overhead is the cost of making profiles
  durable on the serve path.

Timing methodology: population ingest uses batches large enough that
every shard is rewritten a handful of times (the deployment shape —
nightly write-backs arrive batched per fleet, not one put per user),
and the cold-read pass re-opens the store so the LRU starts empty.
"""

from __future__ import annotations

import random
import tempfile
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from bench_common import credit_signature
from repro.core.config import PTrackConfig
from repro.core.selftrain import (
    CalibrationWalk,
    SelfTrainer,
    calibration_observations,
    walk_observations,
)
from repro.profiles import IncrementalSelfTrainer, ProfileRecord, ProfileStore
from repro.runtime import derive_rng
from repro.serving import serve_fleet, synthesize_workload
from repro.types import UserProfile

SAMPLE_RATE_HZ = 100.0
#: Upload cadence shared with the other fleet scoreboards.
BATCH_SAMPLES = 50
#: Ingest batch size for the population section — the "one fleet's
#: nightly write-back" granularity; each batch rewrites every shard at
#: most once.
PUT_BATCH = 200_000


# ----------------------------------------------------------------------
# Section 1: the incremental-vs-batch trainer oracle
# ----------------------------------------------------------------------
def assert_trainer_equivalence(
    n_users: int = 4,
    duration_s: float = 30.0,
    seed: int = 101,
) -> Dict[str, Any]:
    """Incremental training must reproduce the batch solve bit-exactly.

    For each user the batch trainer sees two referenced calibration
    walks (a swinging walk and a rigid stepping stretch, so Step 1 has
    both gaits). The incremental trainer sees the *same* extracted
    observations three ways — all at once, in ragged chunks, and in a
    shuffled order — and every variant must produce the identical
    profile, because the running sufficient statistics are multisets:
    order and chunking cannot matter.
    """
    from repro.simulation.walker import simulate_walk

    from repro.experiments.common import make_users

    config = PTrackConfig()
    users = make_users(n_users, seed=seed)
    compared = 0
    for idx, user in enumerate(users):
        rng = derive_rng(seed, idx)
        walk_trace, walk_truth = simulate_walk(user, duration_s, rng=rng)
        step_trace, step_truth = simulate_walk(
            user, 0.6 * duration_s, rng=rng, arm_mode="rigid"
        )
        walks = [
            CalibrationWalk(walk_trace, walk_truth.total_distance_m),
            CalibrationWalk(step_trace, step_truth.total_distance_m),
        ]
        batch = SelfTrainer(config).train(walks)

        anchor = calibration_observations([w.trace for w in walks], config)
        per_walk = [
            (walk_observations(w.trace, config), w.reference_distance_m)
            for w in walks
        ]

        def feed_and_train(chunk: int, shuffle: bool) -> UserProfile:
            obs = list(anchor)
            if shuffle:
                random.Random(seed + idx).shuffle(obs)
            trainer = IncrementalSelfTrainer(config=config)
            for start in range(0, len(obs), chunk):
                trainer.observe(obs[start : start + chunk])
            refs = list(per_walk)
            if shuffle:
                refs.reverse()
            for cycle_obs, reference in refs:
                trainer.observe_walk(cycle_obs, reference)
            return trainer.train()

        variants = [
            feed_and_train(chunk=len(anchor) or 1, shuffle=False),
            feed_and_train(chunk=3, shuffle=False),
            feed_and_train(chunk=7, shuffle=True),
        ]
        for variant in variants:
            assert variant == batch, (
                f"incremental trainer diverged from batch for user {idx}: "
                f"{variant} != {batch}"
            )
        compared += len(variants)
    return {
        "oracle": (
            "IncrementalSelfTrainer.train == SelfTrainer.train under any "
            "chunking and observation order"
        ),
        "n_users": n_users,
        "duration_s": duration_s,
        "profiles_compared": compared,
        "ok": True,
    }


# ----------------------------------------------------------------------
# Section 2: the store at population scale
# ----------------------------------------------------------------------
def _population_records(
    start: int, count: int, rng: np.random.Generator
) -> List[ProfileRecord]:
    """Synthesize ``count`` plausible records (anthropometric spread)."""
    arms = rng.normal(0.68, 0.04, count)
    legs = rng.normal(0.84, 0.05, count)
    return [
        ProfileRecord(
            user_id=f"user-{start + i:07d}",
            profile=UserProfile(
                arm_length_m=float(arms[i]),
                leg_length_m=float(legs[i]),
                calibration_k=1.0,
            ),
            observations=32,
            confidence=0.8,
        )
        for i in range(count)
    ]


def bench_population(
    n_profiles: int = 1_000_000,
    sample: int = 10_000,
    seed: int = 102,
) -> Dict[str, Any]:
    """Headline scale: ingest a 1M-profile population, read it cold."""
    with tempfile.TemporaryDirectory() as tmp:
        store = ProfileStore(tmp, cache_shards=256)
        put_s = 0.0
        batches = 0
        for start in range(0, n_profiles, PUT_BATCH):
            count = min(PUT_BATCH, n_profiles - start)
            records = _population_records(start, count, derive_rng(seed, batches))
            t0 = time.perf_counter()
            store.put_many(records)
            put_s += time.perf_counter() - t0
            batches += 1

        # Cold reads: a fresh store instance, empty LRU, random users.
        pick = derive_rng(seed, 9999)
        wanted = [
            f"user-{i:07d}"
            for i in sorted(pick.choice(n_profiles, size=min(sample, n_profiles), replace=False))
        ]
        cold = ProfileStore(tmp)
        t0 = time.perf_counter()
        got = cold.get_many(wanted)
        get_s = time.perf_counter() - t0
        assert len(got) == len(wanted), "population store lost records"

        t0 = time.perf_counter()
        stats = cold.stats()
        stats_s = time.perf_counter() - t0
        assert stats["records"] == n_profiles
    return {
        "n_profiles": n_profiles,
        "put_batch": PUT_BATCH,
        "put_batches": batches,
        "put_s": put_s,
        "puts_per_s": n_profiles / put_s,
        "cold_sample": len(wanted),
        "cold_get_s": get_s,
        "cold_gets_per_s": len(wanted) / get_s,
        "stats_scan_s": stats_s,
        "n_shards": stats["n_shards"],
        "populated_shards": stats["populated_shards"],
    }


# ----------------------------------------------------------------------
# Section 3: warm-load on the serve path
# ----------------------------------------------------------------------
def bench_warm_load(
    n_sessions: int = 200,
    duration_s: float = 10.0,
    reps: int = 3,
    seed: int = 103,
) -> Dict[str, Any]:
    """Store-backed serving versus direct profiles, same fleet.

    Credits must be bit-identical (the serving oracle rides along with
    the timing); the recorded overhead is what durable profiles cost on
    the serve path — one batched ``get_many`` per fleet.
    """
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    traces = [w.samples for w in workloads]
    profiles = [w.profile for w in workloads]
    user_ids = [w.user.name for w in workloads]

    with tempfile.TemporaryDirectory() as tmp:
        store = ProfileStore(tmp)
        store.put_many(
            ProfileRecord(user_id=uid, profile=p)
            for uid, p in zip(user_ids, profiles)
        )

        def run_direct() -> Tuple[float, Any]:
            t0 = time.perf_counter()
            report = serve_fleet(
                traces,
                SAMPLE_RATE_HZ,
                profiles=profiles,
                workers=1,
                batch_samples=BATCH_SAMPLES,
            )
            return time.perf_counter() - t0, report

        def run_stored() -> Tuple[float, Any]:
            t0 = time.perf_counter()
            report = serve_fleet(
                traces,
                SAMPLE_RATE_HZ,
                user_ids=user_ids,
                profile_store=store,
                workers=1,
                batch_samples=BATCH_SAMPLES,
            )
            return time.perf_counter() - t0, report

        best_direct = best_stored = float("inf")
        loaded = 0
        for _ in range(reps):
            # Interleaved replicates so machine drift hits both paths.
            wall_d, direct = run_direct()
            wall_s, stored = run_stored()
            best_direct = min(best_direct, wall_d)
            best_stored = min(best_stored, wall_s)
            loaded = stored.profiles_loaded
            assert [
                credit_signature(s.steps, s.strides) for s in direct.sessions
            ] == [
                credit_signature(s.steps, s.strides) for s in stored.sessions
            ], "store-loaded fleet diverged from directly-passed profiles"
    overhead = best_stored / best_direct - 1.0
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "reps": reps,
        "profiles_loaded": loaded,
        "direct_s": best_direct,
        "stored_s": best_stored,
        "overhead_frac": overhead,
        "identity_ok": True,
    }


def run_profiles(check: bool = False) -> Dict[str, Any]:
    """The full profile-store suite; ``check`` shrinks every workload.

    The trainer-equivalence oracle runs in *both* modes and gates the
    timing sections: nothing is measured on a trainer that disagrees
    with the batch solve.
    """
    if check:
        equivalence = assert_trainer_equivalence(n_users=2, duration_s=20.0)
        population = bench_population(n_profiles=2_000, sample=500)
        warm_load = bench_warm_load(n_sessions=8, duration_s=6.0, reps=1)
    else:
        equivalence = assert_trainer_equivalence()
        population = bench_population()
        warm_load = bench_warm_load()
    return {
        "check_mode": check,
        "equivalence": equivalence,
        "population": population,
        "warm_load": warm_load,
    }
