"""Fleet serving: track ~1000 concurrent users on one machine.

A deployment backend does not run one tracker — it runs one per active
user. This example synthesizes a fleet of simulated walkers, serves
them three ways and shows the results are identical:

1. **Serially** — one :class:`StreamingPTrack` per user, driven alone.
2. **Pooled** — all sessions behind one
   :class:`repro.serving.SessionPool`, whose rounds run every kernel
   once for the whole fleet.
3. **Sharded** — :func:`repro.serving.serve_fleet` partitions the
   fleet across worker processes via ``repro.runtime.parallel_map``;
   each shard runs its own :class:`repro.serving.SessionPool`.

It then makes profiles durable: a :class:`repro.profiles.ProfileStore`
round-trips the same fleet — serving by ``user_id`` warm-loads the
stored records and credits the exact same steps as passing profiles
directly, and a self-training run writes refreshed, version-bumped
records back so the *next* run resumes calibration where this one
stopped.

Finally it scales the pool to ~1000 users at a 0.5 s upload cadence,
reports throughput against real time, and prints the fleet health
summary from the merged telemetry registry (every shard's counters
travel home with its results and merge into one ledger).

Run:  python examples/fleet_serving.py
"""

import tempfile
import time

from repro.core import StreamingPTrack
from repro.eval.reporting import fleet_health_table
from repro.profiles import ProfileRecord, ProfileStore
from repro.serving import SessionPool, serve_fleet, synthesize_workload

RATE_HZ = 100.0
CADENCE = 50  # samples per upload tick: 0.5 s of data


def serve_serially(workloads):
    """Reference: each user's session driven on its own."""
    totals = []
    for w in workloads:
        sess = StreamingPTrack(RATE_HZ, profile=w.profile)
        for i in range(0, w.samples.shape[0], CADENCE):
            sess.append(w.samples[i : i + CADENCE])
        sess.flush()
        totals.append(sess.step_count)
    return totals


def serve_pooled(workloads):
    """The same sessions behind one vectorized ingest call per tick."""
    pool = SessionPool(RATE_HZ)
    sids = pool.add_sessions([w.profile for w in workloads])
    n = max(w.samples.shape[0] for w in workloads)
    for i in range(0, n, CADENCE):
        pool.append(sids, [w.samples[i : i + CADENCE] for w in workloads])
    pool.flush()
    return [pool.step_count(sid) for sid in sids]


def main() -> None:
    # Small fleet first: demonstrate the three-way identity.
    demo = synthesize_workload(6, duration_s=30.0, seed=42)
    serial = serve_serially(demo)
    pooled = serve_pooled(demo)
    report = serve_fleet(
        [w.samples for w in demo],
        RATE_HZ,
        profiles=[w.profile for w in demo],
        batch_samples=CADENCE,
        workers=2,
        sessions_per_shard=3,
    )
    sharded = [s.step_count for s in report.sessions]
    assert serial == pooled == sharded
    print("serial == pooled == sharded step counts:")
    for k, w in enumerate(demo):
        print(
            f"  {w.user.name}: {serial[k]} steps "
            f"(ground truth {w.true_steps})"
        )

    # Profiles as durable state: the same fleet, round-tripped through
    # a persistent store. Seed it with each walker's profile, then serve
    # by user_id — the warm-loaded records credit the exact same steps.
    with tempfile.TemporaryDirectory() as tmp:
        store = ProfileStore(tmp)
        user_ids = [w.user.name for w in demo]
        store.put_many(
            ProfileRecord(user_id=uid, profile=w.profile)
            for uid, w in zip(user_ids, demo)
        )
        warm = serve_fleet(
            [w.samples for w in demo],
            RATE_HZ,
            user_ids=user_ids,
            profile_store=store,
            batch_samples=CADENCE,
            sessions_per_shard=3,
        )
        assert [s.step_count for s in warm.sessions] == serial
        print(
            f"\nwarm-loaded {warm.profiles_loaded} profiles from the "
            "store; credits match directly-passed profiles exactly"
        )

        # Serve again with self-training on: every session streams gait
        # evidence into an IncrementalSelfTrainer and the fleet writes
        # version-bumped records back, so the next run resumes
        # calibration where this one stopped.
        trained = serve_fleet(
            [w.samples for w in demo],
            RATE_HZ,
            user_ids=user_ids,
            profile_store=store,
            self_train=True,
            batch_samples=CADENCE,
            sessions_per_shard=3,
        )
        rec = store.get(user_ids[0])
        print(
            f"self-training wrote back {trained.profiles_updated} "
            f"record(s); {user_ids[0]} is now v{rec.version} with "
            f"{rec.observations} gait observations banked"
        )

    # Now the headline: ~1000 concurrent users, 0.5 s upload cadence.
    n_users = 1000
    duration_s = 10.0
    fleet = synthesize_workload(n_users, duration_s, seed=7)
    t0 = time.perf_counter()
    report = serve_fleet(
        [w.samples for w in fleet],
        RATE_HZ,
        profiles=[w.profile for w in fleet],
        batch_samples=CADENCE,
        telemetry=True,
    )
    wall = time.perf_counter() - t0
    truth = sum(w.true_steps for w in fleet)
    print(
        f"\nserved {n_users} users x {duration_s:.0f}s in {wall:.1f}s "
        f"({n_users * duration_s / wall:.0f}x real time, "
        f"{report.n_samples / wall:,.0f} samples/s)"
    )
    print(
        f"fleet credited {report.total_steps} steps "
        f"(ground truth {truth}), "
        f"{report.total_distance_m:,.0f} m walked"
    )

    # The merged registry is the fleet's health ledger: per-shard
    # counters travel home with the shard results and sum exactly.
    print()
    print(fleet_health_table(report.telemetry).render())


if __name__ == "__main__":
    main()
