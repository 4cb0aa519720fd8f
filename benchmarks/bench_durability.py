"""Tracked durable-session benchmarks (the PR-9 scoreboard).

Three sections, written into the ``durability`` block of
``BENCH_PR9.json``:

* **identity** — the resume oracle, asserted *before any timing*: a
  session snapshot taken at an arbitrary upload boundary and restored
  (through a pickle round-trip) must continue bit-identically to the
  uninterrupted run, and the checkpointed fleet (epochs, checkpoint,
  restore-on-crash) must credit exactly what the one-epoch fleet
  credits. A snapshot format that drifts by one sample is a
  correctness bug, not a performance trade, so the timing sections
  refuse to run until this passes.
* **checkpoint_overhead** — the cost of durability on the hot path:
  the 1000-session fleet round served with per-epoch pool snapshots
  versus the same round served straight. The tracked budget is <= 5%
  wall overhead at the default epoch length — durability must be
  cheap enough to leave on.
* **recovery** — why checkpoints exist: wall time to bring a crashed
  fleet back to the end of its streams *from its last checkpoint*
  versus *re-ingesting from the start of the trace*. The recorded
  speedup is the restore-vs-reingest headline; it grows linearly with
  how deep into the stream the crash lands.

Timing methodology: snapshots are taken at upload-tick boundaries
(the only legal checkpoint positions), and every timed comparison
serves the identical sample stream through the identical pool type so
the only varying term is the durability machinery itself.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, List, Tuple

from bench_common import credit_signature
from repro.core.streaming import StreamingPTrack
from repro.serving import (
    BatchedSessionPool,
    SessionPool,
    serve_fleet,
    synthesize_workload,
)

SAMPLE_RATE_HZ = 100.0
#: Upload cadence of the timed rounds — 0.5 s batches at 100 Hz, the
#: wearable upload interval the fleet scoreboards share.
BATCH_SAMPLES = 50
#: Epoch length between checkpoints in the overhead measurement.
CHECKPOINT_EVERY_S = 10.0
#: Tracked budget: per-epoch checkpointing may cost at most this
#: fraction of the plain round's wall time.
OVERHEAD_BUDGET = 0.05


def _drive_session(sess, samples, cut=None):
    """Serve one trace; at tick ``cut``, pickle-round-trip a snapshot
    and continue on the restored session."""
    steps: list = []
    strides: list = []
    for tick, off in enumerate(range(0, samples.shape[0], BATCH_SAMPLES)):
        if cut is not None and tick == cut:
            blob = pickle.loads(pickle.dumps(sess.snapshot()))
            sess = StreamingPTrack.from_snapshot(blob)
        s, r = sess.append(samples[off : off + BATCH_SAMPLES])
        steps.extend(s)
        strides.extend(r)
    s, r = sess.flush()
    steps.extend(s)
    strides.extend(r)
    return credit_signature(steps, strides)


def assert_resume_identity(
    n_sessions: int = 4,
    duration_s: float = 30.0,
    seed: int = 91,
) -> Dict[str, Any]:
    """The resume oracle: snapshot+restore == uninterrupted, and the
    checkpointed fleet == the one-epoch fleet."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    n_ticks = workloads[0].samples.shape[0] // BATCH_SAMPLES
    cuts = sorted({1, n_ticks // 3, n_ticks // 2, n_ticks - 1})
    compared_steps = 0
    for w in workloads:
        base = _drive_session(
            StreamingPTrack(SAMPLE_RATE_HZ, profile=w.profile), w.samples
        )
        compared_steps += len(base[0])
        for cut in cuts:
            resumed = _drive_session(
                StreamingPTrack(SAMPLE_RATE_HZ, profile=w.profile),
                w.samples,
                cut=cut,
            )
            assert resumed == base, (
                f"resume at tick {cut} diverged from uninterrupted run"
            )
    traces = [w.samples for w in workloads]
    profiles = [w.profile for w in workloads]
    one_epoch = serve_fleet(
        traces, SAMPLE_RATE_HZ, profiles=profiles, workers=1,
        batch_samples=BATCH_SAMPLES,
    )
    durable = serve_fleet(
        traces, SAMPLE_RATE_HZ, profiles=profiles, workers=1,
        batch_samples=BATCH_SAMPLES, checkpoint_every_s=3.0,
    )
    assert [
        credit_signature(s.steps, s.strides) for s in one_epoch.sessions
    ] == [
        credit_signature(s.steps, s.strides) for s in durable.sessions
    ], "checkpointed fleet diverged from the one-epoch fleet"
    return {
        "oracle": (
            "uninterrupted == snapshot+restore(any boundary); "
            "one-epoch fleet == checkpointed fleet"
        ),
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "cut_ticks": cuts,
        "compared_steps": compared_steps,
        "ok": True,
    }


def bench_checkpoint_overhead(
    n_sessions: int = 1000,
    duration_s: float = 30.0,
    reps: int = 3,
    seed: int = 92,
) -> Dict[str, Any]:
    """Headline budget: the fleet round with per-epoch snapshots."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    samples = [w.samples for w in workloads]
    profiles = [w.profile for w in workloads]
    epoch_ticks = max(
        1, int(round(CHECKPOINT_EVERY_S * SAMPLE_RATE_HZ / BATCH_SAMPLES))
    )
    n = max(s.shape[0] for s in samples)
    total = sum(s.shape[0] for s in samples)

    def run(checkpoint: bool) -> Tuple[float, int]:
        pool = BatchedSessionPool(SAMPLE_RATE_HZ)
        sids = pool.add_sessions(profiles)
        checkpoints = 0
        t0 = time.perf_counter()
        for tick, off in enumerate(range(0, n, BATCH_SAMPLES)):
            pool.append(
                sids, [s[off : off + BATCH_SAMPLES] for s in samples]
            )
            if checkpoint and (tick + 1) % epoch_ticks == 0:
                pool.snapshot()
                checkpoints += 1
        wall = time.perf_counter() - t0
        pool.flush(sids)
        return wall, checkpoints

    best_plain = best_ckpt = float("inf")
    checkpoints = 0
    rows: List[Dict[str, Any]] = []
    for rep in range(reps):
        # Interleaved replicates so machine drift hits both drivers.
        for mode in ("plain", "checkpointed"):
            wall, count = run(mode == "checkpointed")
            rows.append({"mode": mode, "rep": rep, "wall_s": wall})
            if mode == "plain":
                best_plain = min(best_plain, wall)
            else:
                best_ckpt = min(best_ckpt, wall)
                checkpoints = count
    overhead = best_ckpt / best_plain - 1.0
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "batch_samples": BATCH_SAMPLES,
        "checkpoint_every_s": CHECKPOINT_EVERY_S,
        "checkpoints_per_run": checkpoints,
        "reps": reps,
        "rows": rows,
        "plain_s": best_plain,
        "checkpointed_s": best_ckpt,
        "samples_per_s": total / best_ckpt,
        "overhead_frac": overhead,
        "overhead_budget": OVERHEAD_BUDGET,
        "overhead_ok": bool(overhead <= OVERHEAD_BUDGET),
    }


def bench_recovery(
    n_sessions: int = 100,
    duration_s: float = 120.0,
    crash_frac: float = 0.9,
    reps: int = 3,
    seed: int = 93,
) -> Dict[str, Any]:
    """Restore-vs-reingest: finishing a fleet after a late crash."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    samples = [w.samples for w in workloads]
    profiles = [w.profile for w in workloads]
    n = max(s.shape[0] for s in samples)
    crash_tick = int(crash_frac * (n // BATCH_SAMPLES))
    crash_off = crash_tick * BATCH_SAMPLES

    # The state the crash interrupts: a pool checkpointed at the last
    # boundary before the failure (serialized, as a real restore sees
    # it). Built once outside the timed loops.
    pool = SessionPool(SAMPLE_RATE_HZ)
    sids = pool.add_sessions(profiles)
    for off in range(0, crash_off, BATCH_SAMPLES):
        pool.append(sids, [s[off : off + BATCH_SAMPLES] for s in samples])
    blob = pickle.dumps(pool.snapshot())

    def run_restore() -> float:
        t0 = time.perf_counter()
        revived = SessionPool.from_snapshot(pickle.loads(blob))
        rsids = revived.session_ids
        for off in range(crash_off, n, BATCH_SAMPLES):
            revived.append(
                rsids, [s[off : off + BATCH_SAMPLES] for s in samples]
            )
        revived.flush(rsids)
        return time.perf_counter() - t0

    def run_reingest() -> float:
        t0 = time.perf_counter()
        fresh = SessionPool(SAMPLE_RATE_HZ)
        fsids = fresh.add_sessions(profiles)
        for off in range(0, n, BATCH_SAMPLES):
            fresh.append(
                fsids, [s[off : off + BATCH_SAMPLES] for s in samples]
            )
        fresh.flush(fsids)
        return time.perf_counter() - t0

    best_restore = best_reingest = float("inf")
    for _ in range(reps):
        best_restore = min(best_restore, run_restore())
        best_reingest = min(best_reingest, run_reingest())
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "crash_frac": crash_frac,
        "checkpoint_bytes": len(blob),
        "reps": reps,
        "restore_s": best_restore,
        "reingest_s": best_reingest,
        "speedup": best_reingest / best_restore,
    }


def run_durability(check: bool = False) -> Dict[str, Any]:
    """The full durability suite; ``check`` shrinks every workload."""
    if check:
        identity = assert_resume_identity(n_sessions=2, duration_s=15.0)
        overhead = bench_checkpoint_overhead(
            n_sessions=20, duration_s=10.0, reps=1
        )
        recovery = bench_recovery(
            n_sessions=8, duration_s=20.0, reps=1
        )
    else:
        identity = assert_resume_identity()
        overhead = bench_checkpoint_overhead()
        recovery = bench_recovery()
    return {
        "check_mode": check,
        "identity": identity,
        "checkpoint_overhead": overhead,
        "recovery": recovery,
    }
