"""Tracked ragged-ingest gateway benchmarks.

Three sections, written into the ``ragged_ingest`` block of
``BENCH_GATEWAY.json``:

* **identity** — the gateway equivalence oracle, asserted *before any
  timing*: on a seeded ragged arrival schedule (bursts, quiet gaps,
  bounded reordering, staggered joins, disconnects), per-session
  credits from the gateway must be bitwise identical to a serial
  replay of exactly the delivered batches in sequence order. A gateway
  that diverges is benchmarking noise, so the other sections refuse to
  run until this passes.
* **ragged_vs_serial** — the headline: sustained ingest throughput
  (samples/s) of the gateway driving a fleet under ragged arrivals,
  with serial sessions on the same workload (idealized synchronized
  arrivals, one ``StreamingPTrack.append`` per session per tick, no
  mailboxes) as the baseline. The tracked target is that mailbox +
  coalescing overhead keeps the gateway within 2x of the serial
  µs/sample. (The history file ``BENCH_PR7.json`` records the retired
  lockstep pool as its baseline, under ``ragged_vs_lockstep``.)
* **shedding** — the backpressure row: the same schedule re-timed by a
  :class:`repro.faults.MailboxFlood` against deliberately small
  mailboxes. Records the shed fraction, the exactly-once accounting
  identity (``accepted + shed == offered``), and that two identical
  runs shed bit-identically (drop decisions are deterministic, never
  load-dependent).

Timing methodology: session creation and the final ``flush()`` run
*outside* the timed window, so the rows read the steady-state ingest
cost the gateway restructures. Ticks with no arrivals are part of the
timed loop: an idle scheduler round is real gateway work.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from bench_common import credit_signature
from bench_pool import timed_serial
from repro.core.streaming import StreamingPTrack
from repro.faults import MailboxFlood, inject_schedule_faults
from repro.serving import (
    IngestGateway,
    serve_schedule,
    synthesize_arrival_schedule,
    synthesize_workload,
)

SAMPLE_RATE_HZ = 100.0
#: Upload granularity of the ragged schedules — a 2.56 s device burst,
#: matching the pool suite's append size.
BATCH_SAMPLES = 256
#: Tracked bound: gateway µs/sample under ragged arrivals may cost at
#: most this multiple of serial sessions' synchronized-arrival cost.
TARGET_OVERHEAD_X = 2.0

_SCHEDULE_KNOBS = dict(
    batch_samples=BATCH_SAMPLES,
    burst_batches=(1, 4),
    quiet_ticks=(0, 2),
    reorder_prob=0.15,
    join_spread_ticks=6,
)


def _serial_replay(workloads, schedule) -> Dict[int, Tuple[tuple, tuple]]:
    """The oracle: each session's delivered batches, in order, solo."""
    out: Dict[int, Tuple[tuple, tuple]] = {}
    for i, slices in schedule.delivered_slices().items():
        sess = StreamingPTrack(
            SAMPLE_RATE_HZ, profile=workloads[i].profile
        )
        steps: list = []
        strides: list = []
        for start, stop in slices:
            s, r = sess.append(workloads[i].samples[start:stop])
            steps.extend(s)
            strides.extend(r)
        s, r = sess.flush()
        steps.extend(s)
        strides.extend(r)
        out[i] = credit_signature(steps, strides)
    return out


def _run_gateway(
    workloads, schedule, capacity_s: float = 120.0
) -> Tuple[IngestGateway, int, float]:
    """Serve a schedule; returns (gateway, timed samples, timed wall).

    The flush (settle tail + gap drain) runs outside the timed window,
    so ``timed samples`` is what the scheduler ingested during the
    schedule itself.
    """
    gw = IngestGateway(
        SAMPLE_RATE_HZ,
        capacity_s=capacity_s,
        reorder_window=max(8, schedule.max_seq_skew),
    )
    t0 = time.perf_counter()
    serve_schedule(
        gw,
        schedule,
        [w.samples for w in workloads],
        profiles=[w.profile for w in workloads],
        flush=False,
    )
    wall = time.perf_counter() - t0
    timed_samples = gw.stats.samples_ingested
    gw.flush()
    return gw, timed_samples, wall


def assert_gateway_identity(
    n_sessions: int = 6,
    duration_s: float = 20.0,
    seed: int = 21,
) -> Dict[str, Any]:
    """The crediting oracle: serial replay == gateway."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    schedule = synthesize_arrival_schedule(
        [w.samples.shape[0] for w in workloads],
        seed=seed,
        disconnect_prob=0.1,
        **_SCHEDULE_KNOBS,
    )
    oracle = {
        i: sig
        for i, sig in _serial_replay(workloads, schedule).items()
        if sig != ((), ())
    }
    gw = IngestGateway(
        SAMPLE_RATE_HZ, reorder_window=max(8, schedule.max_seq_skew)
    )
    credits = serve_schedule(
        gw,
        schedule,
        [w.samples for w in workloads],
        profiles=[w.profile for w in workloads],
    )
    got = {i: credit_signature(*c) for i, c in credits.items()}
    assert gw.stats.samples_shed == 0, "gateway shed samples"
    assert got == oracle, "gateway diverged from serial replay"
    return {
        "oracle": "serial replay == gateway",
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "n_ticks": schedule.n_ticks,
        "n_events": schedule.n_events,
        "max_seq_skew": schedule.max_seq_skew,
        "disconnected": len(schedule.disconnected),
        "compared_steps": sum(len(s[0]) for s in oracle.values()),
        "compared_strides": sum(len(s[1]) for s in oracle.values()),
        "ok": True,
    }


def bench_ragged_vs_serial(
    n_sessions: int = 200,
    duration_s: float = 30.0,
    reps: int = 3,
    seed: int = 22,
) -> Dict[str, Any]:
    """Headline: sustained samples/s under ragged arrivals."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    schedule = synthesize_arrival_schedule(
        [w.samples.shape[0] for w in workloads],
        seed=seed,
        **_SCHEDULE_KNOBS,
    )
    rows: List[Dict[str, Any]] = []
    best: Dict[str, float] = {}
    for rep in range(reps):
        # Interleaved replicates so machine drift hits both drivers.
        for name in ("gateway", "serial"):
            if name == "serial":
                wall, total, _steps = timed_serial(workloads)
            else:
                gw, total, wall = _run_gateway(workloads, schedule)
                assert gw.stats.samples_shed == 0
            us = 1e6 * wall / total
            rows.append(
                {
                    "driver": name,
                    "rep": rep,
                    "wall_s": wall,
                    "samples": total,
                    "us_per_sample": us,
                    "samples_per_s": total / wall,
                }
            )
            best[name] = min(best.get(name, float("inf")), us)
    overhead = best["gateway"] / best["serial"]
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "batch_samples": BATCH_SAMPLES,
        "n_ticks": schedule.n_ticks,
        "n_events": schedule.n_events,
        "reps": reps,
        "rows": rows,
        "gateway_us_per_sample": best["gateway"],
        "serial_us_per_sample": best["serial"],
        "gateway_samples_per_s": 1e6 / best["gateway"],
        "serial_samples_per_s": 1e6 / best["serial"],
        "overhead_x": overhead,
        "target_overhead_x": TARGET_OVERHEAD_X,
        "overhead_ok": bool(overhead <= TARGET_OVERHEAD_X),
    }


def bench_shedding(
    n_sessions: int = 50,
    duration_s: float = 30.0,
    capacity_s: float = 5.0,
    seed: int = 23,
) -> Dict[str, Any]:
    """Backpressure under a mailbox flood against small mailboxes."""
    workloads = synthesize_workload(n_sessions, duration_s, seed=seed)
    schedule = synthesize_arrival_schedule(
        [w.samples.shape[0] for w in workloads],
        seed=seed,
        **_SCHEDULE_KNOBS,
    )
    flooded = inject_schedule_faults(
        schedule, [MailboxFlood(flood_prob=0.3, flood_span=10)], seed=seed
    )

    def run() -> Tuple[Dict[str, int], int, float]:
        gw, timed_samples, wall = _run_gateway(
            workloads, flooded, capacity_s=capacity_s
        )
        return gw.stats.as_dict(), timed_samples, wall

    stats, timed_samples, wall = run()
    stats_again, _, _ = run()
    offered = flooded.n_samples
    assert stats["samples_accepted"] + stats["samples_shed"] == offered, (
        "shed accounting is not exactly-once"
    )
    assert stats == stats_again, "shedding is not deterministic"
    return {
        "n_sessions": n_sessions,
        "duration_s": duration_s,
        "capacity_s": capacity_s,
        "offered_samples": offered,
        "accepted_samples": stats["samples_accepted"],
        "shed_samples": stats["samples_shed"],
        "shed_batches": stats["batches_shed"],
        "shed_fraction": stats["samples_shed"] / offered,
        "samples_per_s": timed_samples / wall,
        "accounting_exact": True,
        "deterministic": True,
    }


def run_ragged_ingest(check: bool = False) -> Dict[str, Any]:
    """The full ragged-ingest suite; ``check`` shrinks every workload."""
    if check:
        identity = assert_gateway_identity(n_sessions=4, duration_s=12.0)
        headline = bench_ragged_vs_serial(
            n_sessions=16, duration_s=8.0, reps=1
        )
        shedding = bench_shedding(
            n_sessions=8, duration_s=8.0, capacity_s=4.0
        )
    else:
        identity = assert_gateway_identity()
        headline = bench_ragged_vs_serial()
        shedding = bench_shedding()
    return {
        "check_mode": check,
        "identity": identity,
        "ragged_vs_serial": headline,
        "shedding": shedding,
    }
