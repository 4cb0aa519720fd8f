#!/usr/bin/env python
"""Run the tracked performance benchmarks and write the JSON scoreboard.

Usage::

    PYTHONPATH=src python scripts/bench.py                   # all suites
    PYTHONPATH=src python scripts/bench.py --check           # seconds-long smoke
    PYTHONPATH=src python scripts/bench.py --suite serving \
        --output BENCH_PR3.json

Suites:

* ``runtime`` — kernel scalar-vs-vectorised speedups, trace-cache
  cold/warm behaviour, and the macro replicate-study timings
  (the PR-1 scoreboard, ``BENCH_PR1.json``).
* ``serving`` — the amortised-append cost curve of the incremental
  streaming core and SessionPool fleet scaling (the PR-3 scoreboard,
  ``BENCH_PR3.json``).
* ``faulted-serving`` — degraded-mode ingest overhead on clean traces
  (tracked <5% budget, bit-identical credits) and self-healing fleet
  throughput over fault-injected workloads (the PR-4 scoreboard,
  ``BENCH_PR4.json``).
* ``telemetry`` — instrumentation overhead on the clean streaming
  path (tracked <5% budget, bit-identical credits) and shard/worker
  invariance of the merged fleet registry (the PR-5 scoreboard,
  ``BENCH_PR5.json``).
* ``fleet-batch`` — the fleet-batched pool against serial sessions
  (tracked >= 5x amortized µs/sample reduction at 1000 sessions),
  and the occupancy sweep — both gated on the
  ``serial == pooled == sharded`` crediting oracle (the PR-6
  scoreboard, ``BENCH_PR6.json``).
* ``ragged-ingest`` — the async ingest gateway under seeded ragged
  arrival schedules: sustained samples/s with serial sessions as
  the synchronized-arrival baseline (tracked <= 2x overhead), and the
  deterministic-shedding row under a mailbox flood — gated on the
  ``serial replay == gateway`` crediting oracle (the PR-7 scoreboard,
  ``BENCH_PR7.json``).
* ``fleet-kernels`` — the batched round kernels: 1000-session
  batched µs/sample against the tracked PR-6 batched baseline
  (tracked >= 1.5x improvement, <= 1.2 µs/sample), the 10-session
  small-fleet row against serial sessions, the check-scale
  pool-over-serial speedup gate, and the batched bounce solver —
  gated on the crediting oracle *and* a bitwise
  ``solve_bounce_block == solve_bounce`` differential sweep (the PR-8
  scoreboard, ``BENCH_PR8.json``).
* ``durability`` — the durable-session machinery: per-epoch
  checkpoint overhead on the 1000-session round (tracked <= 5%
  budget) and the restore-vs-reingest recovery speedup after a late
  crash — gated on the snapshot/restore resume oracle and the
  ``one-epoch fleet == checkpointed fleet`` crediting identity (the PR-9
  scoreboard, ``BENCH_PR9.json``).
* ``profile-store`` — the persistent profile subsystem: batched
  ``put_many`` ingest of a million-profile population, cold random
  ``get_many`` warm-load throughput, and the store-backed serve path
  against directly-passed profiles — gated on the incremental-vs-batch
  trainer equivalence oracle and the bit-identical warm-load crediting
  oracle (the PR-10 scoreboard, ``BENCH_PR10.json``).

The suite list and default scoreboard filenames live in
:mod:`repro.benchsuites`, shared with the ``repro bench`` CLI verb.
Every scoreboard is stamped with the schema version and the git
revision it was measured at, so checked-in numbers are traceable to
the exact tree that produced them. See ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

import bench_batch  # noqa: E402
import bench_durability  # noqa: E402
import bench_faults  # noqa: E402
import bench_gateway  # noqa: E402
import bench_kernels  # noqa: E402
import bench_profiles  # noqa: E402
import bench_runtime  # noqa: E402
import bench_serving  # noqa: E402
import bench_telemetry  # noqa: E402

from repro.benchsuites import DEFAULT_OUTPUTS, SUITE_CHOICES  # noqa: E402

BENCH_SCHEMA = "ptrack-bench-v2"


def git_revision() -> str:
    """The current commit hash, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    rev = out.stdout.strip()
    dirty = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "status", "--porcelain"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    if dirty.returncode == 0 and dirty.stdout.strip():
        rev += "-dirty"
    return rev


def _print_runtime(results) -> bool:
    kernels = results["kernels"]
    macro = results["macro"]
    for name, k in kernels.items():
        print(f"  kernel {name}: {k['speedup']:.1f}x")
    print(
        f"  macro: serial {macro['serial_s']:.2f}s, "
        f"cold {macro['runtime_cold_s']:.2f}s "
        f"({macro['speedup_cold']:.2f}x), "
        f"warm {macro['runtime_warm_s']:.4f}s "
        f"({macro['speedup_warm']:.1f}x), "
        f"identical={macro['identical_results']}"
    )
    if not macro["identical_results"]:
        print("ERROR: runtime results differ from the serial baseline")
        return False
    return True


def _print_serving(serving) -> bool:
    amort = serving["amortized_append"]
    print(
        f"  amortised append: wall spread {amort['wall_spread']:.2f}x "
        f"across cadences, work counters invariant: "
        f"{amort['work_counters_cadence_invariant']}"
    )
    fleet = serving["fleet_scaling"]
    for row in fleet["scaling"]:
        print(
            f"  fleet {row['sessions']:>4} sessions: "
            f"{row['samples_per_s']:,.0f} samples/s, "
            f"{row['real_time_factor']:.0f}x real time"
        )
    if not fleet["identity_serial_pooled_sharded"]:
        print("ERROR: pooled/sharded serving diverged from serial sessions")
        return False
    return True


def _print_faults(faults) -> bool:
    clean = faults["clean_overhead"]
    print(
        f"  clean-trace overhead ({clean['duration_s']:.0f}s trace): "
        f"{100 * clean['overhead_frac']:+.1f}% "
        f"(median of {clean['repeats']} pairs, "
        f"{100 * clean['overhead_min']:+.1f}%.."
        f"{100 * clean['overhead_max']:+.1f}%; "
        f"budget {100 * clean['overhead_budget']:.0f}%), "
        f"identical credits: {clean['identical_credits']}"
    )
    fleet = faults["faulted_fleet"]
    print(
        f"  faulted fleet ({fleet['n_sessions']} sessions): "
        f"{fleet['samples_per_s']:,.0f} samples/s, "
        f"{fleet['samples_repaired']} repaired, "
        f"{fleet['samples_rejected']} rejected, "
        f"{fleet['gaps_reset']} gap resets, status={fleet['status']}"
    )
    ok = True
    if not clean["overhead_ok"]:
        print("ERROR: degraded-mode ingest exceeds the clean-trace budget")
        ok = False
    if fleet["n_failed"]:
        print("ERROR: faulted fleet lost sessions on injectable faults")
        ok = False
    return ok


def _print_telemetry(telemetry) -> bool:
    overhead = telemetry["instrumented_overhead"]
    print(
        f"  instrumented overhead ({overhead['duration_s']:.0f}s trace): "
        f"{100 * overhead['overhead_frac']:+.1f}% "
        f"(median of {overhead['repeats']} pairs, "
        f"{100 * overhead['overhead_min']:+.1f}%.."
        f"{100 * overhead['overhead_max']:+.1f}%; "
        f"budget {100 * overhead['overhead_budget']:.0f}%), "
        f"identical credits: {overhead['identical_credits']}"
    )
    merge = telemetry["fleet_merge"]
    print(
        f"  fleet merge ({merge['n_sessions']} sessions): "
        f"{merge['merged_counters']} counters, "
        f"{merge['total_steps']} steps, "
        f"shard/worker invariant: {merge['counters_invariant']}"
    )
    ok = True
    if not overhead["overhead_ok"]:
        print("ERROR: telemetry instrumentation exceeds the overhead budget")
        ok = False
    if not merge["counters_invariant"]:
        print("ERROR: merged fleet counters depend on sharding")
        ok = False
    return ok


def _print_fleet_batch(fleet_batch) -> bool:
    identity = fleet_batch["identity"]
    print(
        f"  crediting oracle ({identity['n_sessions']} sessions, "
        f"{identity['compared_steps']} steps): {identity['oracle']}: "
        f"{identity['ok']}"
    )
    headline = fleet_batch["pool_vs_serial"]
    print(
        f"  pool vs serial ({headline['n_sessions']} sessions): "
        f"{headline['pool_us_per_sample']:.2f} vs "
        f"{headline['serial_us_per_sample']:.2f} us/sample "
        f"({headline['speedup']:.2f}x, target "
        f"{headline['target_speedup']:.1f}x)"
    )
    for row in fleet_batch["occupancy"]["rows"]:
        print(
            f"  occupancy {row['sessions']:>5} sessions: "
            f"{row['us_per_sample']:.2f} us/sample, "
            f"{row['samples_per_s']:,.0f} samples/s, "
            f"{row['real_time_factor']:.0f}x real time"
        )
    ok = True
    if not identity["ok"]:
        print("ERROR: batched serving diverged from the crediting oracle")
        ok = False
    if not fleet_batch["check_mode"] and not headline["speedup_ok"]:
        print("ERROR: fleet pool missed the tracked 5x target")
        ok = False
    return ok


def _print_fleet_kernels(fleet_kernels) -> bool:
    identity = fleet_kernels["identity"]
    print(
        f"  crediting oracle ({identity['n_sessions']} sessions, "
        f"{identity['compared_steps']} steps): {identity['oracle']}: "
        f"{identity['ok']}"
    )
    diff = fleet_kernels["bounce_differential"]
    print(
        f"  bounce differential ({diff['rows']} rows, "
        f"{diff['solved_rows']} solved / {diff['rejected_rows']} "
        f"rejected): {diff['oracle']}: {diff['ok']}"
    )
    headline = fleet_kernels["headline"]
    print(
        f"  headline ({headline['n_sessions']} sessions): "
        f"{headline['us_per_sample']:.3f} "
        f"us/sample vs tracked {headline['baseline_us_per_sample']:.3f} "
        f"({headline['improvement_x']:.2f}x, target "
        f"{headline['target_improvement_x']:.1f}x, abs target "
        f"{headline['target_us_per_sample']:.1f})"
    )
    small = fleet_kernels["small_fleet"]
    print(
        f"  small fleet ({small['n_sessions']} sessions): packed "
        f"{small['packed_us_per_sample']:.3f} vs serial "
        f"{small['serial_us_per_sample']:.3f} us/sample "
        f"({small['improvement_x']:.2f}x over tracked "
        f"{small['baseline_us_per_sample']:.3f})"
    )
    kernel = fleet_kernels["bounce_kernel"]
    print(
        f"  bounce kernel ({kernel['rows']} rows): block "
        f"{kernel['block_us_per_row']:.3f} vs scalar "
        f"{kernel['scalar_us_per_row']:.3f} us/row "
        f"({kernel['speedup']:.1f}x)"
    )
    regression = fleet_kernels["regression"]
    reading = (
        f", median of {fleet_kernels['check_reference']['pairs']} pairs "
        f"{regression['current_speedup']:.2f}x vs floor "
        f"{regression['floor_speedup']:.2f}x"
        if regression["status"] == "compared"
        else ""
    )
    print(
        f"  regression gate: {regression['status']} "
        f"(ok={regression['regression_ok']}{reading})"
    )
    ok = True
    if not identity["ok"] or not diff["ok"]:
        print("ERROR: kernel suite failed its identity oracles")
        ok = False
    if not fleet_kernels["check_mode"]:
        if not headline["improvement_ok"] or not headline["absolute_ok"]:
            print(
                "ERROR: kernel headline missed the tracked 1.5x / "
                "1.2 us/sample targets"
            )
            ok = False
    elif not regression["regression_ok"]:
        print(
            "ERROR: check-scale pool-over-serial speedup fell below "
            "its floor"
        )
        ok = False
    return ok


def _print_ragged_ingest(ragged) -> bool:
    identity = ragged["identity"]
    print(
        f"  crediting oracle ({identity['n_sessions']} sessions, "
        f"{identity['n_events']} uploads over {identity['n_ticks']} "
        f"ticks, skew {identity['max_seq_skew']}): {identity['oracle']}: "
        f"{identity['ok']}"
    )
    headline = ragged["ragged_vs_serial"]
    print(
        f"  ragged vs serial ({headline['n_sessions']} sessions): "
        f"gateway {headline['gateway_samples_per_s']:,.0f} samples/s "
        f"({headline['gateway_us_per_sample']:.2f} us/sample) vs "
        f"serial {headline['serial_samples_per_s']:,.0f} samples/s "
        f"({headline['overhead_x']:.2f}x overhead, target <= "
        f"{headline['target_overhead_x']:.1f}x)"
    )
    shed = ragged["shedding"]
    print(
        f"  shedding ({shed['n_sessions']} sessions, "
        f"{shed['capacity_s']:.0f}s mailboxes under flood): "
        f"{100 * shed['shed_fraction']:.1f}% shed "
        f"({shed['shed_samples']}/{shed['offered_samples']} samples), "
        f"exact accounting: {shed['accounting_exact']}, "
        f"deterministic: {shed['deterministic']}"
    )
    ok = True
    if not identity["ok"]:
        print("ERROR: gateway diverged from the serial-replay oracle")
        ok = False
    if not ragged["check_mode"] and not headline["overhead_ok"]:
        print("ERROR: gateway overhead exceeded the tracked 2x bound")
        ok = False
    if not shed["accounting_exact"] or not shed["deterministic"]:
        print("ERROR: shed accounting is not exactly-once deterministic")
        ok = False
    return ok


def _print_durability(durability) -> bool:
    identity = durability["identity"]
    print(
        f"  resume oracle ({identity['n_sessions']} sessions, cuts at "
        f"ticks {identity['cut_ticks']}, {identity['compared_steps']} "
        f"steps): {identity['ok']}"
    )
    overhead = durability["checkpoint_overhead"]
    print(
        f"  checkpoint overhead ({overhead['n_sessions']} sessions, "
        f"every {overhead['checkpoint_every_s']:.0f}s): "
        f"{100 * overhead['overhead_frac']:+.1f}% "
        f"(budget {100 * overhead['overhead_budget']:.0f}%), "
        f"{overhead['samples_per_s']:,.0f} samples/s"
    )
    recovery = durability["recovery"]
    print(
        f"  recovery ({recovery['n_sessions']} sessions, crash at "
        f"{100 * recovery['crash_frac']:.0f}% of a "
        f"{recovery['duration_s']:.0f}s stream): restore "
        f"{recovery['restore_s']:.2f}s vs re-ingest "
        f"{recovery['reingest_s']:.2f}s ({recovery['speedup']:.1f}x)"
    )
    ok = True
    if not identity["ok"]:
        print("ERROR: durable serving failed the resume oracle")
        ok = False
    if not durability["check_mode"] and not overhead["overhead_ok"]:
        print("ERROR: checkpointing exceeds the 5% overhead budget")
        ok = False
    return ok


def _print_profiles(profiles) -> bool:
    equivalence = profiles["equivalence"]
    print(
        f"  trainer oracle ({equivalence['n_users']} users, "
        f"{equivalence['profiles_compared']} chunked/shuffled variants): "
        f"{equivalence['ok']}"
    )
    population = profiles["population"]
    print(
        f"  population ({population['n_profiles']:,} profiles, "
        f"{population['populated_shards']} shards): "
        f"{population['puts_per_s']:,.0f} puts/s, cold "
        f"{population['cold_gets_per_s']:,.0f} gets/s "
        f"({population['cold_sample']:,} sampled)"
    )
    warm = profiles["warm_load"]
    print(
        f"  warm-load serving ({warm['n_sessions']} sessions, "
        f"{warm['profiles_loaded']} loaded): "
        f"{100 * warm['overhead_frac']:+.1f}% vs direct profiles, "
        f"credits identical: {warm['identity_ok']}"
    )
    ok = True
    if not equivalence["ok"]:
        print("ERROR: incremental trainer diverged from the batch solve")
        ok = False
    if not warm["identity_ok"]:
        print("ERROR: store-backed serving diverged from direct profiles")
        ok = False
    return ok


def build_parser() -> argparse.ArgumentParser:
    """The driver's argument parser (exposed for the drift tests)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="smoke mode: tiny workloads, finishes in seconds",
    )
    parser.add_argument(
        "--suite",
        choices=SUITE_CHOICES,
        default="all",
        help="which benchmark suites to run",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="where to write the JSON scoreboard (default: the suite's "
        "scoreboard from repro.benchsuites, e.g. "
        + ", ".join(
            f"{name}: {out}" for name, out in DEFAULT_OUTPUTS.items()
        )
        + ")",
    )
    parser.add_argument("--seeds", type=int, default=6, help="macro replicates")
    parser.add_argument("--users", type=int, default=2, help="users per replicate")
    parser.add_argument(
        "--duration", type=float, default=30.0, help="walk seconds per trace"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the runtime passes (0 = all cores)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    output = args.output
    if output is None:
        output = REPO_ROOT / DEFAULT_OUTPUTS[args.suite]

    ok = True
    results = {"schema": BENCH_SCHEMA, "git_revision": git_revision()}
    if args.suite in ("runtime", "all"):
        runtime = bench_runtime.run_all(
            n_seeds=args.seeds,
            n_users=args.users,
            duration_s=args.duration,
            workers=args.workers,
            check=args.check,
        )
        # The runtime sections stay top-level for scoreboard-schema
        # compatibility with the PR-1 consumers.
        runtime["schema"] = BENCH_SCHEMA
        results.update(runtime)
    if args.suite in ("serving", "all"):
        results["check_mode"] = args.check
        results["serving"] = bench_serving.run_serving(check=args.check)
    if args.suite in ("faulted-serving", "all"):
        results["check_mode"] = args.check
        results["faults"] = bench_faults.run_faults(check=args.check)
    if args.suite in ("telemetry", "all"):
        results["check_mode"] = args.check
        results["telemetry"] = bench_telemetry.run_telemetry(check=args.check)
    if args.suite in ("fleet-batch", "all"):
        results["check_mode"] = args.check
        results["fleet_batch"] = bench_batch.run_fleet_batch(check=args.check)
    if args.suite in ("ragged-ingest", "all"):
        results["check_mode"] = args.check
        results["ragged_ingest"] = bench_gateway.run_ragged_ingest(
            check=args.check
        )
    if args.suite in ("fleet-kernels", "all"):
        results["check_mode"] = args.check
        results["fleet_kernels"] = bench_kernels.run_fleet_kernels(
            check=args.check
        )
    if args.suite in ("durability", "all"):
        results["check_mode"] = args.check
        results["durability"] = bench_durability.run_durability(
            check=args.check
        )
    if args.suite in ("profile-store", "all"):
        results["check_mode"] = args.check
        results["profiles"] = bench_profiles.run_profiles(check=args.check)

    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output} (rev {results['git_revision']})")
    if args.suite in ("runtime", "all"):
        ok = _print_runtime(results) and ok
    if args.suite in ("serving", "all"):
        ok = _print_serving(results["serving"]) and ok
    if args.suite in ("faulted-serving", "all"):
        ok = _print_faults(results["faults"]) and ok
    if args.suite in ("telemetry", "all"):
        ok = _print_telemetry(results["telemetry"]) and ok
    if args.suite in ("fleet-batch", "all"):
        ok = _print_fleet_batch(results["fleet_batch"]) and ok
    if args.suite in ("ragged-ingest", "all"):
        ok = _print_ragged_ingest(results["ragged_ingest"]) and ok
    if args.suite in ("fleet-kernels", "all"):
        ok = _print_fleet_kernels(results["fleet_kernels"]) and ok
    if args.suite in ("durability", "all"):
        ok = _print_durability(results["durability"]) and ok
    if args.suite in ("profile-store", "all"):
        ok = _print_profiles(results["profiles"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
