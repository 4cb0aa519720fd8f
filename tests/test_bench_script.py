"""Smoke tests for the tracked benchmark harness (scripts/bench.py)."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.benchsuites import SUITE_CHOICES, SUITES

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_suite(tmp_path_factory):
    """``--suite <name> --check``, one run per suite shared by the module.

    Each suite gets its own run, so a suite whose gate fails fails only
    the assertions that read it, not every test in this file.
    """
    runs = {}

    def run(suite):
        if suite not in runs:
            out = tmp_path_factory.mktemp("bench") / f"{suite}.json"
            proc = subprocess.run(
                [sys.executable, str(REPO_ROOT / "scripts" / "bench.py"),
                 "--suite", suite, "--check", "--output", str(out)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            runs[suite] = (proc, out)
        proc, out = runs[suite]
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return json.loads(out.read_text())

    return run


@pytest.fixture(scope="module")
def check_results(check_suite):
    """The runtime suite's sections (top-level in its scoreboard)."""
    return check_suite("runtime")


# Suites folded into `pool`: their oracles and gates run in its check.
FOLDED_INTO_POOL = ("serving", "fleet-batch", "fleet-kernels")


@pytest.mark.parametrize(
    "suite",
    [name for name in SUITE_CHOICES if name != "all"] + list(FOLDED_INTO_POOL),
)
def test_every_suite_check_passes(check_suite, suite):
    # Every suite `--suite all --check` covers passes its own gates.
    name = "pool" if suite in FOLDED_INTO_POOL else suite
    assert check_suite(name)["schema"] == "ptrack-bench-v2"


def test_check_mode_reports_all_sections(check_results):
    assert check_results["check_mode"] is True
    assert set(check_results) >= {
        "schema",
        "platform",
        "parallel",
        "kernels",
        "trace_cache",
        "macro",
    }


def test_kernel_sections_complete(check_results):
    kernels = check_results["kernels"]
    assert set(kernels) == {"zero_crossings", "offset_matching", "best_lag"}
    for section in kernels.values():
        assert section["scalar_s"] > 0 and section["vectorized_s"] > 0
        assert section["speedup"] == pytest.approx(
            section["scalar_s"] / section["vectorized_s"]
        )


def test_macro_results_identical_across_modes(check_results):
    macro = check_results["macro"]
    assert macro["identical_results"] is True
    assert macro["cache_misses"] == macro["n_seeds"]
    assert macro["cache_hits"] == macro["n_seeds"]


def test_parallel_pool_roundtrip(check_results):
    assert check_results["parallel"]["pool_roundtrip_ok"] is True
    assert check_results["parallel"]["available_workers"] >= 1


def test_checked_in_scoreboard_is_current_schema():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR1.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v1"
    macro = scoreboard["macro"]
    assert macro["identical_results"] is True
    # The acceptance headline: the warm (memoized) study re-run beats
    # the seed-style serial loop by well over 3x.
    assert macro["speedup_warm"] >= 3.0


def test_revision_and_schema_stamped(check_results):
    assert check_results["schema"] == "ptrack-bench-v2"
    rev = check_results["git_revision"]
    assert rev == "unknown" or len(rev.split("-")[0]) == 40


def test_telemetry_sections_complete(check_suite):
    telemetry = check_suite("telemetry")["telemetry"]
    assert set(telemetry) == {"instrumented_overhead", "fleet_merge"}
    overhead = telemetry["instrumented_overhead"]
    assert overhead["identical_credits"] is True
    assert overhead["plain_s"] > 0 and overhead["instrumented_s"] > 0
    merge = telemetry["fleet_merge"]
    assert merge["counters_invariant"] is True
    assert merge["total_steps"] > 0


def test_pr5_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR5.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    telemetry = scoreboard["telemetry"]
    # Acceptance headline: telemetry on the clean streaming path stays
    # under the 5% budget with bit-identical credits, and the merged
    # fleet counters are shard/worker invariant.
    overhead = telemetry["instrumented_overhead"]
    assert overhead["duration_s"] >= 300.0
    assert overhead["identical_credits"] is True
    assert overhead["overhead_ok"] is True
    assert overhead["overhead_frac"] < 0.05
    merge = telemetry["fleet_merge"]
    assert merge["counters_invariant"] is True


def test_pr3_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR3.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    serving = scoreboard["serving"]
    # Acceptance headline: >= 5x single-session streaming throughput
    # over the pre-PR reprocessing driver on a 10-minute trace.
    single = serving["single_session"]
    assert single["duration_s"] >= 600.0
    assert single["headline_speedup"] >= 5.0
    # Near-flat amortised per-append cost across an 8x cadence sweep.
    amort = serving["amortized_append"]
    assert amort["work_counters_cadence_invariant"] is True
    assert amort["wall_spread"] <= 2.5
    # Fleet scaling reaches 1000 sessions with identity asserted.
    fleet = serving["fleet_scaling"]
    assert fleet["max_sessions"] >= 1000
    assert fleet["identity_serial_pooled_sharded"] is True


def test_pr6_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR6.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    fleet_batch = scoreboard["fleet_batch"]
    # Acceptance headline: the batched fleet driver cuts amortised
    # ingest cost >= 5x vs the lockstep pool at 1000 sessions, with the
    # serial == pooled == sharded == batched crediting oracle intact.
    assert fleet_batch["identity"]["ok"] is True
    headline = fleet_batch["batched_vs_lockstep"]
    assert headline["n_sessions"] >= 1000
    assert headline["speedup"] >= 5.0
    assert headline["speedup_ok"] is True
    # The occupancy sweep reaches 10000 concurrent sessions.
    assert max(r["sessions"] for r in fleet_batch["occupancy"]["rows"]) >= 10000
    # The recorded NumPy row was bit-identical to the serial replay.
    statuses = {r["backend"]: r["status"] for r in fleet_batch["backends"]["rows"]}
    assert statuses["numpy"] == "bit_identical"


def test_ragged_ingest_sections_complete(check_suite):
    ragged = check_suite("ragged-ingest")["ragged_ingest"]
    assert set(ragged) == {
        "check_mode",
        "identity",
        "ragged_vs_serial",
        "shedding",
    }
    assert ragged["identity"]["ok"] is True
    headline = ragged["ragged_vs_serial"]
    assert headline["gateway_us_per_sample"] > 0
    assert headline["serial_us_per_sample"] > 0
    assert headline["gateway_samples_per_s"] > 0
    shed = ragged["shedding"]
    assert shed["accounting_exact"] is True
    assert shed["deterministic"] is True
    assert (
        shed["accepted_samples"] + shed["shed_samples"]
        == shed["offered_samples"]
    )


def test_pr7_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR7.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    ragged = scoreboard["ragged_ingest"]
    # Acceptance headline: gateway credits survive the serial-replay
    # oracle on a ragged schedule, sustained samples/s is recorded with
    # the lockstep pool as baseline and stays within the tracked 2x
    # overhead bound, and shedding is exactly-once deterministic.
    assert ragged["identity"]["ok"] is True
    headline = ragged["ragged_vs_lockstep"]
    assert headline["n_sessions"] >= 100
    assert headline["gateway_samples_per_s"] > 0
    assert headline["lockstep_samples_per_s"] > 0
    assert headline["overhead_ok"] is True
    assert headline["overhead_x"] <= headline["target_overhead_x"]
    shed = ragged["shedding"]
    assert shed["shed_samples"] > 0
    assert shed["accounting_exact"] is True
    assert shed["deterministic"] is True


def test_pool_sections_complete(check_suite):
    pool = check_suite("pool")["pool"]
    assert set(pool) == {
        "check_mode",
        "identity",
        "bounce_differential",
        "amortized_append",
        "pool_vs_serial",
        "occupancy",
        "bounce_kernel",
        "check_reference",
    }
    identity = pool["identity"]
    assert identity["ok"] is True
    assert identity["oracle"] == "serial == pooled == sharded"
    assert identity["batch_samples"] == [50, 256]


def test_serving_sections_complete(check_suite):
    # What the folded `serving` suite reported, now in the pool suite.
    pool = check_suite("pool")["pool"]
    assert pool["identity"]["ok"] is True
    assert pool["amortized_append"]["work_counters_cadence_invariant"] is True
    assert all(r["samples_per_s"] > 0 for r in pool["occupancy"]["rows"])


def test_fleet_batch_sections_complete(check_suite):
    # What the folded `fleet-batch` suite reported, now in the pool suite.
    pool = check_suite("pool")["pool"]
    assert pool["identity"]["ok"] is True
    headline = pool["pool_vs_serial"]
    assert headline["pool_us_per_sample"] > 0
    assert headline["serial_us_per_sample"] > 0
    assert all(r["samples_per_s"] > 0 for r in pool["occupancy"]["rows"])


def test_fleet_kernels_sections_complete(check_suite):
    # What the folded `fleet-kernels` suite reported, now in the pool suite.
    pool = check_suite("pool")["pool"]
    assert pool["identity"]["ok"] is True
    diff = pool["bounce_differential"]
    assert diff["ok"] is True
    assert diff["solved_rows"] + diff["rejected_rows"] == diff["rows"]
    assert pool["pool_vs_serial"]["pool_us_per_sample"] > 0
    small = next(r for r in pool["occupancy"]["rows"] if "serial_us_per_sample" in r)
    assert small["sessions"] == 10
    assert small["us_per_sample"] > 0 and small["serial_us_per_sample"] > 0
    assert pool["bounce_kernel"]["block_us_per_row"] > 0
    gate = pool["check_reference"]
    assert gate["speedup"] > 0
    assert gate["floor_speedup"] >= 3.0
    assert gate["regression_ok"] is True


def _fields(node, prefix=""):
    """Every key path in a scoreboard; list items share one path."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            yield path
            yield from _fields(value, path)
    elif isinstance(node, list):
        for item in node:
            yield from _fields(item, prefix + "[]")


@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.name)
def test_default_scoreboard_is_regenerable(check_suite, suite):
    # A suite's default output must be a file its code writes: a fresh
    # --check run carries every section and field of the committed one.
    committed = json.loads((REPO_ROOT / suite.scoreboard).read_text())
    fresh = set(_fields(check_suite(suite.name)))
    assert sorted(set(_fields(committed)) - fresh) == []


def test_pr8_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR8.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    kernels = scoreboard["fleet_kernels"]
    # Acceptance: crediting oracle + brentq bit-identity differential
    # asserted before timing, and the 1000-session NumPy headline beats
    # the tracked PR-6 batched row by >= 1.5x at <= 1.2 µs/sample.
    assert kernels["identity"]["ok"] is True
    diff = kernels["bounce_differential"]
    assert diff["ok"] is True and diff["rows"] >= 10_000
    headline = kernels["headline"]
    assert headline["n_sessions"] >= 1000
    assert headline["improvement_x"] >= headline["target_improvement_x"]
    assert headline["improvement_ok"] is True
    assert headline["absolute_ok"] is True
    # The small-fleet measurement justifying SMALL_FLEET_CUTOFF = 0.
    assert kernels["small_fleet"]["packed_beats_scalar"] is True
    # The check-scale reference CI's regression gate compares against.
    assert kernels["check_reference"]["speedup"] > 1.0


def test_cli_bench_verb_wiring():
    # The installed-package entry point: `repro bench` forwards to the
    # scripts/bench.py driver (exercised directly by the fixture above).
    from repro import cli

    parser = cli.build_parser()
    args = parser.parse_args(["bench", "--suite", "pool", "--check"])
    assert args.func is cli._cmd_bench
    assert args.suite == "pool"
    assert args.check is True
    args = parser.parse_args(["bench", "--suite", "ragged-ingest", "--check"])
    assert args.suite == "ragged-ingest"
