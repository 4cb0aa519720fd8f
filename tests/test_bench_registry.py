"""The single benchmark-suite registry and its consumers.

``repro.benchsuites`` is the one place a suite's name and scoreboard
path live; ``scripts/bench.py`` and the ``repro bench`` CLI verb both
derive their ``--suite`` choices and default outputs from it. These
tests pin the registry's invariants and — the drift test — that both
consumers really do accept exactly the registry's choices, so adding a
suite in one place can never leave the other advertising a stale list.
"""

import importlib.util
import pathlib

import pytest

from repro.benchsuites import (
    DEFAULT_OUTPUTS,
    SUITE_CHOICES,
    SUITES,
    BenchSuite,
    default_output,
)
from repro.cli import build_parser

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_bench_script():
    spec = importlib.util.spec_from_file_location(
        "_bench_script_under_test", REPO_ROOT / "scripts" / "bench.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestRegistry:
    def test_suites_are_frozen_and_unique(self):
        names = [s.name for s in SUITES]
        assert len(names) == len(set(names))
        assert all(isinstance(s, BenchSuite) for s in SUITES)
        with pytest.raises(Exception):
            SUITES[0].name = "mutated"

    def test_choices_are_registry_plus_all(self):
        assert SUITE_CHOICES == tuple(s.name for s in SUITES) + ("all",)

    def test_every_suite_has_a_scoreboard(self):
        for suite in SUITES:
            assert suite.scoreboard.startswith("BENCH_")
            assert suite.scoreboard.endswith(".json")
            assert suite.title

    def test_default_outputs_cover_every_choice(self):
        assert set(DEFAULT_OUTPUTS) == set(SUITE_CHOICES) - {"all"}
        for suite in SUITES:
            assert DEFAULT_OUTPUTS[suite.name] == suite.scoreboard
            assert default_output(suite.name) == suite.scoreboard
        # "all" has no scoreboard of its own: each suite writes its own.
        with pytest.raises(KeyError):
            default_output("all")

    def test_scoreboards_are_distinct(self):
        # Two suites sharing a default file would overwrite each other.
        boards = [s.scoreboard for s in SUITES]
        assert len(boards) == len(set(boards))

    def test_pool_suite_registered(self):
        by_name = {s.name: s for s in SUITES}
        assert by_name["pool"].scoreboard == "BENCH_POOL.json"
        assert by_name["ragged-ingest"].scoreboard == "BENCH_GATEWAY.json"

    def test_default_output_rejects_unknown(self):
        with pytest.raises(KeyError):
            default_output("no-such-suite")

    def test_durability_suite_registered(self):
        by_name = {s.name: s for s in SUITES}
        assert by_name["durability"].scoreboard == "BENCH_PR9.json"

    def test_profile_store_suite_registered(self):
        by_name = {s.name: s for s in SUITES}
        assert by_name["profile-store"].scoreboard == "BENCH_PR10.json"


class TestConsumersDoNotDrift:
    def test_bench_script_accepts_every_registry_choice(self):
        parser = _load_bench_script().build_parser()
        for choice in SUITE_CHOICES:
            # Parse, don't run: drift shows up as argparse SystemExit.
            args = parser.parse_args(["--suite", choice, "--check"])
            assert args.suite == choice

    def test_bench_script_runs_every_registry_suite(self):
        runs = _load_bench_script().SUITE_RUNS
        assert list(runs) == [s.name for s in SUITES]

    def test_only_full_runs_write_default_scoreboards(
        self, monkeypatch, tmp_path
    ):
        bench = _load_bench_script()
        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        for name, (section, _run, _report) in list(bench.SUITE_RUNS.items()):
            monkeypatch.setitem(
                bench.SUITE_RUNS,
                name,
                (section, lambda args: {"check_mode": args.check}, bool),
            )
        # A smoke run never replaces a full-run scoreboard.
        assert bench.main(["--check"]) == 0
        assert list(tmp_path.iterdir()) == []
        # A full run of every suite writes each suite's own scoreboard.
        assert bench.main([]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(s.scoreboard for s in SUITES)

    def test_bench_script_rejects_unknown_suite(self):
        parser = _load_bench_script().build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--suite", "no-such-suite"])

    def test_cli_bench_verb_accepts_every_registry_choice(self):
        parser = build_parser()
        for choice in SUITE_CHOICES:
            args = parser.parse_args(["bench", "--suite", choice, "--check"])
            assert args.suite == choice

    def test_cli_bench_verb_rejects_unknown_suite(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "--suite", "no-such-suite"])
