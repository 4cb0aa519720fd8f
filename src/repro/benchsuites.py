"""Single source of truth for the tracked benchmark suites.

``scripts/bench.py`` (the measurement driver) and ``repro bench`` (the
installed CLI verb) both expose a ``--suite`` flag. Before this module
existed the list of valid suites and their default scoreboard files
were duplicated in both places and drifted apart exactly once per new
suite; now both derive their choices from :data:`SUITES`, and
``tests/test_bench_registry.py`` pins the wiring so a suite added here
is automatically runnable (and a suite added anywhere else is a test
failure).

The registry is deliberately dependency-free — the CLI imports it at
parse time, so it must not pull in NumPy-heavy benchmark modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "BenchSuite",
    "SUITES",
    "SUITE_CHOICES",
    "DEFAULT_OUTPUTS",
    "default_output",
]


@dataclass(frozen=True)
class BenchSuite:
    """One tracked benchmark suite.

    Attributes:
        name: The ``--suite`` choice string.
        scoreboard: Default JSON scoreboard filename (repo root).
        title: One-line description for ``--help`` and docs.
    """

    name: str
    scoreboard: str
    title: str


#: Every tracked suite, in the order ``--suite all`` runs them. Each
#: writes its own scoreboard, one its code regenerates in full; the
#: ``BENCH_PR*.json`` files no suite writes (3, 6, 7, 8) are history.
SUITES: Tuple[BenchSuite, ...] = (
    BenchSuite(
        "runtime",
        "BENCH_PR1.json",
        "kernel speedups, trace cache, and macro replicate-study timings",
    ),
    BenchSuite(
        "pool",
        "BENCH_POOL.json",
        "SessionPool vs serial sessions, occupancy sweep, bounce kernel",
    ),
    BenchSuite(
        "faulted-serving",
        "BENCH_PR4.json",
        "degraded-mode ingest overhead and self-healing fleet throughput",
    ),
    BenchSuite(
        "telemetry",
        "BENCH_PR5.json",
        "instrumentation overhead and fleet registry merge invariance",
    ),
    BenchSuite(
        "ragged-ingest",
        "BENCH_GATEWAY.json",
        "async ingest gateway under ragged arrivals with shedding",
    ),
    BenchSuite(
        "durability",
        "BENCH_PR9.json",
        "checkpoint overhead, restore-vs-reingest recovery, resume oracle",
    ),
    BenchSuite(
        "profile-store",
        "BENCH_PR10.json",
        "population-scale profile store ingest, cold warm-load, trainer oracle",
    ),
)

#: Valid ``--suite`` values: every registered suite plus ``all``.
SUITE_CHOICES: Tuple[str, ...] = tuple(s.name for s in SUITES) + ("all",)

#: Default scoreboard per suite. ``all`` has none of its own: with no
#: ``--output`` each suite it runs writes its own scoreboard.
DEFAULT_OUTPUTS: Dict[str, str] = {s.name: s.scoreboard for s in SUITES}


def default_output(suite: str) -> str:
    """The default scoreboard filename of a registered suite.

    Raises:
        KeyError: On ``all`` or a name not in :data:`SUITES`.
    """
    return DEFAULT_OUTPUTS[suite]
