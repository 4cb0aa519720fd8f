"""Regenerate docs/API.md from the live package.

Usage:  python scripts/gen_api_reference.py [--check]

``--check`` writes nothing: it exits 1 when docs/API.md differs from
what the live package renders, so a public name that moves without a
regenerated reference fails the tier-1 suite.
"""

import argparse
import importlib
import inspect
import io
import pathlib
import sys

MODULES = [
    "repro",
    "repro.types",
    "repro.exceptions",
    "repro.signal",
    "repro.sensing",
    "repro.simulation",
    "repro.core",
    "repro.runtime",
    "repro.runtime.buffers",
    "repro.runtime.clock",
    "repro.faults",
    "repro.serving",
    "repro.serving.checkpoint",
    "repro.serving.gateway",
    "repro.serving.rebalance",
    "repro.profiles",
    "repro.telemetry",
    "repro.baselines",
    "repro.apps",
    "repro.eval",
    "repro.experiments",
    "repro.benchsuites",
]


TARGET = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"


def render() -> str:
    """The API reference of the live package, as Markdown."""
    out = io.StringIO()
    out.write("# API REFERENCE\n\n")
    out.write(
        "Auto-generated from the live package (first docstring line per\n"
        "public symbol). Regenerate with "
        "`python scripts/gen_api_reference.py`.\n\n"
        "Narrative guides: [performance.md](performance.md) for the\n"
        "runtime/serving layers, [robustness.md](robustness.md) for\n"
        "`repro.faults`, degraded-mode ingest, and self-healing\n"
        "serving, [observability.md](observability.md) for\n"
        "`repro.telemetry` metrics, tracing, and exporters.\n"
    )
    for modname in MODULES:
        mod = importlib.import_module(modname)
        out.write(f"\n## `{modname}`\n\n")
        doc = (mod.__doc__ or "").strip().splitlines()
        if doc:
            out.write(doc[0] + "\n\n")
        names = getattr(mod, "__all__", [])
        if not names:
            continue
        out.write("| symbol | kind | summary |\n| --- | --- | --- |\n")
        for name in sorted(names):
            obj = getattr(mod, name)
            if inspect.isclass(obj):
                kind = "class"
            elif inspect.isfunction(obj):
                kind = "function"
            elif inspect.ismodule(obj):
                kind = "module"
            else:
                kind = type(obj).__name__
            summary = ""
            docstring = inspect.getdoc(obj)
            if docstring:
                summary = docstring.strip().splitlines()[0]
            summary = summary.replace("|", "\\|")
            out.write(f"| `{name}` | {kind} | {summary} |\n")
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/API.md is stale instead of writing it",
    )
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        if TARGET.read_text() != text:
            print(
                f"{TARGET} is stale; regenerate it with "
                "`python scripts/gen_api_reference.py`"
            )
            return 1
        print(f"{TARGET} is up to date")
        return 0
    TARGET.write_text(text)
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
