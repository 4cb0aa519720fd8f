"""Regenerate docs/API.md from the live package.

Usage:  python scripts/gen_api_reference.py
"""

import importlib
import inspect
import io
import pathlib

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
    "repro.serving.batch",
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


def main() -> None:
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

    target = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"
    target.write_text(out.getvalue())
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
