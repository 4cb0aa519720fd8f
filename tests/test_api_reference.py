"""docs/API.md must match what the live package renders."""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "_gen_api_reference_under_test",
        REPO_ROOT / "scripts" / "gen_api_reference.py",
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_api_reference_is_current(capsys):
    gen = _load_generator()
    assert gen.main(["--check"]) == 0, capsys.readouterr().out


def test_check_flags_a_stale_reference(tmp_path, capsys):
    gen = _load_generator()
    gen.TARGET = tmp_path / "API.md"
    gen.TARGET.write_text(gen.render() + "| `gone` | function | stale |\n")
    assert gen.main(["--check"]) == 1
    assert "stale" in capsys.readouterr().out
    assert gen.main([]) == 0
    assert gen.main(["--check"]) == 0
