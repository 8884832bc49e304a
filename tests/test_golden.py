"""The decoders and transition systems reproduce the committed golden files
byte for byte, and the library still exposes what the benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _make_fixtures():
    return _load(ROOT / "scripts" / "make_fixtures.py")


def _assert_reproduced(path: Path, got: str) -> None:
    expected = path.read_text(encoding="utf-8")
    assert got.splitlines() == expected.splitlines()
    assert got == expected


def test_decode_golden_reproduced():
    mf = _make_fixtures()
    _assert_reproduced(mf.GOLDEN_PATH, mf.decode_golden_text())


def test_transition_golden_reproduced():
    mf = _make_fixtures()
    _assert_reproduced(mf.TRANSITION_GOLDEN_PATH, mf.transition_golden_text())


def test_make_fixtures_help_and_unknown_options(tmp_path, monkeypatch, capsys):
    """-h/--help prints the docstring; any other option but a leading
    --golden is a usage error, and neither writes a file."""
    mf = _make_fixtures()
    monkeypatch.chdir(tmp_path)
    for argv in (["-h"], ["--help"], ["out", "--help"]):
        assert mf.main(argv) == 0
        assert capsys.readouterr().out == mf.__doc__.strip() + "\n"
    for argv, bad in ((["-x"], "-x"), (["--golden", "--verbose"], "--verbose"),
                      (["out", "--golden"], "--golden"), (["--out", "d"], "--out")):
        assert mf.main(argv) == 2
        assert capsys.readouterr().err == f"{mf.USAGE}\nerror: unknown option {bad!r}\n"
    assert not list(tmp_path.iterdir())


def test_perfbench_wrapped_attributes_resolve():
    """perfbench/spans.py replaces these module attributes in its traced run."""
    spans = _load(ROOT / "perfbench" / "spans.py")
    for module_name, attr, _, _ in spans.WRAPPED:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
