"""The decoders and transition systems reproduce the committed golden files
byte for byte."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def _make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
