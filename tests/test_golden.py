"""The decoders reproduce the committed decode golden file byte for byte."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def _make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decode_golden_reproduced():
    mf = _make_fixtures()
    expected = mf.GOLDEN_PATH.read_text(encoding="utf-8")
    got = mf.decode_golden_text()
    assert got.splitlines() == expected.splitlines()
    assert got == expected
