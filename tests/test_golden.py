"""Stored reports: each golden command line reproduces its file byte for byte.

The files in ``tests/golden/`` are rewritten by
``python tests/golden/regenerate.py``; a change that moves a value
regenerates them and lists every moved field in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", sorted(golden.GOLDEN))
def test_report_matches_golden_bytes(name):
    code, text = golden.report(golden.GOLDEN[name])
    assert code == 0
    assert text == (golden.HERE / name).read_text(encoding="utf-8")
