"""Rewrite the golden reports in this directory from the current checkout.

    python tests/golden/regenerate.py

Each file holds the stdout of one command line, run in process, with the
``duration_s`` line removed: the wall clock is the one field outside the
determinism surface.  ``tests/test_golden.py`` runs the same lines and
compares bytes.  A change that moves a value regenerates the files in the
same commit and lists every moved field in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

GOLDEN = {
    "verify-all-seed-7.txt": ["verify", "--suite", "all", "--seed", "7"],
    "verify-all-seed-11.txt": ["verify", "--suite", "all", "--seed", "11"],
}


def report(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of ``groverian argv``, without ``duration_s``."""
    from groverian.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = out.getvalue().splitlines(keepends=True)
    return code, "".join(line for line in lines if not line.startswith('  "duration_s": '))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    for name, argv in GOLDEN.items():
        code, text = report(argv)
        (HERE / name).write_text(text, encoding="utf-8")
        print(f"{name}: exit {code}, {len(text)} bytes")
