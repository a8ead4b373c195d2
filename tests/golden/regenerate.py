"""Rewrite the golden reports in this directory from the current checkout.

    python tests/golden/regenerate.py

Each file holds the stdout of one command line, run in process from this
directory, with the ``duration_s`` line removed: the wall clock is the one
field outside the determinism surface.  Running here lets a line name the
one input file, INPUT, by a relative path, so no report's ``command`` holds
the checkout's location.  ``tests/test_golden.py`` runs the same lines and
compares bytes.  The script rewrites only the files whose report changed
and prints every changed line, so a change that moves a value regenerates
the files in the same commit and lists every moved field in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# |0>|->: the uniform start's contraction vanishes on it.
INPUT = "zero-minus.json"

STATES = ["bell", "ghz:4", "w:5", "random:2,3,2:9", "basis:2,2:1", "product-random:2,2,2:3"]
DENSITIES = ["random-rank:3:2,2,2:4", "maximally-mixed:2,2", "pure:random:2,2,2:5"]
MEASURES = ["pmax", "groverian", "grover-success", "pmax-gap"]


def _slug(spec: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", spec)


GOLDEN = {
    "verify-all-seed-7.txt": ["verify", "--suite", "all", "--seed", "7"],
    "verify-all-seed-11.txt": ["verify", "--suite", "all", "--seed", "11"],
    **{f"pmax-{_slug(s)}.json": ["pmax", "--state", s] for s in STATES},
    **{f"groverian-{_slug(s)}.json": ["groverian", "--state", s] for s in STATES},
    **{f"groverian-mixed-{_slug(s)}.json": ["groverian", "--mixed", s] for s in DENSITIES},
    "grover-random-2-2-2-2-5.json": ["grover", "--state", "random:2,2,2,2:5", "--marked", "3,12"],
    **{f"sweep-{m}.json": ["sweep", "--measure", m, "--sites", "2:5"] for m in MEASURES},
    "sweep-pmax-w.csv": [
        "sweep", "--measure", "pmax", "--family", "w", "--sites", "2:5", "--output", "csv"
    ],
    # the vanished uniform row climbs again from the basis product
    "pmax-zero-minus.json": ["pmax", "--state", INPUT, "--restarts", "1"],
    # the row vanishes on its last sweep, so the basis floor runs as restart 2
    "pmax-zero-minus-one-sweep.json": [
        "pmax", "--state", INPUT, "--restarts", "1", "--max-sweeps", "1"
    ],
}


def report(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of ``groverian argv`` run in this directory,
    without ``duration_s``."""
    from groverian.cli import main

    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    lines = out.getvalue().splitlines(keepends=True)
    return code, "".join(line for line in lines if not line.startswith('  "duration_s": '))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    for name, argv in GOLDEN.items():
        code, text = report(argv)
        path = HERE / name
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        if text == old:
            continue
        path.write_text(text, encoding="utf-8")
        print(f"{name}: exit {code}, {len(text)} bytes")
        diff = difflib.unified_diff(old.splitlines(), text.splitlines(), name, name, n=0, lineterm="")
        for line in list(diff)[2:]:
            print(line)
