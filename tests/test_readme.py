"""The README's examples run as written and give the values its comments state,
so an edit that lets the README drift from the program fails here."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from groverian.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# The README's CLI lines whose comment states a value: the report field that
# holds it, and the value as the comment writes it, to six decimals.
CLI_VALUES = {
    "pmax --state w:3": ("value", "0.444444"),
    "groverian --state ghz:3": ("groverian", "0.707107"),
    "groverian --mixed maximally-mixed:2,2": ("groverian", "0.866025"),
}


def code_block(heading: str) -> str:
    """The first fenced block after the line ``heading``."""
    section = README[README.index("\n" + heading + "\n") :]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def cli_lines() -> list[str]:
    return [line for line in code_block("## CLI").splitlines() if line.startswith("groverian ")]


def test_cli_section_lists_six_commands():
    lines = cli_lines()
    assert len(lines) == 6
    assert set(CLI_VALUES) <= {" ".join(shlex.split(line, comments=True)[1:]) for line in lines}


@pytest.mark.parametrize("line", cli_lines(), ids=lambda line: " ".join(line.split("#")[0].split()[1:3]))
def test_cli_line_runs(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    key, comment = " ".join(argv), line.partition("#")[2]
    assert (key in CLI_VALUES) == bool(re.search(r"\d", comment))  # every stated value is checked
    if key in CLI_VALUES:
        field, text = CLI_VALUES[key]
        assert text in comment
        report = json.loads(out[out.index("{\n") :])
        assert f"{report['results'][field]:.6f}" == text


def test_quick_tour(capsys):
    tour = code_block("## Library quick tour")
    namespace = {}
    exec(tour, namespace)
    printed = float(capsys.readouterr().out)
    assert "# ~0.945 for N=8, r=1" in tour
    assert round(printed, 3) == 0.945 and printed == namespace["run"].prob_curve[-1]
    assert "# Schmidt closed form: 0.5" in tour
    assert abs(namespace["exact"] - 0.5) <= 1e-14
    assert "# sqrt(3)/2 on a separable state" in tour
    mixed = namespace["gv"].groverian_mixed(namespace["rho"]).groverian
    assert abs(mixed - math.sqrt(3) / 2) <= 1e-12
