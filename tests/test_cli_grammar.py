"""The CLI contract, driven by argv drawn from the CLI grammar: every command
line ends in exit 0, 2 or 3, with no traceback and no ``null`` number, a
JSON report of exit 0 keeps every field of known range inside it, and a
refused one allocates less than 1 MiB on its way to exit 2."""

import contextlib
import io
import itertools
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from groverian.cli import main
from groverian.errors import GroverianError
from groverian.families import SWEEP_FAMILIES, _state_family, integer, real

# Edge integers, then spellings that are not ASCII digits with an optional
# minus sign: Arabic-Indic and fullwidth three, a plus sign, a separator and
# a leading space.
INTEGERS = ["-1", "0", "1", "2", str(2**30 - 1), str(2**30 + 1), str(10**20)]
INTEGERS += ["\u0663", "\uff13", "+2", "1_0", " 2"]
REALS = ["0", "-1e-9", "1e400", "nan", "\u0661e-9", " 1e-9"]
STATE_FAMILIES = ["bell", "ghz", "w", "uniform", "basis", "random", "product-random"]
MEASURES = ["pmax", "groverian", "grover-success", "pmax-gap"]
# Valid registers stay at most 3^4 = 81 amplitudes; an edge value as a site
# dimension is refused, or caught by ``_amplitudes``.
MAX_AMPLITUDES = 2**12
BUDGET = 2**20
# Upper ends of the report fields whose range is [0, top]: P_max, the
# optimizer's value and every restart's, each P(k) and G in [0, 1], E in
# [0, 2].  A sweep row's ``value`` column is P_max, G, a success
# probability or |f(P) - P|, all in [0, 1].
RANGES = {"pmax": 1.0, "value": 1.0, "best_per_restart": 1.0, "P": 1.0,
          "final_probability": 1.0, "groverian": 1.0, "vedral_e": 2.0}


def _amplitudes(spec):
    """The amplitude count of the register a state spec names, or 0 when the
    spec is refused before its state is built."""
    try:
        family = _state_family(spec)
    except (GroverianError, ValueError):
        return 0
    return 0 if family is None else family[0].total


def _value(read, text):
    """``text`` read by the CLI's own number reader, or None if it refuses."""
    try:
        return read(text)
    except ValueError:
        return None


@st.composite
def command_lines(draw):
    """One argv of the CLI grammar.  Each number is a small valid value,
    except the ``wild``-th, which is an edge value; with ``wild`` -1 every
    number is."""
    wild, index = draw(st.integers(-1, 8)), itertools.count()

    def number(*valid, edges=INTEGERS):
        return draw(st.sampled_from(edges if wild in (-1, next(index)) else valid))

    def dims():
        return ",".join(number("2", "3") for _ in range(draw(st.integers(1, 4))))

    def state_spec():
        name = draw(st.sampled_from(STATE_FAMILIES))
        if name == "bell":
            return name
        if name in ("ghz", "w"):
            return f"{name}:{number('2', '3', '4')}"
        if name == "uniform":
            return f"uniform:{dims()}"
        return f"{name}:{dims()}:{number('0', '1')}"

    def density_spec():
        name = draw(st.sampled_from(["maximally-mixed", "pure", "random-rank"]))
        if name == "maximally-mixed":
            return f"maximally-mixed:{dims()}"
        if name == "pure":
            return f"pure:{state_spec()}"
        return f"random-rank:{number('1', '2')}:{dims()}:{number('0', '5')}"

    command = draw(st.sampled_from(["pmax", "groverian", "grover", "verify", "sweep"]))
    argv, state = [command], None
    if command in ("pmax", "grover") or (command == "groverian" and draw(st.booleans())):
        state = state_spec()
        argv += ["--state", state]
        # a valid state beyond the size kept for tests is not run at all
        assume(_amplitudes(state) <= MAX_AMPLITUDES)
    elif command == "groverian":
        argv += ["--mixed", density_spec()]
    if command == "grover":
        if draw(st.booleans()):
            argv += ["--marked", ",".join(number("0", "1") for _ in range(draw(st.integers(1, 3))))]
        else:
            argv += ["--marked-count", number("1", "2")]
        if draw(st.booleans()):
            iterations = number("auto", "0", "3")
            argv += ["--iterations", iterations]
            # 2^30 - 1 steps are valid and cost minutes; draw them refused only
            steps = _value(integer, iterations) or 0
            assume(not (_amplitudes(state) and 64 < steps <= 2**30 - 1))
    if command == "verify":
        argv += ["--suite", "grover"]
    if command == "sweep":
        argv += ["--measure", draw(st.sampled_from(MEASURES))]
        family = draw(st.none() | st.sampled_from([*SWEEP_FAMILIES, "dicke"]))
        if family is not None:
            argv += ["--family", family]
        sites = number("2", "3")
        if draw(st.booleans()):
            sites += ":" + number("3", "4")
        argv += ["--sites", sites]
    if command != "grover":
        argv += ["--seed", number("7", "-5")]
    if command in ("pmax", "groverian", "sweep"):
        restarts, max_sweeps = number("1", "4"), number("5", "50")
        tol = number("1e-9", "1e-12", edges=REALS)
        argv += ["--restarts", restarts, "--tol", tol, "--max-sweeps", max_sweeps]
        # every edge restarts value is <= 2 or refused; a valid sweep budget
        # past 50 is drawn only where the run is refused before it climbs
        cfg_ok = 1 <= (_value(integer, restarts) or 0) <= 2**20
        cfg_ok = cfg_ok and 0 < (_value(real, tol) or 0) < float("inf")
        if command == "sweep":
            lo, _, hi = sites.partition(":")
            lo, hi = _value(integer, lo), _value(integer, hi or lo)
            runs = lo is not None and hi is not None and 2 <= lo <= hi <= 12
        else:
            runs = state is None or _amplitudes(state) > 0
        assume(not (cfg_ok and runs and (_value(integer, max_sweeps) or 0) > 50))
    argv += ["--output", draw(st.sampled_from(["json", "csv"]))]
    return argv


def _out_of_range(out):
    """The (field, number) pairs outside RANGES in the results of the JSON
    report that ends ``out``, after any check lines ``verify`` prints."""
    text = "\n" + out
    results = json.loads(text[text.index("\n{\n") :])["results"]
    fields = list(results.items())
    if "rows" in results:
        fields += [pair for row in results["rows"] for pair in zip(results["columns"], row)]
    return [
        (name, x)
        for name, value in fields
        if name in RANGES
        for x in (value if isinstance(value, list) else [value])
        if not 0.0 <= x <= RANGES[name]
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(command_lines())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_every_command_line_ends_in_a_contract_exit(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    assert "null" not in out
    if code == 0 and argv[-1] == "json":
        assert _out_of_range(out) == [], argv
    if code == 2:
        peak = traced_peak(lambda: _run(argv))[1]
        assert peak < BUDGET, (argv, peak)


def test_seeds_wrap_to_64_bits():
    for seed in ("-1", str(10**20)):
        assert _run(["pmax", "--state", "random:2,2:3", "--seed", seed, "--restarts", "2"])[0] == 0


def test_family_seed_must_not_be_negative():
    code, out, err = _run(["pmax", "--state", "random:2,2:-1"])
    assert code == 2
    assert "bad arguments" in err
    assert out == ""


def test_huge_sweep_budget_on_a_converging_input():
    assert _run(["pmax", "--state", "bell", "--max-sweeps", str(10**20)])[0] == 0
