"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import groverian as gv  # noqa: E402
from groverian.cli import main as cli_main  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

DURATION = re.compile(r'^  "duration_s": .*$', re.MULTILINE)


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue()


def report_of(argv) -> dict:
    rc, text = run_cli(argv)
    assert rc == 0
    return wl.parse_report(text)


# ------------------------------------------------------------ output gates


def test_verify_gate_passes_good_and_fails_tampered():
    report = report_of(["verify", "--suite", "grover", "--seed", "3"])
    assert wl.gate_verify(report, None) is None
    report["results"]["passed"] = False
    report["results"]["checks"][0]["passed"] = False
    assert "failures" in wl.gate_verify(report, None)


@pytest.fixture
def pmax_case(tmp_path):
    amps = wl.haar_amplitudes(4, 11)
    path = tmp_path / "state.json"
    wl.write_state_file(path, amps, [2, 2, 2, 2])
    return path, amps


def test_state_file_round_trips(pmax_case):
    path, amps = pmax_case
    assert np.allclose(gv.load_state(path).amps, amps, rtol=0, atol=1e-15)


def test_pmax_gate_passes_good_and_fails_tampered(pmax_case):
    path, amps = pmax_case
    report = report_of(["pmax", "--state", str(path), "--restarts", "5", "--seed", "2"])
    assert report["results"]["converged"]
    assert wl.gate_pmax(report, amps) is None

    bumped = json.loads(json.dumps(report))
    bumped["results"]["value"] += 1e-6
    assert "value" in wl.gate_pmax(bumped, amps)

    swapped = json.loads(json.dumps(report))
    factors = swapped["results"]["argmax_factors"]
    factors[0] = [factors[0][1], factors[0][0]]
    assert wl.gate_pmax(swapped, amps) is not None

    other = wl.haar_amplitudes(4, 12)
    assert wl.gate_pmax(report, other) is not None


def test_pmax_gate_within_a_sweep_budget(pmax_case):
    path, amps = pmax_case
    report = report_of(
        ["pmax", "--state", str(path), "--restarts", "2", "--max-sweeps", "1", "--seed", "2"]
    )
    assert not report["results"]["converged"]
    assert wl.gate_pmax(report, amps) is None
    # An unconverged result claimed as converged is not stationary.
    report["results"]["converged"] = True
    assert "stationary" in wl.gate_pmax(report, amps)


def test_search_gate_passes_good_and_fails_tampered():
    n, seed, marked = 10, 5, 321
    report = report_of(
        ["grover", "--state", f"random:{wl.qubit_dims(n)}:{seed}",
         "--marked", str(marked), "--iterations", "40"]
    )
    assert wl.gate_search(report, (n, seed, marked, 40)) is None
    assert wl.gate_search(report, (n, seed, marked + 1, 40)) is not None
    assert wl.gate_search(report, (n, seed + 1, marked, 40)) is not None

    report["results"]["rows"][17][1] *= 1.0 + 1e-6
    assert "two-mode" in wl.gate_search(report, (n, seed, marked, 40))


def test_mixed_gate_passes_good_and_fails_tampered():
    n, seed = 3, 5
    argv = ["groverian", "--mixed", f"pure:random:{wl.qubit_dims(n)}:{seed}", "--max-sweeps", "3"]
    report = report_of(argv)
    assert wl.gate_mixed(report, (n, seed)) is None

    shifted = json.loads(json.dumps(report))
    shifted["results"]["pmax"] += 1e-6
    assert wl.gate_mixed(shifted, (n, seed)) is not None

    wrong_g = json.loads(json.dumps(report))
    wrong_g["results"]["groverian"] *= 1.0 + 1e-12
    assert "groverian^2" in wl.gate_mixed(wrong_g, (n, seed))


def test_parse_report_skips_leading_lines():
    text = "PASS  a\nPASS  b\n{\n  \"results\": {}\n}\n"
    assert wl.parse_report(text) == {"results": {}}


# ---------------------------------------------------- two-mode reference


def test_two_mode_recurrence_matches_dense_search_at_2_10():
    shape = gv.SystemShape([2] * 10)
    state = gv.random_state(shape, 17)
    marked = 700
    dense = gv.run_grover(state, gv.OracleSpec(shape, [marked]), 60).prob_curve
    k, rest = wl.initial_marked_and_rest(state.amps, marked)
    curve = wl.two_mode_curve(k, rest, shape.total, 60)
    assert max(abs(a - b) for a, b in zip(dense, curve)) <= 1e-12 * max(curve)

    uniform = gv.uniform_state(shape)
    k, rest = wl.initial_marked_and_rest(uniform.amps, marked)
    assert wl.two_mode_curve(k, rest, shape.total, 25)[-1] == pytest.approx(
        np.sin(51 * np.arcsin(1 / 32)) ** 2, abs=1e-12
    )


# --------------------------------------------------------------- tracing


def scripted_clock(seconds):
    ticks = iter(int(t * 1e9) for t in seconds)
    return lambda: next(ticks)


def test_self_time_on_hand_built_span_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7];
    # r [11, 16] holds a recursive r [12, 14].
    tracer = tracing.Tracer(clock=scripted_clock([0, 1, 2, 3, 4, 5, 7, 10, 11, 12, 14, 16]))
    a, b, c, r = (tracer.boundary_id(x) for x in "abcr")
    span_a = tracer.enter(a)
    span_b = tracer.enter(b)
    span_c = tracer.enter(c)
    tracer.exit(span_c)
    tracer.exit(span_b)
    tracer.exit(tracer.enter(b))
    tracer.exit(span_a)
    outer_r = tracer.enter(r)
    tracer.exit(tracer.enter(r))
    tracer.exit(outer_r)

    stats = tracing.summarize(tracer)
    assert stats["a"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 5.0})
    assert stats["b"] == pytest.approx({"calls": 2, "s": 5.0, "self_s": 4.0})
    assert stats["c"] == pytest.approx({"calls": 1, "s": 1.0, "self_s": 1.0})
    # The recursive span's interval is counted once inclusive, once as self.
    assert stats["r"] == pytest.approx({"calls": 2, "s": 5.0, "self_s": 5.0})
    assert list(tracing.span_durations(tracer, "b")) == pytest.approx([3.0, 2.0])


def test_wrapper_keeps_results_and_exceptions():
    tracer = tracing.Tracer()
    seen = []

    def add(x, y=1):
        if x < 0:
            raise ValueError("negative")
        return x + y

    traced = tracer.wrap("add", add, lambda args, result, outer: seen.append(result))
    assert traced(2, y=3) == 5
    with pytest.raises(ValueError):
        traced(-1)
    assert seen == [5]
    assert tracing.summarize(tracer)["add"]["calls"] == 2

    broken = tracer.wrap("add2", add, lambda args, result, outer: 1 / 0)
    assert broken(1) == 2
    assert tracer.counters == {"hook_errors.add2": 1}


def child(trace: bool, argv) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(ROOT / "src"), "run",
         "1" if trace else "0", *argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["pmax", "--state", "w:4", "--restarts", "3"],
        ["grover", "--state", "random:2,2,2,2,2:4", "--marked", "3", "--iterations", "5"],
        ["groverian", "--mixed", "pure:ghz:3"],
    ],
)
def test_traced_sample_matches_untraced_bytes(argv):
    plain, traced = child(False, argv), child(True, argv)
    assert plain["rc"] == traced["rc"] == 0
    assert DURATION.sub("", plain["stdout"]) == DURATION.sub("", traced["stdout"])
    assert traced["missing"] == [] and traced["hook_errors"] == {}
    assert traced["layers"]["cli.main.calls"] == 1


def test_declared_per_layer_metrics_are_reported():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    layers = child(True, ["pmax", "--state", "ghz:3", "--restarts", "2"])["layers"]
    derived = {"grover.grover_iterate.bw_frac", "trace.overhead_s"}
    assert names == set(layers) | derived
    assert layers["product_opt.pmax_overlap.calls"] == 1
    assert layers["product_opt.restarts"] == 2
    assert layers["statevector._contract_all_but.calls"] > 0


# ------------------------------------------------------------------ runner


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sample_seeds_are_deterministic_and_distinct():
    assert wl.sample_seed(7, 0) == wl.sample_seed(7, 0)
    assert len({wl.sample_seed(7, i) for i in range(100)}) == 100
    assert wl.sample_seed(7, 0) != wl.sample_seed(8, 0)
    assert wl.sample_seed(7, 0, 1) != wl.sample_seed(7, 0)
