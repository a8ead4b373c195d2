import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverian import (
    DensityMatrix,
    NonFiniteResult,
    OracleSpec,
    StateVector,
    SystemShape,
    bell,
    canonical_json,
    ghz,
    load_density,
    load_state,
    maximally_mixed,
    optimal_iterations,
    random_state,
    run_grover,
    save_density,
    save_state,
    uniform_state,
    w_state,
)
from groverian import OptimizerConfig, cli
from groverian.cli import main
from groverian.errors import OutOfRange
from groverian.families import (
    SWEEP_FAMILIES,
    expand_density_family,
    expand_state_family,
    resolve_density,
)
from groverian.fileio import FileFormatError, _parse_pairs, format_float
from groverian.statevector import qubit_shape

SQRT_HALF = math.sqrt(0.5)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    """The report is the JSON object at the end of stdout."""
    lines = out.splitlines()
    start = max(i for i, line in enumerate(lines) if line == "{")
    return json.loads("\n".join(lines[start:]))


class TestFamilies:
    def test_ghz(self):
        state = ghz(3)
        assert state.amps[0] == pytest.approx(SQRT_HALF)
        assert state.amps[7] == pytest.approx(SQRT_HALF)

    def test_w(self):
        state = w_state(3)
        marked = [1, 2, 4]
        for i in range(8):
            expected = 1 / math.sqrt(3) if i in marked else 0.0
            assert state.amps[i] == pytest.approx(expected)

    @pytest.mark.parametrize(
        "spec,dims",
        [
            ("bell", (2, 2)),
            ("ghz:4", (2, 2, 2, 2)),
            ("w:3", (2, 2, 2)),
            ("uniform:2,3", (2, 3)),
            ("basis:2,2:3", (2, 2)),
            ("random:2,2,2:42", (2, 2, 2)),
            ("product-random:3,2:9", (3, 2)),
        ],
    )
    def test_expansion(self, spec, dims):
        state = expand_state_family(spec)
        assert state is not None
        assert state.shape.dims == dims
        assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-12

    def test_unknown_family_returns_none(self):
        assert expand_state_family("nope:2,2") is None

    def test_seeded_families_deterministic(self):
        a = expand_state_family("random:2,2:5")
        b = expand_state_family("random:2,2:5")
        assert np.array_equal(a.amps, b.amps)

    def test_maximally_mixed(self):
        rho = maximally_mixed([2, 2])
        assert np.allclose(rho.entries, np.eye(4) / 4)

    def test_random_rank(self):
        rho = expand_density_family("random-rank:3:2,3,2:4")
        again = expand_density_family("random-rank:3:2,3,2:4")
        assert rho.shape.dims == (2, 3, 2)
        assert np.array_equal(rho.factor, again.factor)
        assert np.linalg.matrix_rank(rho.entries) == 3
        assert abs(np.trace(rho.entries) - 1.0) <= 1e-14
        DensityMatrix(rho.shape, rho.entries)  # its entries pass validation

    def test_sweep_families_are_the_builders(self):
        for n in range(2, 7):
            builders = {
                "ghz": (ghz(n), 0.5),
                "w": (w_state(n), (1 - 1 / n) ** (n - 1)),
                "uniform": (uniform_state(qubit_shape(n)), 1.0),
                "random": (random_state(qubit_shape(n), n), None),
            }
            assert SWEEP_FAMILIES.keys() == builders.keys()
            for name, (state, closed_form) in builders.items():
                got, reference = SWEEP_FAMILIES[name](n, n)
                assert got.shape == state.shape
                assert got.amps.tobytes() == state.amps.tobytes()
                assert reference == closed_form

    def test_sweep_family_choices_are_the_table(self):
        sweep = cli.build_parser()._subparsers._group_actions[0].choices["sweep"]
        family = next(a for a in sweep._actions if a.dest == "family")
        assert family.choices == tuple(SWEEP_FAMILIES)


class TestStateFiles:
    @pytest.mark.parametrize(
        "dims,seed",
        [([2, 3], 123), ([2, 2, 2], 4), ([2] * 10, 5)],
        ids=["2,3", "2,2,2", "2^10"],
    )
    def test_roundtrip_bit_exact(self, tmp_path, dims, seed):
        state = random_state(SystemShape(dims), seed)
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        assert np.array_equal(loaded.amps, state.amps)
        assert loaded.shape.dims == state.shape.dims

    def test_writer_emits_17_digits(self, tmp_path):
        path = tmp_path / "bell.json"
        save_state(bell(), path)
        text = path.read_text()
        assert "7.0710678118654746e-01" in text

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n"dims": [2],\n"amps": [[1, 0],]\n}')
        with pytest.raises(FileFormatError, match="line 3"):
            load_state(path)

    def test_schema_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "amps": [[1, 0]]}')
        with pytest.raises(FileFormatError, match="amps"):
            load_state(path)
        path.write_text('{"dims": "x", "amps": []}')
        with pytest.raises(FileFormatError, match="dims"):
            load_state(path)

    def test_density_roundtrip(self, tmp_path):
        rho = maximally_mixed([2, 2])
        path = tmp_path / "rho.json"
        save_density(rho, path)
        loaded = load_density(path)
        assert np.array_equal(loaded.entries, rho.entries)

    def test_missing_file(self):
        with pytest.raises(FileFormatError):
            load_state("/definitely/not/here.json")


def per_pair_reference(raw, count):
    """The reader's former per-pair loop, kept as the slow reference."""
    assert isinstance(raw, list) and len(raw) == count
    out = np.empty(count, dtype=np.complex128)
    for i, pair in enumerate(raw):
        assert isinstance(pair, list) and len(pair) == 2
        out[i] = complex(float(pair[0]), float(pair[1]))
    return out


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


# Valid dims-[2] documents, one kind of entry each; "rho" is row-major.
READER_CASES = {
    "signed-zero": (
        [[-0.0, -0.0], [1.0, -0.0]],
        [[1.0, -0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]],
    ),
    "subnormal": (
        [[5e-324, -2.225073858507201e-308], [1.0, 1e-310]],
        [[1.0, 0.0], [5e-324, 1e-310], [5e-324, -1e-310], [0.0, 0.0]],
    ),
    "17-digit": (
        [[0.70710678118654746, -0.0], [0.0, 0.70710678118654757]],
        [
            [0.33333333333333331, 0.0],
            [0.12345678901234567, -0.29999999999999999],
            [0.12345678901234567, 0.29999999999999999],
            [0.66666666666666674, 0.0],
        ],
    ),
    "integer": ([[0, 1], [0, 0]], [[1, 0], [0, 0], [0, 0], [0, 0]]),
    "numeric-string": (
        [["0.6", "-0.0"], ["0", "8e-1"]],
        [["0.5", "0"], ["0.25", "-0.25"], ["0.25", "0.25"], ["0.5", "-0.0"]],
    ),
    "boolean": (
        [[False, True], [False, False]],
        [[True, False], [False, False], [False, False], [False, False]],
    ),
    "mixed-kinds": (
        [[0, "0.6"], [False, 0.8]],
        [["1", 0], [False, -0.0], [0, False], [0.0, "-0"]],
    ),
}


class TestReaderAgainstPerPairLoop:
    """One float64 conversion viewed as complex reads every pair exactly as
    ``complex(float(re), float(im))`` did."""

    @pytest.mark.parametrize("case", READER_CASES)
    def test_load_state(self, tmp_path, case):
        amps = READER_CASES[case][0]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2], "amps": amps}))
        expected = StateVector(SystemShape([2]), per_pair_reference(amps, 2))
        assert same_bits(load_state(path).amps, expected.amps)

    @pytest.mark.parametrize("case", READER_CASES)
    def test_load_density(self, tmp_path, case):
        rho = READER_CASES[case][1]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dims": [2], "rho": rho}))
        expected = DensityMatrix(SystemShape([2]), per_pair_reference(rho, 4).reshape(2, 2))
        assert same_bits(load_density(path).entries, expected.entries)

    def test_parse_pairs_on_every_kind_at_once(self):
        raw = [pair for amps, rho in READER_CASES.values() for pair in amps + rho]
        raw += [[2**53 + 1, -(2**63) - 1], [2**64 + 1, 10**30], [" 1.5 ", "1_0"], ["nan", "-inf"]]
        got = _parse_pairs(raw, len(raw), "x.json", "amps")
        assert same_bits(got, per_pair_reference(raw, len(raw)))


class TestCanonicalJson:
    def test_float_formatting(self):
        assert format_float(0.5) == "5.0000000000000000e-01"
        assert float(format_float(1 / 3)) == 1 / 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(NonFiniteResult):
            format_float(bad)
        with pytest.raises(NonFiniteResult):
            canonical_json({"x": bad})
        with pytest.raises(NonFiniteResult):
            canonical_json([1.0, np.float64(bad)])

    def test_document_structure(self):
        doc = {"a": 1, "b": [1.5, 2], "c": {"d": True, "e": None}}
        text = canonical_json(doc)
        assert json.loads(text) == {
            "a": 1,
            "b": [1.5, 2],
            "c": {"d": True, "e": None},
        }

    def test_deterministic(self):
        doc = {"x": [0.1, 0.2, {"y": 7}]}
        assert canonical_json(doc) == canonical_json(doc)


class TestCliPmax:
    def test_bell(self, capsys):
        code, out, _ = run_cli(capsys, "pmax", "--state", "bell")
        assert code == 0
        report = last_json(out)
        assert report["results"]["value"] == pytest.approx(0.5, abs=1e-9)

    def test_basis(self, capsys):
        code, out, _ = run_cli(capsys, "pmax", "--state", "basis:2,2:0")
        assert code == 0
        assert last_json(out)["results"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_w3(self, capsys):
        code, out, _ = run_cli(capsys, "pmax", "--state", "w:3")
        assert code == 0
        value = last_json(out)["results"]["value"]
        assert value == pytest.approx(4.0 / 9.0, abs=1e-9)

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        save_state(bell(), path)
        code, out, _ = run_cli(capsys, "pmax", "--state", str(path))
        assert code == 0
        assert last_json(out)["results"]["value"] == pytest.approx(0.5, abs=1e-9)


class TestCliGroverian:
    def test_ghz3(self, capsys):
        code, out, _ = run_cli(capsys, "groverian", "--state", "ghz:3")
        assert code == 0
        value = last_json(out)["results"]["groverian"]
        assert value == pytest.approx(0.707107, abs=1e-6)

    def test_product_random(self, capsys):
        code, out, _ = run_cli(
            capsys, "groverian", "--state", "product-random:2,2,2:42"
        )
        assert code == 0
        assert last_json(out)["results"]["groverian"] <= 1e-6

    def test_maximally_mixed(self, capsys):
        code, out, _ = run_cli(
            capsys, "groverian", "--mixed", "maximally-mixed:2,2"
        )
        assert code == 0
        value = last_json(out)["results"]["groverian"]
        assert value == pytest.approx(0.866025, abs=1e-6)

    def test_mixed_density_file(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        save_density(maximally_mixed([2, 2]), path)
        code, out, _ = run_cli(capsys, "groverian", "--mixed", str(path))
        assert code == 0
        assert last_json(out)["results"]["method"] == "mixed"


class TestCliMixedFactored:
    """``groverian --mixed`` runs on the density's pivoted Cholesky factor."""

    @staticmethod
    def results_text(out):
        start = out.index('  "results": {')
        return out[start : out.index("\n  }", start)]

    def test_rank_two_and_maximally_mixed(self, capsys, tmp_path):
        shape = SystemShape([2, 2, 2])
        a, b = random_state(shape, 5).amps, random_state(shape, 6).amps
        rho = 0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj())
        path = tmp_path / "rank2.json"
        save_density(DensityMatrix(shape, rho), path)
        for spec in (str(path), "maximally-mixed:2,2,2"):
            outs = []
            for _ in range(2):
                code, out, err = run_cli(capsys, "groverian", "--mixed", spec)
                assert code == 0, err
                assert "null" not in out
                outs.append(self.results_text(out))
            assert outs[0] == outs[1]
        results = last_json(out)["results"]
        assert abs(results["pmax"] - 0.125) <= 1e-12

    def test_rank_one_file_matches_pure_spec(self, capsys, tmp_path):
        state = random_state(SystemShape([2, 3, 2]), 8)
        path = tmp_path / "rank1.json"
        save_density(DensityMatrix(state.shape, np.outer(state.amps, state.amps.conj())), path)
        code, out, err = run_cli(capsys, "groverian", "--mixed", str(path))
        assert code == 0, err
        mixed = last_json(out)["results"]["pmax"]
        save_state(state, tmp_path / "state.json")
        state_file = str(tmp_path / "state.json")
        pmax = []
        for argv in (["--mixed", "pure:random:2,3,2:8"], ["--state", state_file]):
            code, out, err = run_cli(capsys, "groverian", *argv)
            assert code == 0, err
            pmax.append(last_json(out)["results"]["pmax"])
            assert abs(pmax[-1] - mixed) <= 1e-12
        # pure:SPEC holds the state as a one-row factor: the same climb and
        # the same recomputed value as --state SPEC, bit for bit.
        for spec in ("random:2,2,2,2,2,2,2,2,2:11", "ghz:4", "w:5", "product-random:2,3:4"):
            for argv in (["--mixed", f"pure:{spec}"], ["--state", spec]):
                code, out, err = run_cli(capsys, "groverian", *argv, "--restarts", "5")
                assert code == 0, err
                pmax.append(last_json(out)["results"]["pmax"])
        assert pmax[::2] == pmax[1::2]


class TestCliPureSpec:
    """``--mixed pure:SPEC`` holds the state as the density's one-row factor."""

    def test_state_file(self, capsys, tmp_path):
        save_state(bell(), tmp_path / "bell.json")
        results = []
        for spec in ("pure:bell", f"pure:{tmp_path / 'bell.json'}"):
            code, out, err = run_cli(capsys, "groverian", "--mixed", spec)
            assert code == 0, err
            results.append(last_json(out)["results"])
        assert results[0] == results[1]

    def test_builds_no_density_matrix(self, capsys):
        # The 2^11 x 2^11 entries would take 64 MiB.
        spec = "pure:random:" + ",".join(["2"] * 11) + ":3"
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "groverian", "--mixed", spec, "--restarts", "1", "--max-sweeps", "1"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 8 * 2**20


class TestVanishingUniformStart:
    """(|0>-|1>)(x)(|0>-|1>)/2 has zero overlap with the uniform start's
    first environment, so restart 1 is reseeded; with one sweep allowed the
    reseed has no sweep left and the restart counts as degenerate."""

    @pytest.fixture
    def files(self, tmp_path):
        shape = SystemShape([2, 2])
        amps = np.array([1, -1, -1, 1], dtype=complex) / 2
        save_state(StateVector(shape, amps), tmp_path / "state.json")
        save_density(DensityMatrix(shape, np.outer(amps, amps)), tmp_path / "rho.json")
        return tmp_path

    @pytest.mark.parametrize("restarts", ["1", "2"])
    @pytest.mark.parametrize("command", ["pmax", "groverian", "mixed"])
    def test_finite_value_one(self, capsys, files, command, restarts):
        if command == "mixed":
            argv = ["groverian", "--mixed", str(files / "rho.json")]
        else:
            argv = [command, "--state", str(files / "state.json")]
        code, out, err = run_cli(capsys, *argv, "--max-sweeps", "1", "--restarts", restarts)
        assert code == 0, err
        assert "inf" not in out.lower()
        results = last_json(out)["results"]
        value = results["value"] if command == "pmax" else results["pmax"]
        assert abs(value - 1.0) <= 1e-12
        if command == "pmax":
            assert results["best_per_restart"][0] == 0.0


class TestCliGrover:
    def test_auto_iterations_n4(self, capsys):
        code, out, _ = run_cli(
            capsys, "grover", "--state", "uniform:2,2", "--marked", "2",
            "--iterations", "auto",
        )
        assert code == 0
        results = last_json(out)["results"]
        assert results["iterations"] == 1
        assert results["final_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_n16_auto(self, capsys):
        code, out, _ = run_cli(
            capsys, "grover", "--state", "uniform:2,2,2,2", "--marked", "5"
        )
        assert code == 0
        results = last_json(out)["results"]
        assert results["iterations"] == 3
        assert results["final_probability"] == pytest.approx(0.9613189697265625, abs=1e-12)

    def test_explicit_iterations_passthrough(self, capsys):
        code, out, _ = run_cli(
            capsys, "grover", "--state", "bell", "--marked", "0", "--iterations", "1"
        )
        assert code == 0
        results = last_json(out)["results"]
        assert len(results["rows"]) == 2

    def test_marked_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "grover", "--state", "uniform:2,2", "--marked-count", "4"
        )
        assert code == 0
        assert last_json(out)["results"]["final_probability"] == pytest.approx(1.0)

    def test_out_of_range_marked(self, capsys):
        code, _, err = run_cli(
            capsys, "grover", "--state", "uniform:2,2", "--marked", "9"
        )
        assert code == 2
        assert "error" in err

    def test_marked_count_exceeding_register(self, capsys):
        code, _, err = run_cli(
            capsys, "grover", "--state", "uniform:2,2", "--marked-count", "5"
        )
        assert code == 2
        assert "--marked-count must lie in 1..4" in err

    def test_flag_error_is_out_of_range(self):
        args = cli.build_parser().parse_args(["grover", "--state", "bell", "--marked-count", "9"])
        with pytest.raises(OutOfRange, match="--marked-count must lie in 1..4"):
            cli.cmd_grover(args)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "grover", "--state", "uniform:2,2", "--marked", "2",
            "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,P"
        assert len(lines) == 3


class TestCliSweep:
    def test_groverian_over_ghz(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--measure", "groverian", "--family", "ghz",
            "--sites", "2:6", "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,value,reference,error"
        assert len(lines) == 6
        for line in lines[1:]:
            value = float(line.split(",")[1])
            assert abs(value - SQRT_HALF) <= 1e-6

    def test_grover_success_to_1024(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--measure", "grover-success", "--sites", "2:10"
        )
        assert code == 0
        rows = last_json(out)["results"]["rows"]
        assert rows[0][0] == 4 and rows[-1][0] == 1024
        # the miss 1 - P(m) oscillates with how close an integer step count
        # lands to the optimal angle; the decreasing envelope is 1/N
        for total, value, reference, error in rows:
            assert error <= reference  # 1 - P(m) <= 1/N

    def test_grover_success_runs_from_the_family_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--measure", "grover-success", "--family", "ghz", "--sites", "2:4"
        )
        assert code == 0
        results = last_json(out)["results"]
        assert results["columns"] == ["N", "value"]
        for n, row in zip(range(2, 5), results["rows"], strict=True):
            shape = SystemShape([2] * n)
            oracle = OracleSpec(shape, (0,))
            m = optimal_iterations(shape, oracle)
            assert row == [2**n, run_grover(ghz(n), oracle, m).prob_curve[-1]]

    def test_pmax_gap_within_bound_to_1024(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--measure", "pmax-gap", "--sites", "2:10"
        )
        assert code == 0
        rows = last_json(out)["results"]["rows"]
        assert rows[-1][0] == 1024
        for total, value, reference, error in rows:
            assert error <= 0  # |gap| <= 5/sqrt(N)

    def test_numerical_cap_exit_code(self, capsys, monkeypatch):
        # a request under the size cap that the machine cannot serve exits 3
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "pmax_simulated", out_of_memory)
        code, out, err = run_cli(
            capsys, "sweep", "--measure", "pmax-gap", "--sites", "9:9"
        )
        assert code == 3
        assert "numerical" in err
        assert "Traceback" not in err
        assert out == ""

    def test_pmax_gap_runs_optimizer_once_per_state(self, capsys, optimizer_calls):
        code, _, _ = run_cli(capsys, "sweep", "--measure", "pmax-gap", "--sites", "2:5")
        assert code == 0
        assert optimizer_calls == [4, 8, 16, 32]

    @pytest.mark.parametrize(
        "measure,family",
        [
            ("pmax-gap", "random"),
            ("grover-success", "uniform"),
            ("groverian", "ghz"),
            ("pmax", "ghz"),
        ],
    )
    def test_reports_default_family(self, capsys, measure, family):
        code, out, _ = run_cli(capsys, "sweep", "--measure", measure, "--sites", "2:3")
        assert code == 0
        assert last_json(out)["results"]["family"] == family
        assert "null" not in out

    def test_no_reference_columns_without_closed_form(self, capsys):
        for output in ("json", "csv"):
            code, out, _ = run_cli(
                capsys, "sweep", "--measure", "pmax", "--family", "random",
                "--sites", "2:3", "--output", output,
            )
            assert code == 0
            assert "null" not in out
            if output == "json":
                results = last_json(out)["results"]
                assert results["columns"] == ["N", "value"]
                assert [len(row) for row in results["rows"]] == [2, 2]
            else:
                lines = out.splitlines()
                assert lines[0] == "N,value" and len(lines) == 3
                assert all(line.count(",") == 1 for line in lines)

    def test_pmax_over_w_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--measure", "pmax", "--family", "w", "--sites", "2:6"
        )
        assert code == 0
        rows = last_json(out)["results"]["rows"]
        for n, (total, value, reference, error) in zip(range(2, 7), rows, strict=True):
            assert total == 2**n
            assert reference == (1 - 1 / n) ** (n - 1)
            assert error <= 1e-9

    def test_groverian_over_uniform_is_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--measure", "groverian", "--family", "uniform", "--sites", "2:5"
        )
        assert code == 0
        rows = last_json(out)["results"]["rows"]
        assert [row[0] for row in rows] == [4, 8, 16, 32]
        assert all(row[1:] == [0, 0, 0] for row in rows)


class TestCliVerify:
    def test_grover_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "grover", "--seed", "7")
        assert code == 0
        assert "PASS  grover/sine-formula-match" in out
        report = last_json(out)
        assert report["results"]["passed"] is True

    def test_tampered_library_fails_suite(self, capsys, monkeypatch):
        # harness self-test: negate one amplitude inside the uniform state
        # and confirm the suite catches it with a nonzero exit
        import groverian.verify as verify_mod
        from groverian.statevector import StateVector

        real_uniform = verify_mod.uniform_state

        def tampered(shape):
            state = real_uniform(shape)
            amps = state.amps.copy()
            amps[0] = -amps[0]
            return StateVector(shape, amps)

        monkeypatch.setattr(verify_mod, "uniform_state", tampered)
        code, out, _ = run_cli(capsys, "verify", "--suite", "grover", "--seed", "7")
        assert code == 1
        assert "FAIL" in out


class TestAsciiIntegers:
    """Every integer in a family spec and every number flag is ASCII digits
    with an optional minus sign (and, for ``--tol``, a decimal point and an
    exponent): other scripts' digits, ``_`` separators, a plus sign and
    surrounding whitespace are usage errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["pmax", "--state", "ghz:\u0663"],
            ["pmax", "--state", "ghz:1_0"],
            ["pmax", "--state", "ghz:+3"],
            ["pmax", "--state", "ghz: 3"],
            ["pmax", "--state", "w:\uff13"],
            ["pmax", "--state", "uniform:2,\u0662"],
            ["pmax", "--state", "basis:2,2: 1"],
            ["pmax", "--state", "random:2,2:1_0"],
            ["pmax", "--state", "random:+2,2:1"],
            ["pmax", "--state", "product-random:2,2:\u0667"],
            ["groverian", "--mixed", "maximally-mixed:2, 2"],
            ["groverian", "--mixed", "random-rank:\u0661:2,2:1"],
            ["groverian", "--mixed", "random-rank:1:2,2:+1"],
            ["groverian", "--mixed", "pure:ghz:1_0"],
            ["grover", "--state", "bell", "--marked", "\u0661"],
            ["grover", "--state", "bell", "--marked", "0, 1"],
            ["grover", "--state", "bell", "--marked", "0", "--iterations", "\u0663"],
            ["grover", "--state", "bell", "--marked", "0", "--iterations", "+1"],
            ["grover", "--state", "bell", "--marked-count", "\u0662"],
            ["sweep", "--measure", "pmax", "--sites", "2:\u0663"],
            ["sweep", "--measure", "pmax", "--sites", "2:1_0"],
            ["pmax", "--state", "bell", "--restarts", "\u0663"],
            ["pmax", "--state", "bell", "--restarts", "1_0"],
            ["pmax", "--state", "bell", "--max-sweeps", "+5"],
            ["pmax", "--state", "bell", "--seed", "\u0667"],
            ["pmax", "--state", "bell", "--seed", " 7"],
            ["verify", "--suite", "grover", "--seed", "7_0"],
            ["pmax", "--state", "bell", "--tol", "\u0661e-9"],
            ["pmax", "--state", "bell", "--tol", "1_0e-10"],
            ["pmax", "--state", "bell", "--tol", " 1e-9"],
            ["pmax", "--state", "bell", "--tol", "+1e-9"],
        ],
        ids=str,
    )
    def test_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        assert out == ""

    def test_minus_sign_and_ascii_digits_accepted(self, capsys):
        argv = ["pmax", "--state", "random:2,3:4", "--seed", "-7", "--restarts", "2"]
        code, out, _ = run_cli(capsys, *argv, "--max-sweeps", "05")
        assert code == 0
        report = last_json(out)
        assert report["seed"] == -7
        assert report["config"]["restarts"] == 2 and report["config"]["max_sweeps"] == 5
        code, out, _ = run_cli(capsys, "grover", "--state", "bell", "--marked", "0,3", "--iterations", "1")
        assert code == 0
        assert last_json(out)["results"]["marked"] == [0, 3]


class TestCliDeterminism:
    def _strip_duration(self, out):
        report = last_json(out)
        report.pop("duration_s")
        return report

    def test_pmax_reports_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "pmax", "--state", "random:2,2,2:5", "--seed", "11")
        _, out2, _ = run_cli(capsys, "pmax", "--state", "random:2,2,2:5", "--seed", "11")
        assert self._strip_duration(out1) == self._strip_duration(out2)

    def test_verify_reports_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "grover", "--seed", "3")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "grover", "--seed", "3")
        assert self._strip_duration(out1) == self._strip_duration(out2)


class TestCliErrors:
    def test_unknown_state(self, capsys):
        code, _, err = run_cli(capsys, "pmax", "--state", "not-a-family:9")
        assert code == 2

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "pmax")[0] == 2

    @pytest.mark.parametrize(
        "argv,budget,message",
        [
            (["pmax", "--state", "uniform:" + ",".join(["2"] * 40)], 2**20, "cap of 2^30"),
            (
                ["groverian", "--mixed", "maximally-mixed:" + ",".join(["2"] * 16)],
                2**20,
                "cap of 2^30",
            ),
            (
                ["groverian", "--mixed", "pure:uniform:" + ",".join(["2"] * 16)],
                2**20,
                "cap of 2^30",
            ),
            (["sweep", "--measure", "grover-success", "--sites", "2:40"], 2**20, "cap of 2^30"),
            (
                ["grover", "--state", "bell", "--marked-count", "99999999999"],
                2**20,
                "--marked-count must lie in 1..4",
            ),
            (
                ["grover", "--state", "bell", "--marked", "0", "--iterations", str(10**20)],
                2**20,
                "cap of 2^30",
            ),
            (
                ["grover", "--state", "bell", "--marked", "0", "--iterations", "-1"],
                2**20,
                "iteration count -1",
            ),
            (["pmax", "--state", f"ghz:{10**20}"], 2**20, "cap of 2^30"),
            (["pmax", "--state", f"w:{10**20}"], 2**20, "cap of 2^30"),
            (["sweep", "--measure", "pmax", "--sites", f"2:{10**20}"], 2**20, "cap of 2^30"),
            (["pmax", "--state", "ghz:2", "--restarts", str(2**20 + 1)], 2**20, "<= 2^20"),
            (["pmax", "--state", "ghz:2", "--restarts", str(10**20)], 2**20, "<= 2^20"),
        ],
        ids=[
            "state-2^40", "density-2^32", "pure-density-2^32", "sweep-2^40",
            "marked-count-above-N", "iterations-10^20", "iterations-negative",
            "ghz-10^20-sites", "w-10^20-sites", "sweep-10^20-sites",
            "restarts-2^20+1", "restarts-10^20",
        ],
    )
    def test_oversize_input_refused_before_allocation(self, capsys, argv, budget, message):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""
        assert peak < budget

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("random-rank:0:2,2:1", "rank must be in 1..4"),
            ("random-rank:5:2,2:1", "rank must be in 1..4"),
            ("random-rank:x:2,2:1", "bad arguments"),
            ("random-rank:1:" + ",".join(["2"] * 16) + ":1", "cap of 2^30"),
            ("pure:missing.json", "neither a known state family nor a file"),
        ],
        ids=["rank-0", "rank-above-N", "rank-not-a-number", "2^32-entries", "missing-file"],
    )
    def test_bad_density_spec(self, capsys, spec, message):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "groverian", "--mixed", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv,refused",
        [
            (["pmax", "--state", "bell", "--tol", "-1"], False),
            (["pmax", "--state", "bell", "--tol", "nan"], False),
            (["pmax", "--state", "bell", "--restarts", "0"], False),
            (["groverian", "--state", "bell", "--tol", "-1"], False),
            (["groverian", "--mixed", "maximally-mixed:2,2", "--tol", "nan"], False),
            (["groverian", "--state", "bell", "--restarts", "0"], False),
            (["sweep", "--measure", "pmax", "--tol", "-1"], False),
            (["sweep", "--measure", "pmax", "--tol", "nan"], False),
            (["sweep", "--measure", "pmax", "--restarts", "0"], False),
            (["grover", "--state", "uniform:2,2", "--marked", "1", "--tol", "-1"], True),
            (["grover", "--state", "uniform:2,2", "--marked", "1", "--tol", "nan"], True),
            (["grover", "--state", "uniform:2,2", "--marked", "1", "--restarts", "3"], True),
            (["grover", "--state", "uniform:2,2", "--marked", "1", "--max-sweeps", "9"], True),
            (["grover", "--state", "uniform:2,2", "--marked", "1", "--seed", "7"], True),
            (["verify", "--suite", "grover", "--restarts", "0"], True),
            (["verify", "--suite", "grover", "--tol", "1e-9"], True),
            (["verify", "--suite", "grover", "--max-sweeps", "9"], True),
        ],
        ids=[
            "pmax-tol-negative", "pmax-tol-nan", "pmax-restarts-0",
            "groverian-tol-negative", "groverian-tol-nan", "groverian-restarts-0",
            "sweep-tol-negative", "sweep-tol-nan", "sweep-restarts-0",
            "grover-tol-negative", "grover-tol-nan", "grover-restarts",
            "grover-max-sweeps", "grover-seed",
            "verify-restarts-0", "verify-tol", "verify-max-sweeps",
        ],
    )
    def test_optimizer_flags_checked_for_every_command(self, capsys, argv, refused):
        """Commands that read the optimizer flags validate them; the others
        do not accept them at all."""
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert ("unrecognized arguments" in err) == refused
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv,seed,config",
        [
            (["pmax", "--state", "bell"], True, ["restarts", "tol", "max_sweeps", "output"]),
            (["groverian", "--state", "bell"], True, ["restarts", "tol", "max_sweeps", "output"]),
            (
                ["sweep", "--measure", "pmax", "--sites", "2:2"],
                True,
                ["restarts", "tol", "max_sweeps", "output"],
            ),
            (["grover", "--state", "uniform:2,2", "--marked", "1"], False, ["output"]),
            (["verify", "--suite", "grover"], True, ["output"]),
        ],
        ids=["pmax", "groverian", "sweep", "grover", "verify"],
    )
    def test_report_records_only_accepted_flags(self, capsys, argv, seed, config):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = last_json(out)
        assert ("seed" in report) == seed
        assert list(report["config"]) == config

    def test_unwritable_out_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "pmax", "--state", "bell", "--out", str(path))
        assert code == 2
        assert f"error: cannot write report to {path}" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["pmax", "--state"], {"dims": [2], "amps": [[math.nan, 0], [0, 0]]}),
            (["pmax", "--state"], {"dims": [2], "amps": [["x", 0], [0, 0]]}),
            (
                ["groverian", "--mixed"],
                {"dims": [2], "rho": [[math.nan, 0], [0, 0], [0, 0], [0.5, 0]]},
            ),
        ],
        ids=["nan-amplitude", "text-amplitude", "nan-density"],
    )
    def test_bad_number_in_file(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert "null" not in out
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,key", [("--state", "amps"), ("--mixed", "rho")])
    @pytest.mark.parametrize("defect", [
        "null", "ragged-pair", "three-element-pair", "nested-list", "object",
        "non-numeric-string", "huge-integer",
    ])
    def test_named_bad_entries(self, capsys, tmp_path, flag, key, defect):
        if key == "amps":
            pairs = [[0.6, 0.0], [0.0, 0.8]]
        else:
            pairs = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        if defect == "null":
            pairs[1][0] = None
        elif defect == "ragged-pair":
            pairs[1] = [0.0]
        elif defect == "three-element-pair":
            pairs[1] = [0.0, 0.0, 0.0]
        elif defect == "nested-list":
            pairs = [[pair] for pair in pairs]
        elif defect == "object":
            pairs[1] = {"re": 0.0, "im": 0.0}
        elif defect == "non-numeric-string":
            pairs[1][0] = "x"
        else:
            pairs[1][0] = 10**400
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"dims": [2], key: pairs}))
        code, out, err = run_cli(capsys, "groverian", flag, str(path))
        assert code == 2
        assert "Traceback" not in err
        assert "null" not in out
        if defect != "null":  # null reads as NaN, which the constructors refuse
            assert f"{path}: '{key}' must hold {len(pairs)} [re, im] pairs" in err

    @pytest.mark.parametrize(
        "amps,message",
        [
            ("[[null, 0], [0, 0]]", "state has a non-finite amplitude"),
            ("[[1e400, 0], [0, 0]]", "state has a non-finite amplitude"),
            ("[[1e300, 0], [1e300, 0]]", "state norm inf deviates from 1"),
        ],
        ids=["null", "overflowing-literal", "overflowing-norm"],
    )
    def test_non_finite_amplitude_named(self, capsys, tmp_path, amps, message):
        path = tmp_path / "state.json"
        path.write_text('{"dims": [2], "amps": ' + amps + "}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "pmax", "--state", str(path))
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""

    def test_infinite_density_entry(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(
            json.dumps({"dims": [2], "rho": [[0.5, 0], [math.inf, 0], [0, 0], [0.5, 0]]})
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "groverian", "--mixed", str(path))
        assert code == 2
        assert "non-finite" in err
        assert "RuntimeWarning" not in err
        assert "null" not in out

    def test_non_finite_result_exits_numerical(self, capsys, monkeypatch):
        real = cli.groverian

        def nan_measure(state, cfg):
            return dataclasses.replace(real(state, cfg), groverian=math.nan)

        monkeypatch.setattr(cli, "groverian", nan_measure)
        code, out, err = run_cli(capsys, "groverian", "--state", "bell")
        assert code == 3
        assert "non-finite" in err
        assert "Traceback" not in err
        assert out == ""

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "pmax", "--state", "bell", "--out", str(path)
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["results"]["value"] == pytest.approx(0.5, abs=1e-9)

    def test_verify_out_file_holds_only_the_report(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "grover", "--seed", "7", "--out", str(path)
        )
        assert code == 0
        with path.open(encoding="utf-8") as f:
            report = json.load(f)
        checks = report["results"]["checks"]
        lines = out.splitlines()
        assert lines == [line for line in lines if line.startswith(("PASS  ", "FAIL  "))]
        assert [line.split()[1] for line in lines[:-1]] == [c["name"] for c in checks]
        assert lines[-1] == f"PASS  suite=grover checks={len(checks)} failures=0"


def test_parser_defaults_are_the_optimizer_defaults():
    cfg = OptimizerConfig()
    parser = cli.build_parser()
    for argv in (
        ["pmax", "--state", "bell"],
        ["groverian", "--state", "bell"],
        ["sweep", "--measure", "pmax"],
    ):
        args = parser.parse_args(argv)
        assert (args.restarts, args.tol, args.max_sweeps) == (cfg.restarts, cfg.tol, cfg.max_sweeps)


def test_resolve_density_reads_a_family_then_a_file(tmp_path):
    rho = resolve_density("random-rank:2:2,2:3")
    assert np.array_equal(rho.factor, expand_density_family("random-rank:2:2,2:3").factor)
    path = tmp_path / "rho.json"
    save_density(rho, path)
    assert np.array_equal(resolve_density(str(path)).entries, rho.entries)
    with pytest.raises(FileFormatError, match="neither a known density family nor a file"):
        resolve_density(str(tmp_path / "missing.json"))


def test_traced_benchmark_boundaries_exist():
    # The benchmark's tracer wraps these functions by name and reports a
    # missing one only when the benchmark runs; catch a rename here.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_tracing", root / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    contract_module, contract, binder = tracing.CONTRACT
    names = tracing.BOUNDARIES + [(contract_module, contract), (binder, contract)]
    for module_name, attr in names:
        module = importlib.import_module(f"groverian.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    # Per-check metrics are named verify.<check.__name__>.s, so a renamed
    # check would silently drop a metric the benchmark declares.
    checks = importlib.import_module("groverian.verify").SUITES["all"]
    declared = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    per_check = {n for n in declared if n.startswith("verify.check_") and n.endswith(".s")}
    assert per_check == {f"verify.{check.__name__}.s" for check in checks}
    assert len(checks) == len(per_check)


def _is_finite_number(value):
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _parses_as_marked(text, total):
    try:
        marked = [int(x) for x in text.split(",")]
    except ValueError:
        return False
    return len(set(marked)) == len(marked) and all(0 <= m < total for m in marked)


def _parses_as_sites(text):
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        return False
    return 2 <= lo <= hi


# A value that float() rejects or that is not finite.
BAD_NUMBER = st.one_of(
    st.text(max_size=6).filter(lambda t: not _is_finite_number(t)),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, None]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# Lists hold at most three items, so nesting never yields a full [re, im] array.
NESTED_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
BAD_PAIR = st.one_of(
    st.lists(st.just(0.5), max_size=4).filter(lambda pair: len(pair) != 2),
    st.none(),
    st.integers(),
    st.text(max_size=3),
)
BAD_DIMS = st.one_of(
    NESTED_JUNK.filter(
        lambda d: not (isinstance(d, list) and all(type(x) is int for x in d) and d)
    ),
    st.lists(st.integers(-3, 1), min_size=1, max_size=3),
)


@st.composite
def bad_input_files(draw):
    """A state or density document for dims [2] with exactly one defect."""
    key = draw(st.sampled_from(["amps", "rho"]))
    if key == "amps":
        pairs = [[0.6, 0.0], [0.0, 0.8]]
    else:
        pairs = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    doc = {"dims": [2], key: pairs}
    defect = draw(st.sampled_from(["number", "pair", "count", "values", "dims"]))
    i = draw(st.integers(0, len(pairs) - 1))
    if defect == "number":
        pairs[i][draw(st.integers(0, 1))] = draw(BAD_NUMBER)
    elif defect == "pair":
        pairs[i] = draw(BAD_PAIR)
    elif defect == "count":
        count = draw(st.integers(0, 2 * len(pairs)).filter(lambda c: c != len(pairs)))
        doc[key] = [[0.0, 0.0]] * count
    elif defect == "values":
        doc[key] = draw(NESTED_JUNK)
    else:
        doc["dims"] = draw(BAD_DIMS)
    flag = "--state" if key == "amps" else "--mixed"
    return flag, json.dumps(doc)


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class TestCliInputFailures:
    """Every malformed input ends in exit 2 or 3, with no number left null."""

    @given(bad_input_files())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_malformed_files(self, tmp_path_factory, case):
        flag, text = case
        path = tmp_path_factory.getbasetemp() / "malformed.json"
        path.write_text(text)
        code, out = _main_quietly(["groverian", flag, str(path)])
        assert code in (2, 3)
        assert "null" not in out

    @given(
        st.one_of(
            st.text(max_size=8),
            st.lists(st.integers(-5, 9), min_size=1, max_size=5).map(
                lambda xs: ",".join(map(str, xs))
            ),
        ).filter(lambda t: not _parses_as_marked(t, 4))
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_malformed_marked(self, marked):
        code, out = _main_quietly(["grover", "--state", "uniform:2,2", f"--marked={marked}"])
        assert code in (2, 3)
        assert "null" not in out

    @given(
        st.one_of(
            st.text(max_size=6),
            st.tuples(st.integers(-3, 8), st.integers(-3, 8)).map(lambda t: f"{t[0]}:{t[1]}"),
        ).filter(lambda t: not _parses_as_sites(t))
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_malformed_sites(self, sites):
        code, out = _main_quietly(["sweep", "--measure", "grover-success", f"--sites={sites}"])
        assert code in (2, 3)
        assert "null" not in out
