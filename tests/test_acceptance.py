"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line with the observed value and tolerance
(visible under ``pytest -s`` or in the captured output of a failure).  The
checks themselves live in groverian.verify so the ``verify`` CLI command
runs exactly the same computations.
"""

import json
import time

import numpy as np
import pytest

from groverian import OptimizerConfig, SystemShape, pmax_overlap_many, random_state
from groverian.cli import main
from groverian.verify import (
    CheckResult,
    check_average_vs_overlap,
    check_bipartite_agreement,
    check_entropy_relation,
    check_exact_n4,
    check_grid_agreement,
    check_majorization_monotone,
    check_marked_symmetry,
    check_measure_lu_invariance,
    check_mixed_extension,
    check_named_measures,
    check_qudit_pair,
    check_sine_formula,
    check_target_residual,
    run_checks,
    run_suite,
)

SEED = 7


def report(results, budget_s=None, elapsed=None):
    for r in results:
        print(r.line())
    if budget_s is not None:
        print(f"      elapsed {elapsed:.2f}s (budget {budget_s}s)")
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    if budget_s is not None:
        assert elapsed < budget_s


def run(*checks):
    """The results of ``checks`` alone, run by ``run_checks`` as the suite
    runs them, which answers an optimizing check's requests."""
    return run_checks(checks, SEED)


def timed(*checks):
    t0 = time.perf_counter()
    results = run(*checks)
    return results, time.perf_counter() - t0


def test_c01_standard_search_curve():
    """N in {16,64,256,1024}, r=1: P(k) matches the sine formula to 1e-10
    and P(m) >= 1 - 1/N; budget 5 s."""
    results, elapsed = timed(check_sine_formula)
    report(results, budget_s=5, elapsed=elapsed)


def test_c02_target_residual():
    """||U^m eta - s|| (global phase factored) <= 2/sqrt(N); budget 10 s."""
    results, elapsed = timed(check_target_residual)
    report(results, budget_s=10, elapsed=elapsed)


def test_c03_exact_n4():
    """One iteration at N=4 succeeds with probability 1 within 1e-12."""
    report(run(check_exact_n4))


def test_c04_average_equals_overlap():
    """|simulated average - product overlap| <= 5/sqrt(N) on 50 seeded
    states per shape, averaged over every target; budget 60 s."""
    results, elapsed = timed(check_average_vs_overlap)
    report(results, budget_s=60, elapsed=elapsed)


def test_c05_optimizer_vs_independent_oracles():
    """(a) 100 bipartite states up to 8x8 within 1e-9 of the Schmidt closed
    form; (b) 50 three-qubit states within [grid-1e-9, grid+5e-3];
    budget 120 s."""
    results, elapsed = timed(check_bipartite_agreement, check_grid_agreement)
    report(results, budget_s=120, elapsed=elapsed)


def test_c06_named_values():
    """G(Bell)=G(GHZ3)=0.7071068, G(W3)=0.7453560 within 1e-6; products at 0."""
    report(run(check_named_measures))


def test_c07_local_unitary_invariance():
    """|G(L psi) - G(psi)| <= 1e-8 over 100 seeded three-qubit pairs."""
    report(run(check_measure_lu_invariance))


def test_c08_majorization_monotonicity():
    """G never increases across 1e4 seeded spectrum pairs where the target
    majorizes the source."""
    report(run(check_majorization_monotone))


def test_c09_entropy_relation():
    """|S(rho_A) - h(G^2)| <= 1e-9 on 100 seeded two-qubit states."""
    report(run(check_entropy_relation))


def test_c10_mixed_state_extension():
    """G((I(x)I)/4) = 0.8660254 within 1e-9 and the product-density closed
    form within 1e-9 on 50 seeded tuples."""
    report(run(check_mixed_extension))


def test_c11_qudit_generalization():
    """Two qutrits: sine curve within 1e-10, optimal m=2, peak 0.9836068."""
    report(run(check_qudit_pair, check_marked_symmetry))


def test_c12_end_to_end_determinism(capsys, tmp_path):
    """verify --suite all --seed 7 exits 0 twice with byte-identical result
    records; budget 300 s."""
    t0 = time.perf_counter()
    outputs = []
    for _ in range(2):
        code = main(["verify", "--suite", "all", "--seed", str(SEED)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        start = max(i for i, line in enumerate(lines) if line == "{")
        record = json.loads("\n".join(lines[start:]))
        record.pop("duration_s")
        outputs.append((record, "\n".join(lines[:start])))
    elapsed = time.perf_counter() - t0
    assert outputs[0] == outputs[1]
    print(f"PASS  acceptance/determinism  two runs identical, {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300


VERIFY_CHECKS = [
    ("grover/sine-formula-match", 1e-10),
    ("grover/peak-success-floor", 0.0),
    ("grover/exact-n4-single-step", 1e-12),
    ("grover/target-residual", 0.0),
    ("grover/qutrit-sine-formula", 1e-10),
    ("grover/qutrit-peak", 1e-10),
    ("grover/marked-position-symmetry", 1e-12),
    ("grover/iteration-bound", 0.0),
    ("grover/diffusion-composition", 1e-12),
    ("grover/unitarity-drift", 1e-12),
    ("grover/invariant-complement", 1e-15),
    ("pmax/named-values", 1e-9),
    ("pmax/search-average-vs-overlap", 0.0),
    ("pmax/bipartite-agreement", 1e-9),
    ("pmax/grid-lower-bound", 1e-9),
    ("pmax/grid-coarseness", 0.005),
    ("pmax/ascent", 1e-14),
    ("pmax/basis-lower-bound", 1e-12),
    ("pmax/value-range", 1e-12),
    ("pmax/feasibility-recompute", 1e-12),
    ("pmax/lu-invariance", 1e-8),
    ("pmax/grid-bell", 0.002),
    ("pmax/grid-pole-exact", 0.0),
    ("pmax/grid-refinement-monotone", 1e-12),
    ("measures/named-values", 1e-6),
    ("measures/lu-invariance", 1e-8),
    ("measures/majorization-monotone", 0.0),
    ("measures/entropy-relation", 1e-9),
    ("measures/maximally-mixed-value", 1e-9),
    ("measures/product-density-formula", 1e-9),
    ("measures/definitional-identities", 1e-14),
    ("measures/vedral-rank-order", 0.0),
    ("measures/zero-iff-product", 1e-6),
    ("measures/bures-distance-chain", 1e-12),
    ("measures/schmidt-reconstruction", 1e-10),
    ("measures/schmidt-vs-reduced-spectrum", 1e-9),
]


def test_verify_suite_checks_and_batches(climb_calls):
    """Every check of the full suite passes, under its pinned name and
    tolerance, and the suite's optimizer inputs climb in one pass: 55
    batches of 12,140 rows (71 with one optimizer call per check, 607 when
    each input ran alone)."""
    results = run_suite("all", SEED)
    assert [(r.name, r.tolerance) for r in results] == VERIFY_CHECKS
    assert [r.name for r in results if not r.passed] == []
    assert len(climb_calls) == 55
    assert sum(call.rows for call in climb_calls) == 12140


def test_verify_suite_draws_starts_from_one_stream_per_input(monkeypatch):
    """The optimizer checks draw each input's random starts from one
    generator, so the suite builds at most 2,000 generators (12,831 at
    seed 7 when every restart row built its own)."""
    real, built = np.random.default_rng, []

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    results = run_suite("all", SEED)
    assert [r.name for r in results if not r.passed] == []
    assert 0 < len(built) <= 2000


def test_run_checks_answers_each_request_in_its_round(monkeypatch):
    """``run_checks`` sends an optimizing check the results of its own
    inputs, in input order, with one optimizer call per round of requests;
    a check that yields twice waits for the second round, and a plain
    check's results keep their place."""
    from groverian import verify

    states = [random_state(SystemShape([2, 2]), 90 + i) for i in range(3)]
    cfgs = [OptimizerConfig(restarts=2, seed=i) for i in range(3)]
    direct = [r.value for r in pmax_overlap_many(states, cfgs)]
    real, calls = verify.pmax_overlap_many, []

    def counted(inputs, cfgs):
        calls.append(len(inputs))
        return real(inputs, cfgs)

    def twice(seed):
        first = yield states[:1], cfgs[:1]
        second = yield states[1:], cfgs[1:]
        return [CheckResult("twice", True, r.value, 0.0) for r in [*first, *second]]

    def once(seed):
        (result,) = yield states[2:], cfgs[2:]
        return [CheckResult("once", True, result.value, 0.0)]

    def plain(seed):
        return [CheckResult("plain", True, float(seed), 0.0)]

    monkeypatch.setattr(verify, "pmax_overlap_many", counted)
    results = run_checks([twice, plain, once], 5)
    assert [(r.name, r.observed) for r in results] == [
        ("twice", direct[0]),
        ("twice", direct[1]),
        ("twice", direct[2]),
        ("plain", 5.0),
        ("once", direct[2]),
    ]
    assert calls == [2, 2]
