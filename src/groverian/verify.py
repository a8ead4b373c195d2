"""Verification suites behind the ``verify`` CLI command.

Each check compares a computed quantity against an independent reference
(closed forms, exhaustive enumeration, or the exact grid oracle) at a fixed
tolerance and reports one pass/fail line.  All randomness is derived from
the suite seed, so a run is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import bell, ghz, w_state
from .grover import (
    OracleSpec,
    _flip_marked,
    _reflect_uniform,
    diffusion,
    diffusion_layer,
    iteration_bound,
    optimal_iterations,
    pmax_simulated,
    run_grover,
)
from .measures import (
    MeasureReport,
    _report,
    bures_distance,
    entropy_check,
    groverian_bipartite,
    groverian_product_mixed,
    monotone_check_rows,
)
from .product_opt import (
    OptimizerConfig,
    _sweep_rows,
    pmax_bipartite,
    pmax_grid_oracle,
    pmax_overlap_many,
)
from .statevector import (
    DensityMatrix,
    StateVector,
    SystemShape,
    apply_local,
    basis_state,
    inner,
    product_to_state,
    qubit_shape,
    random_local_layer,
    random_product,
    random_state,
    reduced_density,
    schmidt,
    schmidt_reconstruction_error,
    seed_sequence,
    uniform_state,
)

SQRT_HALF = math.sqrt(0.5)
G_BELL = math.sqrt(0.5)  # pmax 1/2
G_W3 = math.sqrt(5.0 / 9.0)  # pmax 4/9
G_MAX_N4 = math.sqrt(3.0) / 2.0  # sqrt(1 - 1/4)
# sin^2(5 asin(1/3)): peak success probability for two qutrits, r=1, m=2.
QUTRIT_PAIR_PEAK = math.sin(5.0 * math.asin(1.0 / 3.0)) ** 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        text = f"{tag}  {self.name:<42} observed={self.observed:.3e} tolerance={self.tolerance:.3e}"
        if self.detail:
            text += f"  ({self.detail})"
        return text


def _cfg(seed: int, check_id: int, index: int) -> OptimizerConfig:
    entropy = seed_sequence(seed, check_id, index)
    return OptimizerConfig(seed=int(entropy.generate_state(1, np.uint64)[0]))


def _phase_free_residual(target_amp: complex) -> float:
    """min over global phase of || e^{ia} psi - |s> || given <s|psi>."""
    return math.sqrt(max(0.0, 2.0 - 2.0 * abs(target_amp)))


def _worst(name: str, values, tolerance: float, detail: str = "") -> CheckResult:
    """Passes when the largest of ``values`` is at most ``tolerance``."""
    worst = max(values)
    return CheckResult(name, worst <= tolerance, worst, tolerance, detail)


def _measures(inputs, cfgs, method: str = "alternating") -> list[MeasureReport]:
    """The reports of ``groverian`` on every input, or of ``groverian_mixed``
    with ``method="mixed"``, from one batched optimizer call."""
    return [_report(r.value, method, r) for r in pmax_overlap_many(inputs, cfgs)]


# ---------------------------------------------------------------------------
# grover suite


def check_sine_formula(seed: int) -> list[CheckResult]:
    """Success curve from the uniform state matches sin^2((2k+1) asin(1/sqrt N))."""
    errors, deficits = [], []
    for n in (4, 6, 8, 10):
        shape = qubit_shape(n)
        total = shape.total
        oracle = OracleSpec(shape, (1,))
        run = run_grover(uniform_state(shape), oracle, iteration_bound(total, 1))
        theta = math.asin(1.0 / math.sqrt(total))
        errors += [abs(p - math.sin((2 * k + 1) * theta) ** 2) for k, p in enumerate(run.prob_curve)]
        deficits.append((1.0 - 1.0 / total) - run.prob_curve[optimal_iterations(shape, oracle)])
    return [
        _worst(
            "grover/sine-formula-match", errors, 1e-10,
            "N in {16,64,256,1024}, all k up to ceil(pi/4 sqrt(N))",
        ),
        _worst("grover/peak-success-floor", deficits, 0.0, "P(m) >= 1 - 1/N at the selected m"),
    ]


def check_exact_n4(seed: int) -> list[CheckResult]:
    """One iteration on N=4 finds any single marked state with certainty."""
    shape = qubit_shape(2)
    runs = [run_grover(uniform_state(shape), OracleSpec(shape, (s,)), 1) for s in range(4)]
    return [_worst("grover/exact-n4-single-step", [abs(r.prob_curve[1] - 1.0) for r in runs], 1e-12)]


def check_target_residual(seed: int) -> list[CheckResult]:
    """Iterating from uniform lands within 2/sqrt(N) of the marked state
    (global phase factored out; the layered composition flips sign on odd m)."""
    excess = []
    for n in (4, 6, 8, 10):
        shape = qubit_shape(n)
        total = shape.total
        m = optimal_iterations(shape, OracleSpec(shape, (0,)))
        if total <= 64:
            targets = range(total)
        else:
            rng = np.random.default_rng(seed_sequence(seed, 20, n))
            targets = sorted(int(x) for x in rng.choice(total, size=8, replace=False))
        for s in targets:
            run = run_grover(uniform_state(shape), OracleSpec(shape, (s,)), m)
            excess.append(_phase_free_residual(run.final_state.amps[s]) - 2.0 / math.sqrt(total))
    return [
        _worst(
            "grover/target-residual", excess, 0.0,
            "residual minus 2/sqrt(N), every s for N<=64, 8 sampled above",
        )
    ]


def check_qudit_pair(seed: int) -> list[CheckResult]:
    """Two qutrits: curve matches sin^2((2k+1) asin(1/3)); m=2 peaks at 0.98361."""
    shape = SystemShape([3, 3])
    oracle = OracleSpec(shape, (4,))
    bound = iteration_bound(9, 1)
    run = run_grover(uniform_state(shape), oracle, bound)
    theta = math.asin(1.0 / 3.0)
    errors = [abs(p - math.sin((2 * k + 1) * theta) ** 2) for k, p in enumerate(run.prob_curve)]
    m = optimal_iterations(shape, oracle)
    peak_err = abs(run.prob_curve[2] - QUTRIT_PAIR_PEAK)
    return [
        _worst("grover/qutrit-sine-formula", errors, 1e-10),
        CheckResult(
            "grover/qutrit-peak",
            m == 2 and peak_err <= 1e-10,
            peak_err,
            1e-10,
            f"m={m} expected 2, peak {QUTRIT_PAIR_PEAK:.10f}",
        ),
    ]


def check_marked_symmetry(seed: int) -> list[CheckResult]:
    """The success curve does not depend on which singleton is marked."""
    shape = qubit_shape(4)
    bound = iteration_bound(16, 1)
    curves = [
        run_grover(uniform_state(shape), OracleSpec(shape, (s,)), bound).prob_curve
        for s in range(16)
    ]
    errors = [max(abs(a - b) for a, b in zip(curve, curves[0])) for curve in curves[1:]]
    return [_worst("grover/marked-position-symmetry", errors, 1e-12)]


def check_iteration_bound(seed: int) -> list[CheckResult]:
    """Selected iteration count never exceeds ceil(pi/4 sqrt(N/r))."""
    cases = [
        (qubit_shape(2), (0, 1, 2, 3)),
        (qubit_shape(4), (3,)),
        (qubit_shape(4), (1, 6)),
        (qubit_shape(6), (0, 7, 21)),
        (SystemShape([3, 3]), (2,)),
        (SystemShape([3, 3]), (0, 4, 8)),
    ]
    excess = []
    for shape, marked in cases:
        oracle = OracleSpec(shape, marked)
        m = optimal_iterations(shape, oracle)
        excess.append(float(m - iteration_bound(shape.total, oracle.count)))
    return [_worst("grover/iteration-bound", excess, 0.0)]


def check_diffusion_composition(seed: int) -> list[CheckResult]:
    """Rank-one diffusion equals the layered Fourier composition V I0 V+."""
    errors = []
    for i, dims in enumerate(([2, 2, 2], [3, 2], [5], [4, 3])):
        shape = SystemShape(dims)
        layer = diffusion_layer(shape)
        for j in range(3):
            state = random_state(shape, seed_sequence(seed, 21, 10 * i + j))
            amps = apply_local(layer.adjoint(), state).amps.copy()
            amps[0] *= -1.0
            composed = apply_local(layer, StateVector(shape, amps))
            errors.append(float(np.abs(diffusion(state).amps - composed.amps).max()))
    return [_worst("grover/diffusion-composition", errors, 1e-12)]


def check_unitarity_drift(seed: int) -> list[CheckResult]:
    """Norm stays within 1e-12 of 1 across many iterations.

    Runs the dense in-place step behind oracle_phase and diffusion (run_grover
    takes the two-mode map instead) on a bare array: a constructed
    StateVector would renormalize drift beyond 1e-12 and hide it."""
    amps = random_state(qubit_shape(6), seed_sequence(seed, 22, 0)).amps.copy()
    drift = []
    for _ in range(100):
        _flip_marked(amps, [17])
        _reflect_uniform(amps)
        drift.append(abs(float(np.linalg.norm(amps)) - 1.0))
    return [_worst("grover/unitarity-drift", drift, 1e-12)]


def check_invariant_complement(seed: int) -> list[CheckResult]:
    """A state orthogonal to both the uniform and marked states is frozen."""
    shape = qubit_shape(2)
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = SQRT_HALF
    amps[2] = -SQRT_HALF
    run = run_grover(StateVector(shape, amps), OracleSpec(shape, (0,)), 5)
    return [
        _worst(
            "grover/invariant-complement", [abs(p) for p in run.prob_curve], 1e-15,
            "P(k) stays 0 for (|1>-|2>)/sqrt2 with target 0",
        )
    ]


# ---------------------------------------------------------------------------
# pmax suite


def check_named_pmax(seed: int) -> list[CheckResult]:
    """Optimizer reproduces closed-form overlaps for the standard families."""
    shape3 = qubit_shape(3)
    cases = [
        (bell(), 0.5),
        (ghz(3), 0.5),
        (w_state(3), 4.0 / 9.0),
        (basis_state(qubit_shape(4), 5), 1.0),
        (product_to_state(random_product(shape3, seed_sequence(seed, 30, 0))), 1.0),
    ]
    results = pmax_overlap_many([s for s, _ in cases], [_cfg(seed, 30, i) for i in range(1, 6)])
    return [_worst("pmax/named-values", [abs(r.value - e) for r, (_, e) in zip(results, cases)], 1e-9)]


def check_average_vs_overlap(seed: int) -> list[CheckResult]:
    """Target-averaged search probability after the best local preprocessing
    (the exact affine law in P_max from the two-mode map) tracks the product
    overlap within 5/sqrt(N) on random two- and three-qubit states."""
    keys = [100 * n + i for n in (2, 3) for i in range(50)]
    states = [random_state(qubit_shape(k // 100), seed_sequence(seed, 31, k)) for k in keys]
    results = pmax_overlap_many(states, [_cfg(seed, 31, k) for k in keys])
    gaps = [abs(pmax_simulated(s.shape, r.value) - r.value) for s, r in zip(states, results)]
    return [
        _worst(
            "pmax/search-average-vs-overlap",
            [g - 5.0 / math.sqrt(s.shape.total) for g, s in zip(gaps, states)],
            0.0,
            f"gap minus 5/sqrt(N); worst gap {max(gaps):.3e}",
        )
    ]


def check_bipartite_agreement(seed: int) -> list[CheckResult]:
    """Alternating optimizer matches the Schmidt closed form on bipartite states."""
    dims_cycle = [(d1, d2) for d1 in range(2, 9) for d2 in range(2, 9)]
    states = [
        random_state(SystemShape(dims_cycle[i % len(dims_cycle)]), seed_sequence(seed, 32, i))
        for i in range(100)
    ]
    results = pmax_overlap_many(states, [_cfg(seed, 32, i) for i in range(100)])
    errors = [abs(r.value - pmax_bipartite(s, [1])) for s, r in zip(states, results)]
    return [_worst("pmax/bipartite-agreement", errors, 1e-9)]


def check_grid_agreement(seed: int) -> list[CheckResult]:
    """Optimizer dominates the exact grid value and stays within its coarseness."""
    states = [random_state(qubit_shape(3), seed_sequence(seed, 33, i)) for i in range(50)]
    results = pmax_overlap_many(states, [_cfg(seed, 33, i) for i in range(50)])
    pairs = [(pmax_grid_oracle(s, 64), r.value) for s, r in zip(states, results)]
    return [
        _worst("pmax/grid-lower-bound", [grid - value for grid, value in pairs], 1e-9),
        _worst("pmax/grid-coarseness", [value - grid for grid, value in pairs], 5e-3),
    ]


def check_ascent(seed: int) -> list[CheckResult]:
    """Alternating single-site updates never decrease the overlap objective."""
    worst_drop = 0.0
    for i, dims in enumerate(([2, 2, 2], [3, 2], [2, 2, 2, 2])):
        shape = SystemShape(dims)
        state = random_state(shape, seed_sequence(seed, 34, 2 * i))
        start = random_product(shape, seed_sequence(seed, 34, 2 * i + 1))
        factors = [f[None] for f in start.factors]
        prev = -math.inf
        for _ in range(25):
            objectives, degenerate = _sweep_rows(state.tensor()[None], factors)
            if degenerate[0]:
                break
            for objective in objectives[0].tolist():
                if prev > -math.inf:
                    worst_drop = max(worst_drop, prev - objective)
                prev = objective
    return [CheckResult("pmax/ascent", worst_drop <= 1e-14, worst_drop, 1e-14)]


def check_lower_bound_and_range(seed: int) -> list[CheckResult]:
    """value >= max_x |amp_x|^2 >= 1/N, and value <= 1."""
    dims = ([2, 2], [3, 3], [2, 3, 2], [2, 2, 2, 2])
    keys = [10 * i + j for i in range(4) for j in range(5)]
    states = [random_state(SystemShape(dims[k // 10]), seed_sequence(seed, 35, k)) for k in keys]
    results = pmax_overlap_many(states, [_cfg(seed, 35, k) for k in keys])
    pairs = [(s, r.value) for s, r in zip(states, results)]
    return [
        _worst(
            "pmax/basis-lower-bound",
            [float(s.probabilities().max()) - value for s, value in pairs],
            1e-12,
        ),
        _worst(
            "pmax/value-range",
            [max(1.0 / s.shape.total - value, value - 1.0) for s, value in pairs],
            1e-12,
        ),
    ]


def check_feasibility(seed: int) -> list[CheckResult]:
    """Recomputing |<argmax|psi>|^2 reproduces the reported value."""
    states = [
        random_state(SystemShape([2, 3, 2] if i % 2 else [2, 2, 2]), seed_sequence(seed, 36, i))
        for i in range(10)
    ]
    results = pmax_overlap_many(states, [_cfg(seed, 36, i) for i in range(10)])
    errors = [
        abs(abs(inner(product_to_state(r.argmax), s)) ** 2 - r.value)
        for s, r in zip(states, results)
    ]
    return [_worst("pmax/feasibility-recompute", errors, 1e-12)]


def _lu_pairs(seed: int, check_id: int, count: int):
    """``count`` random three-qubit states, each followed by its image under
    a random local layer, with the configs of one optimizer call: both
    members of pair i use ``_cfg(seed, check_id, i)``."""
    shape = qubit_shape(3)
    inputs, cfgs = [], []
    for i in range(count):
        state = random_state(shape, seed_sequence(seed, check_id, 2 * i))
        layer = random_local_layer(shape, seed_sequence(seed, check_id, 2 * i + 1))
        inputs += [state, apply_local(layer, state)]
        cfgs += [_cfg(seed, check_id, i)] * 2
    return inputs, cfgs


def check_pmax_lu_invariance(seed: int) -> list[CheckResult]:
    """The product-overlap maximum is invariant under local unitaries."""
    values = [r.value for r in pmax_overlap_many(*_lu_pairs(seed, 37, 20))]
    return [_worst("pmax/lu-invariance", [abs(a - b) for a, b in zip(values[::2], values[1::2])], 1e-8)]


def check_grid_known_values(seed: int) -> list[CheckResult]:
    """Grid oracle sanity: Bell value, pole exactness, refinement monotonicity."""
    bell_err = abs(pmax_grid_oracle(bell(), 64) - 0.5)
    pole = pmax_grid_oracle(basis_state(qubit_shape(3), 0), 64)
    pole_err = abs(pole - 1.0)
    states = [random_state(qubit_shape(3), seed_sequence(seed, 38, i)) for i in range(5)]
    refine = [pmax_grid_oracle(s, 64) - pmax_grid_oracle(s, 128) for s in states]
    return [
        CheckResult("pmax/grid-bell", bell_err <= 2e-3, bell_err, 2e-3),
        CheckResult("pmax/grid-pole-exact", pole_err == 0.0, pole_err, 0.0),
        _worst(
            "pmax/grid-refinement-monotone", refine, 1e-12,
            "value(64) - value(128) on nested grids",
        ),
    ]


# ---------------------------------------------------------------------------
# measures suite


def check_named_measures(seed: int) -> list[CheckResult]:
    """G(Bell), G(GHZ3), G(W3) at their closed-form values; products at 0."""
    product = product_to_state(random_product(qubit_shape(3), seed_sequence(seed, 40, 9)))
    reports = _measures(
        [bell(), ghz(3), w_state(3), product], [_cfg(seed, 40, i) for i in (0, 1, 2, 10)]
    )
    worst = max(abs(r.groverian - e) for r, e in zip(reports, (G_BELL, G_BELL, G_W3, 0.0)))
    unconverged = sum(not r.converged for r in reports)
    names = ",".join(f"{r.groverian:.7f}" for r in reports[:3])
    return [
        CheckResult(
            "measures/named-values",
            worst <= 1e-6 and unconverged == 0,
            worst,
            1e-6,
            f"bell,ghz3,w3={names}; product={reports[3].groverian:.2e}; {unconverged} unconverged",
        )
    ]


def check_measure_lu_invariance(seed: int) -> list[CheckResult]:
    """|G(L psi) - G(psi)| <= 1e-8 over 100 random state/layer pairs."""
    reports = _measures(*_lu_pairs(seed, 41, 100))
    worst = max(abs(a.groverian - b.groverian) for a, b in zip(reports[::2], reports[1::2]))
    unconverged = sum(not r.converged for r in reports)
    return [
        CheckResult(
            "measures/lu-invariance",
            worst <= 1e-8 and unconverged == 0,
            worst,
            1e-8,
            f"{unconverged} unconverged reports",
        )
    ]


def _majorizing_pairs(rng: np.random.Generator, outcomes: int, count: int) -> np.ndarray:
    """The first ``count`` Dirichlet (source, target) pairs whose target
    majorizes the source, as a (count, 2, outcomes) array.

    Pairs are drawn in blocks, which give the same numbers as drawing a
    source and then a target per pair.
    """
    alpha = np.ones(outcomes)
    found = []
    while count > 0:
        pairs = rng.dirichlet(alpha, size=(4 * count, 2))
        hits = np.flatnonzero(monotone_check_rows(pairs[:, 0], pairs[:, 1])[0])[:count]
        found.append(pairs[hits])
        count -= len(hits)
    return np.concatenate(found)


def check_majorization_monotone(seed: int) -> list[CheckResult]:
    """Whenever the target spectrum majorizes the source, G cannot increase."""
    rng = np.random.default_rng(seed_sequence(seed, 42, 0))
    failures = 0
    applicable_total = 0
    for outcomes in (2, 3):
        pairs = _majorizing_pairs(rng, outcomes, 5000)
        applicable, monotone = monotone_check_rows(pairs[:, 0], pairs[:, 1])
        failures += int(np.count_nonzero(~(applicable & monotone)))
        applicable_total += len(pairs)
    return [
        CheckResult(
            "measures/majorization-monotone",
            failures == 0,
            float(failures),
            0.0,
            f"{applicable_total} applicable spectrum pairs",
        )
    ]


def check_entropy_relation(seed: int) -> list[CheckResult]:
    """Reduced-state entropy equals h(G^2) for two-qubit pure states."""
    states = [random_state(qubit_shape(2), seed_sequence(seed, 43, i)) for i in range(100)]
    errors = [abs(s - h_g2) for s, h_g2 in map(entropy_check, states)]
    return [_worst("measures/entropy-relation", errors, 1e-9)]


def check_mixed_extension(seed: int) -> list[CheckResult]:
    """Linear extension values: maximally mixed pair, and product densities."""
    densities = [DensityMatrix(qubit_shape(2), np.eye(4) / 4.0)]
    expected = []
    rng = np.random.default_rng(seed_sequence(seed, 44, 1))
    for i in range(50):
        n_sites = 2 if i < 25 else 3
        locals_ = []
        for _ in range(n_sites):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = a @ a.conj().T
            locals_.append(m / np.trace(m).real)
        joint = locals_[0]
        for m in locals_[1:]:
            joint = np.kron(joint, m)
        densities.append(DensityMatrix(qubit_shape(n_sites), joint))
        expected.append(groverian_product_mixed(locals_))
    reports = _measures(densities, [_cfg(seed, 44, i) for i in [0, *range(2, 52)]], "mixed")
    g_mm = reports[0].groverian
    mm_err = abs(g_mm - G_MAX_N4)
    errors = [abs(r.groverian - e) for r, e in zip(reports[1:], expected)]
    return [
        CheckResult(
            "measures/maximally-mixed-value", mm_err <= 1e-9, mm_err, 1e-9,
            f"G={g_mm:.10f}, positive on a separable state: not a monotone",
        ),
        _worst(
            "measures/product-density-formula", errors, 1e-9,
            "linear extension vs sqrt(1 - prod of top eigenvalues)",
        ),
    ]


def check_definitional_identities(seed: int) -> list[CheckResult]:
    """G^2 + pmax = 1 and E = 2 - 2 sqrt(pmax) on every report."""
    pairs = [random_state(qubit_shape(2), seed_sequence(seed, 45, i)) for i in range(10)]
    triples = [random_state(qubit_shape(3), seed_sequence(seed, 45, 100 + i)) for i in range(5)]
    reports = [groverian_bipartite(s, [1]) for s in [bell(), *pairs]]
    reports += _measures(triples, [_cfg(seed, 45, i) for i in range(5)])
    errors = [abs(r.groverian**2 + r.pmax - 1.0) for r in reports]
    errors += [abs(r.vedral_e - (2.0 - 2.0 * math.sqrt(r.pmax))) for r in reports]
    return [_worst("measures/definitional-identities", errors, 1e-14)]


def check_vedral_rank_order(seed: int) -> list[CheckResult]:
    """Ranking states by G equals ranking by the 2-2 sqrt(pmax) measure."""
    states = [random_state(qubit_shape(3), seed_sequence(seed, 46, i)) for i in range(20)]
    reports = _measures(states, [_cfg(seed, 46, i) for i in range(20)])
    gs = np.asarray([r.groverian for r in reports])
    es = np.asarray([r.vedral_e for r in reports])
    mismatches = int((np.argsort(gs) != np.argsort(es)).sum())
    return [
        CheckResult(
            "measures/vedral-rank-order", mismatches == 0, float(mismatches), 0.0
        )
    ]


def check_zero_iff_product(seed: int) -> list[CheckResult]:
    """G vanishes on products and is large on the maximally entangled pair."""
    product = product_to_state(random_product(SystemShape([2, 3, 2]), seed_sequence(seed, 47, 0)))
    g_prod, g_bell = (
        r.groverian for r in _measures([product, bell()], [_cfg(seed, 47, 0), _cfg(seed, 47, 1)])
    )
    bell_deficit = (0.7071 - 1e-6) - g_bell
    worst = max(g_prod, bell_deficit)
    return [
        CheckResult(
            "measures/zero-iff-product", worst <= 1e-6, worst, 1e-6,
            f"G(product)={g_prod:.2e}, G(bell)={g_bell:.7f}",
        )
    ]


def check_bures_chain(seed: int) -> list[CheckResult]:
    """Bures distance endpoints and the fidelity chain through pmax."""
    rep = groverian_bipartite(bell(), [1])
    errors = [
        abs(bures_distance(1.0)),
        abs(bures_distance(0.0) - 1.0),
        abs(bures_distance(math.sqrt(rep.pmax)) - rep.groverian),
    ]
    return [_worst("measures/bures-distance-chain", errors, 1e-12)]


def check_schmidt_infrastructure(seed: int) -> list[CheckResult]:
    """Schmidt reconstruction and reduced-density spectra on random states."""
    recon, spec = [], []
    for i, (dims, left) in enumerate(
        [([2, 2], [1]), ([4, 4], [1]), ([2, 2, 2, 2], [1, 3]), ([4, 4, 4, 4], [1, 2]), ([3, 3, 3], [2])]
    ):
        state = random_state(SystemShape(dims), seed_sequence(seed, 48, i))
        dec = schmidt(state, left)
        recon.append(schmidt_reconstruction_error(state, dec))
        evals = np.sort(np.linalg.eigvalsh(reduced_density(state, left).entries))[::-1]
        spec.append(float(np.abs(evals[: dec.coeffs.size] - dec.probabilities).max()))
    return [
        _worst("measures/schmidt-reconstruction", recon, 1e-10),
        _worst("measures/schmidt-vs-reduced-spectrum", spec, 1e-9),
    ]


GROVER_CHECKS = [
    check_sine_formula,
    check_exact_n4,
    check_target_residual,
    check_qudit_pair,
    check_marked_symmetry,
    check_iteration_bound,
    check_diffusion_composition,
    check_unitarity_drift,
    check_invariant_complement,
]

PMAX_CHECKS = [
    check_named_pmax,
    check_average_vs_overlap,
    check_bipartite_agreement,
    check_grid_agreement,
    check_ascent,
    check_lower_bound_and_range,
    check_feasibility,
    check_pmax_lu_invariance,
    check_grid_known_values,
]

MEASURES_CHECKS = [
    check_named_measures,
    check_measure_lu_invariance,
    check_majorization_monotone,
    check_entropy_relation,
    check_mixed_extension,
    check_definitional_identities,
    check_vedral_rank_order,
    check_zero_iff_product,
    check_bures_chain,
    check_schmidt_infrastructure,
]

SUITES = {
    "grover": GROVER_CHECKS,
    "pmax": PMAX_CHECKS,
    "measures": MEASURES_CHECKS,
    "all": GROVER_CHECKS + PMAX_CHECKS + MEASURES_CHECKS,
}


def run_suite(name: str, seed: int) -> list[CheckResult]:
    """Run every check in the named suite with seeds derived from ``seed``."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results: list[CheckResult] = []
    for check in SUITES[name]:
        results.extend(check(seed))
    return results
