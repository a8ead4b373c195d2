import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import dense_environment
from groverian import (
    DensityMatrix,
    DimensionMismatch,
    LocalUnitaryLayer,
    OptimizerConfig,
    OutOfRange,
    StateVector,
    SystemShape,
    TooLarge,
    WrongShape,
    apply_local,
    basis_state,
    bell,
    ghz,
    inner,
    maximally_mixed,
    pmax_bipartite,
    pmax_grid_oracle,
    pmax_mixed,
    pmax_overlap,
    pmax_overlap_many,
    product_to_state,
    random_local_layer,
    random_product,
    random_state,
    w_state,
)
from groverian import product_opt, statevector
from groverian.families import random_rank_density
from groverian.product_opt import (
    _climb_rows,
    _grid_candidates,
    _sweep_rows,
    _top_sigma_sq_2x2,
)
from groverian.statevector import (
    _factor,
    _random_factors,
    canonical_phase,
    haar_unitary,
    product_amps,
    seed_sequence,
    uniform_factor,
)

SQRT_HALF = math.sqrt(0.5)


def brute_force_grid(state, resolution):
    """Full-grid maximum: every combination of candidates, one per site."""
    cand = _grid_candidates(resolution).conj()
    t = state.tensor()
    if state.shape.n == 2:
        vals = np.abs(cand @ t @ cand.T) ** 2
        return float(vals.max())
    best = 0.0
    level1 = np.tensordot(cand, t, axes=([1], [0]))  # (G, 2, 2)
    for a in range(cand.shape[0]):
        vals = np.abs(cand @ level1[a] @ cand.T) ** 2
        best = max(best, float(vals.max()))
    return best


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 20
        assert cfg.tol == 1e-12
        assert cfg.max_sweeps == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(restarts=0),
            dict(restarts=2**20 + 1),
            dict(tol=0.0),
            dict(tol=-1e-9),
            dict(max_sweeps=0),
            dict(tol=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(OutOfRange):
            OptimizerConfig(**kwargs)


class TestPmaxOverlap:
    def test_product_state_reaches_one(self):
        shape = SystemShape([2] * 4)
        result = pmax_overlap(basis_state(shape, 0b0101))
        assert abs(result.value - 1.0) <= 1e-12
        assert result.converged

    def test_bell(self):
        assert abs(pmax_overlap(bell()).value - 0.5) <= 1e-12

    def test_ghz3(self):
        result = pmax_overlap(ghz(3))
        assert abs(result.value - 0.5) <= 1e-10

    def test_w3_against_grid_oracle(self):
        result = pmax_overlap(w_state(3))
        assert abs(result.value - 4.0 / 9.0) <= 1e-10
        grid = pmax_grid_oracle(w_state(3), 64)
        assert result.value >= grid - 1e-9
        assert result.value <= grid + 5e-3

    def test_value_recomputes_from_argmax(self, three_qubits):
        state = random_state(three_qubits, 31)
        result = pmax_overlap(state)
        recomputed = abs(inner(product_to_state(result.argmax), state)) ** 2
        assert abs(recomputed - result.value) <= 1e-12

    def test_basis_lower_bound(self):
        shape = SystemShape([2, 3, 2])
        for i in range(8):
            state = random_state(shape, 40 + i)
            result = pmax_overlap(state, OptimizerConfig(restarts=2, seed=i))
            assert result.value >= float(state.probabilities().max()) - 1e-12

    def test_range_bounds(self, three_qubits):
        for i in range(5):
            value = pmax_overlap(random_state(three_qubits, 50 + i)).value
            assert 1.0 / 8 - 1e-12 <= value <= 1.0 + 1e-12

    def test_lu_invariance(self, three_qubits):
        state = random_state(three_qubits, 60)
        layer = random_local_layer(three_qubits, 61)
        a = pmax_overlap(state).value
        b = pmax_overlap(apply_local(layer, state)).value
        assert abs(a - b) <= 1e-8

    def test_deterministic_given_seed(self, three_qubits):
        state = random_state(three_qubits, 62)
        cfg = OptimizerConfig(seed=123)
        a = pmax_overlap(state, cfg)
        b = pmax_overlap(state, cfg)
        assert a.value == b.value
        assert a.best_per_restart == b.best_per_restart

    def test_restart_metadata(self, three_qubits):
        state = random_state(three_qubits, 63)
        cfg = OptimizerConfig(restarts=5, seed=3)
        result = pmax_overlap(state, cfg)
        assert result.restarts_used >= 5
        assert len(result.best_per_restart) == result.restarts_used
        assert result.sweeps >= 1

    def test_qudit_sites(self):
        shape = SystemShape([3, 4])
        state = random_state(shape, 64)
        value = pmax_overlap(state).value
        assert abs(value - pmax_bipartite(state, [1])) <= 1e-9

    def test_degenerate_contraction_reseeds(self, two_qubits):
        # (|0>+|1>)/sqrt2 (x) (-|0>+|1>)/sqrt2 has zero row sums, so the
        # uniform restart's first contraction vanishes and must be reseeded;
        # the state is a product, so the recovered optimum is 1
        state = StateVector(two_qubits, np.array([-1, 1, -1, 1]) / 2)
        result = pmax_overlap(state, OptimizerConfig(restarts=3, seed=0))
        assert abs(result.value - 1.0) <= 1e-10


    def test_reseed_without_a_sweep_left_is_degenerate(self, two_qubits):
        # The uniform start vanishes on the first sweep; with one sweep
        # allowed its reseed never runs, so the restart reports 0.0 and the
        # basis-floor climb supplies the value.
        state = StateVector(two_qubits, np.array([1, -1, -1, 1]) / 2)
        cfg = OptimizerConfig(restarts=1, max_sweeps=1)
        start = [uniform_factor(2)[None] for _ in range(2)]
        climbs = _climb_rows(state.tensor()[None], start, [1], [cfg])
        assert climbs.degenerate[0] and climbs.objective[0] == 0.0 and climbs.sweeps[0] == 1
        result = pmax_overlap(state, cfg)
        assert result.restarts_used == 2
        assert result.best_per_restart[0] == 0.0
        assert abs(result.value - 1.0) <= 1e-12


class TestPmaxBipartite:
    def test_bell(self):
        assert abs(pmax_bipartite(bell(), [1]) - 0.5) <= 1e-14

    def test_product(self, two_qubits):
        assert abs(pmax_bipartite(basis_state(two_qubits, 0), [1]) - 1.0) <= 1e-14

    def test_constructed_spectrum(self, two_qubits):
        amps = np.zeros(4, dtype=complex)
        amps[0] = math.sqrt(0.7)
        amps[3] = math.sqrt(0.3)
        state = StateVector(two_qubits, amps)
        assert abs(pmax_bipartite(state, [1]) - 0.7) <= 1e-14


def site_one_svd_reference(state, resolution):
    """The grid oracle's rule with numpy's SVD: for each site-1 candidate,
    the top squared singular value of the 2x2 remainder."""
    rest = np.tensordot(_grid_candidates(resolution).conj(), state.tensor(), axes=([1], [0]))
    return float((np.linalg.svd(rest, compute_uv=False)[:, 0] ** 2).max())


def bell_after_zero(seed):
    """|0> (x) (U (x) V)|Bell>: P_max is 1/2, and at site 1's pole the
    remainder has two equal singular values."""
    shape = SystemShape([2] * 3)
    rng = np.random.default_rng(seed)
    state = StateVector(shape, np.kron([1.0, 0.0], bell().amps))
    gates = (np.eye(2), haar_unitary(2, rng), haar_unitary(2, rng))
    return apply_local(LocalUnitaryLayer(shape, gates), state)


def grid_test_states(three_qubits):
    states = [random_state(three_qubits, 90 + i) for i in range(4)]
    return states + [ghz(3), w_state(3), bell_after_zero(3)]


class TestGridOracle:
    def test_bell_value(self):
        assert abs(pmax_grid_oracle(bell(), 64) - 0.5) <= 2e-3

    def test_pole_exact(self, three_qubits):
        assert pmax_grid_oracle(basis_state(three_qubits, 0), 64) == 1.0

    def test_monotone_refinement(self, three_qubits):
        for i in range(3):
            state = random_state(three_qubits, 70 + i)
            assert pmax_grid_oracle(state, 128) >= pmax_grid_oracle(state, 64) - 1e-12

    def test_matches_exhaustive_two_qubits(self, two_qubits):
        # Site 2 solved exactly is at least the full grid, and still a product.
        for i in range(4):
            state = random_state(two_qubits, 80 + i)
            value = pmax_grid_oracle(state, 32)
            assert brute_force_grid(state, 32) - 1e-15 <= value
            assert value <= pmax_bipartite(state, [1]) + 1e-14

    def test_matches_svd_reference(self, three_qubits):
        for state in grid_test_states(three_qubits):
            assert pmax_grid_oracle(state, 32) == pytest.approx(
                site_one_svd_reference(state, 32), abs=1e-14
            )

    def test_dominates_coarser_full_grid(self, three_qubits):
        # The resolution-16 grid is a subset of the resolution-32 one.
        for state in grid_test_states(three_qubits):
            assert pmax_grid_oracle(state, 32) >= brute_force_grid(state, 16) - 1e-15

    def test_never_exceeds_optimizer(self, three_qubits):
        states = grid_test_states(three_qubits) + [bell_after_zero(seed) for seed in (1, 2)]
        for state in states:
            assert pmax_grid_oracle(state, 32) <= pmax_overlap(state).value + 1e-12

    def test_memory_stays_bounded(self, three_qubits):
        states = [basis_state(three_qubits, 0)]
        states += [random_state(three_qubits, 110 + i) for i in range(3)]
        for state in states:
            tracemalloc.start()
            try:
                pmax_grid_oracle(state, 128)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20

    def test_single_qubit(self):
        state = StateVector(SystemShape([2]), [math.sqrt(0.8), math.sqrt(0.2)])
        # best single-qubit product state is the state itself
        assert abs(pmax_grid_oracle(state, 256) - 1.0) <= 1e-3

    def test_rejects_qutrits(self):
        with pytest.raises(WrongShape):
            pmax_grid_oracle(random_state(SystemShape([3, 3]), 0), 64)

    def test_rejects_four_sites(self):
        with pytest.raises(TooLarge):
            pmax_grid_oracle(random_state(SystemShape([2] * 4), 0), 64)

    def test_rejects_low_resolution(self, two_qubits):
        with pytest.raises(OutOfRange):
            pmax_grid_oracle(random_state(two_qubits, 0), 16)

    @pytest.mark.parametrize("resolution", [2**14 + 1, 10**20])
    def test_rejects_oversize_resolution_before_allocating(self, three_qubits, resolution):
        state = random_state(three_qubits, 0)
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange):
                pmax_grid_oracle(state, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def unit_2x2(rng, count):
    return np.stack([haar_unitary(2, rng) for _ in range(count)])


class TestTopSigmaSq:
    def test_matches_svd(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2))
        m /= np.linalg.norm(m, axis=(1, 2), keepdims=True)
        u = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        v = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        rank_one = u[:, :, None] * v[:, None, :] / 4.0
        s = rng.uniform(0.0, 1.0, 500)[:, None, None]
        equal = unit_2x2(rng, 500) @ (s * np.eye(2)) @ unit_2x2(rng, 500)
        batch = np.concatenate([m, rank_one, np.zeros((3, 2, 2)), equal])
        expected = np.linalg.svd(batch, compute_uv=False)[..., 0] ** 2
        assert np.abs(_top_sigma_sq_2x2(batch) - expected).max() <= 1e-14


def rotated_density(eigenvalues, seed):
    d = len(eigenvalues)
    u = haar_unitary(d, np.random.default_rng(seed))
    return u @ np.diag(eigenvalues) @ u.conj().T


class TestPmaxMixed:
    def test_pure_projector_agrees_with_overlap(self, three_qubits):
        state = random_state(three_qubits, 100)
        rho = DensityMatrix(three_qubits, np.outer(state.amps, state.amps.conj()))
        a = pmax_mixed(rho).value
        b = pmax_overlap(state).value
        assert abs(a - b) <= 1e-10

    def test_maximally_mixed_pair(self, two_qubits):
        rho = DensityMatrix(two_qubits, np.eye(4) / 4)
        assert abs(pmax_mixed(rho).value - 0.25) <= 1e-12

    def test_product_density_closed_form(self, two_qubits):
        r1 = rotated_density([0.9, 0.1], 1)
        r2 = rotated_density([0.6, 0.4], 2)
        rho = DensityMatrix(two_qubits, np.kron(r1, r2))
        assert abs(pmax_mixed(rho).value - 0.54) <= 1e-10

    def test_product_density_qutrits(self):
        shape = SystemShape([3, 3])
        r1 = rotated_density([0.7, 0.2, 0.1], 4)
        r2 = rotated_density([0.5, 0.3, 0.2], 5)
        rho = DensityMatrix(shape, np.kron(r1, r2))
        assert abs(pmax_mixed(rho).value - 0.35) <= 1e-10

    def test_ascent_monotone(self, two_qubits):
        # objective recomputed from argmax must match the reported value
        rho = DensityMatrix(
            two_qubits, 0.5 * np.outer(bell().amps, bell().amps.conj()) + 0.5 * np.eye(4) / 4
        )
        result = pmax_mixed(rho)
        from groverian.statevector import product_amps

        e = product_amps(result.argmax.factors)
        recomputed = float(np.real(np.vdot(e, rho.entries @ e)))
        assert abs(recomputed - result.value) <= 1e-12

    def test_reads_the_factor_held_by_rho(self, monkeypatch):
        rho = random_full_rank_density(SystemShape([2, 3]), 7)
        expected = pmax_mixed(rho, OptimizerConfig(restarts=3, seed=1))

        def refactor(matrix):
            raise AssertionError("pmax_mixed factored rho again")

        monkeypatch.setattr(statevector, "_factor", refactor)
        result = pmax_mixed(rho, OptimizerConfig(restarts=3, seed=1))
        assert result.best_per_restart == expected.best_per_restart

    @pytest.mark.parametrize("rank,dims", [(1, [2, 3, 2]), (2, [2, 2, 2]), (3, [2] * 5), (9, [3, 3])])
    def test_random_rank_matches_its_entries(self, rank, dims):
        # The family's Gaussian factor and the pivoted Cholesky factor of its
        # entries describe one operator, so the optimizer agrees on both.
        rho = random_rank_density(SystemShape(dims), rank, 13)
        assert rho.factor.shape == (rank, rho.shape.total)
        refactored = DensityMatrix(rho.shape, rho.entries)
        assert len(refactored.factor) == rank
        cfg = OptimizerConfig(restarts=4, seed=2)
        assert abs(pmax_mixed(rho, cfg).value - pmax_mixed(refactored, cfg).value) <= 1e-12


# Sweeps split at the middle site: odd, uneven and one-site registers too.
SWEEP_DIMS = [[2, 2, 2], [3, 2], [2, 3, 2], [3, 3], [2] * 6, [2] * 7, [3, 2, 2, 3, 2], [2, 5], [3]]


def reference_pure_sweep(state, factors):
    """One sweep in which every site recontracts the full state tensor, with
    the dense environment rather than the optimizer's contraction."""
    factors = list(factors)
    objectives = []
    for j in range(state.shape.n):
        v = dense_environment(state, factors, j)
        nv = float(np.linalg.norm(v))
        factors[j] = v / nv
        objectives.append(nv * nv)
    return factors, objectives


def reference_mixed_sweep(rho, factors):
    """One sweep that sandwiches the full density matrix between
    left (x) I (x) right for every site."""
    factors = list(factors)
    dims = rho.shape.dims
    objectives = []
    for j, d in enumerate(dims):
        k = np.eye(d, dtype=np.complex128)
        if j > 0:
            k = np.kron(product_amps(factors[:j]).reshape(-1, 1), k)
        if j < len(dims) - 1:
            k = np.kron(k, product_amps(factors[j + 1 :]).reshape(-1, 1))
        vals, vecs = np.linalg.eigh(k.conj().T @ rho.entries @ k)
        factors[j] = vecs[:, -1]
        objectives.append(float(vals[-1]))
    return factors, objectives


def random_full_rank_density(shape, seed):
    rng = np.random.default_rng(seed)
    n = shape.total
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityMatrix(shape, m / np.trace(m).real)


def random_rank_two_density(shape, seed):
    u = haar_unitary(shape.total, np.random.default_rng(seed))[:, :2]
    return DensityMatrix(shape, (u * [0.7, 0.3]) @ u.conj().T)


def projector(state):
    return DensityMatrix(state.shape, np.outer(state.amps, state.amps.conj()))


def densities(shape, seed):
    """A pure, a rank-2 and a full-rank density, with their ranks."""
    return [
        (projector(random_state(shape, seed)), 1),
        (random_rank_two_density(shape, seed + 1), 2),
        (random_full_rank_density(shape, seed + 2), shape.total),
    ]


def factored(rho):
    """rho's pivoted Cholesky factor as the optimizer's column block."""
    b = _factor(rho.entries)
    return b.reshape((len(b),) + rho.shape.dims)


def assert_same_sweep(fast_factors, fast_objectives, ref_factors, ref_objectives):
    # Factors agree up to a global phase per site, which the product state
    # does not see; compare them in canonical phase.
    assert np.allclose(fast_objectives, ref_objectives, rtol=0, atol=1e-12)
    for f, g in zip(fast_factors, ref_factors):
        assert np.allclose(canonical_phase(f), canonical_phase(g), rtol=0, atol=1e-12)


def stacked(products):
    """(R, d_j) factor stacks from R product states, one row each."""
    return [np.array(fs) for fs in zip(*(p.factors for p in products))]


class TestSweepAgainstReference:
    @pytest.mark.parametrize("dims", SWEEP_DIMS, ids=str)
    def test_pure_sweep(self, dims):
        shape = SystemShape(dims)
        state = random_state(shape, 200)
        starts = [random_product(shape, 201 + 10 * i) for i in range(3)]
        factors = stacked(starts)
        objectives, degenerate = _sweep_rows(state.tensor()[None], factors)
        assert not degenerate.any()
        for i, start in enumerate(starts):
            ref_factors, ref_objectives = reference_pure_sweep(state, start.factors)
            row = [f[i] for f in factors]
            assert_same_sweep(row, objectives[i], ref_factors, ref_objectives)

    @pytest.mark.parametrize("dims", SWEEP_DIMS, ids=str)
    def test_pure_sweep_per_row_targets(self, dims):
        shape = SystemShape(dims)
        states = [random_state(shape, 210 + i) for i in range(3)]
        starts = [random_product(shape, 211 + 10 * i) for i in range(3)]
        factors = stacked(starts)
        target = np.array([s.tensor()[None] for s in states])
        objectives, degenerate = _sweep_rows(target, factors)
        assert not degenerate.any()
        for i, (state, start) in enumerate(zip(states, starts)):
            ref_factors, ref_objectives = reference_pure_sweep(state, start.factors)
            row = [f[i] for f in factors]
            assert_same_sweep(row, objectives[i], ref_factors, ref_objectives)

    @pytest.mark.parametrize("dims", SWEEP_DIMS, ids=str)
    def test_mixed_sweep(self, dims):
        # The factored sweep against the M x M sandwich it replaced, on a
        # pure (one column), a rank-2 and a full-rank density.
        shape = SystemShape(dims)
        starts = [random_product(shape, 203 + 10 * i) for i in range(3)]
        for rho, rank in densities(shape, 202):
            target = factored(rho)
            assert len(target) == rank
            factors = stacked(starts)
            objectives, degenerate = _sweep_rows(target, factors)
            assert not degenerate.any()
            for i, start in enumerate(starts):
                ref_factors, ref_objectives = reference_mixed_sweep(rho, start.factors)
                row = [f[i] for f in factors]
                assert_same_sweep(row, objectives[i], ref_factors, ref_objectives)

    @pytest.mark.parametrize("dims", SWEEP_DIMS, ids=str)
    def test_mixed_sweep_per_row_targets(self, dims):
        # Each row its own pure, rank-2 or full-rank density of one rank.
        shape = SystemShape(dims)
        starts = [random_product(shape, 213 + 10 * i) for i in range(3)]
        rows = [densities(shape, 212 + 10 * i) for i in range(3)]
        for kind in range(3):
            rhos = [row[kind][0] for row in rows]
            target = np.array([factored(rho) for rho in rhos])
            factors = stacked(starts)
            objectives, degenerate = _sweep_rows(target, factors)
            assert not degenerate.any()
            for i, (rho, start) in enumerate(zip(rhos, starts)):
                ref_factors, ref_objectives = reference_mixed_sweep(rho, start.factors)
                row = [f[i] for f in factors]
                assert_same_sweep(row, objectives[i], ref_factors, ref_objectives)

    @pytest.mark.parametrize("dims", [[2, 2, 2], [2] * 7, [3]], ids=str)
    def test_sweep_leaves_no_reference_cycle(self, dims):
        # A sweep's environments are freed when it returns, not when the
        # cyclic collector next runs.
        shape = SystemShape(dims)
        target = random_state(shape, 214).tensor()[None]
        factors = stacked([random_product(shape, 215 + i) for i in range(3)])
        gc.collect()
        gc.disable()
        try:
            _sweep_rows(target, factors)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("dims", SWEEP_DIMS, ids=str)
    def test_projector_matches_pure_optimizer(self, dims):
        shape = SystemShape(dims)
        state = random_state(shape, 204)
        cfg = OptimizerConfig(restarts=4, seed=5)
        mixed, pure = pmax_mixed(projector(state), cfg), pmax_overlap(state, cfg)
        assert abs(mixed.value - pure.value) <= 1e-12
        assert mixed.restarts_used == pure.restarts_used
        assert np.allclose(mixed.best_per_restart, pure.best_per_restart, rtol=0, atol=1e-12)

    def test_degenerate_middle_site_reseeds(self, three_qubits, monkeypatch):
        # A pure sweep cannot vanish after its first site (the overlap only
        # grows), so the contraction is made to report row 1 of a three-row
        # batch degenerate at the middle site of the first sweep.
        state = random_state(three_qubits, 205)
        assert_middle_site_reseeds(state.tensor()[None], three_qubits, monkeypatch)

    def test_degenerate_middle_site_reseeds_with_columns(self, three_qubits, monkeypatch):
        # The same on a rank-2 density, whose site update is the Gram
        # matrix's top eigenvector.
        target = factored(random_rank_two_density(three_qubits, 207))
        assert len(target) == 2
        assert_middle_site_reseeds(target, three_qubits, monkeypatch)

    def test_two_rows_reseed_in_one_sweep(self, three_qubits, monkeypatch):
        # Rows 0 and 2 vanish in the same sweep and are reseeded by one
        # batched draw; each row equals its own one-row reseed.
        state = random_state(three_qubits, 205)
        assert_middle_site_reseeds(state.tensor()[None], three_qubits, monkeypatch, vanish=(0, 2))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_degeneracy_is_the_contraction_norm(self, three_qubits, monkeypatch, rank):
        # One threshold for every K: a row is degenerate when the norm of its
        # contraction is below CONTRACTION_EPS, not its square.
        if rank == 1:
            target = random_state(three_qubits, 208).tensor()[None]
        else:
            target = factored(random_rank_two_density(three_qubits, 208))
        starts = stacked([random_product(three_qubits, 209 + i) for i in range(3)])
        for scale, expected in ((1e-10, False), (1e-17, True)):

            def scaled(v):
                v[1] *= scale / np.linalg.norm(v[1])
                return v

            calls = []
            monkeypatch.setattr(product_opt, "_contract_all_but", editing_middle_site(scaled, calls))
            _, degenerate = _sweep_rows(target, [f.copy() for f in starts])
            assert calls == THREE_SITE_CALLS
            assert degenerate.tolist() == [False, expected, False]


# A three-site sweep by halves contracts the target for site 1, then for
# sites 2..3, and that half for site 2 and for site 3: each call's (site
# count, kept sites).  The third call is the middle site's environment.
THREE_SITE_CALLS = [(3, slice(0, 1)), (3, slice(1, None)), (2, slice(0, 1)), (2, slice(1, None))]


def editing_middle_site(edit, calls):
    """A stand-in for ``product_opt._contract_all_but`` that records each
    call's (site count, kept sites) in ``calls`` and hands the middle
    site's environment of the first three-site sweep, a copy, through
    ``edit``."""
    real = product_opt._contract_all_but

    def contract(tensor, factors, keep=slice(0, 1)):
        v = real(tensor, factors, keep)
        calls.append((len(factors), keep))
        return edit(v.copy()) if len(calls) == 3 else v

    return contract


def assert_middle_site_reseeds(target, shape, monkeypatch, vanish=(1,)):
    """The rows ``vanish`` of a three-row batch, made to vanish at the middle
    site of the first sweep, each climb as a fresh restart from its own
    reseed; the other rows are unaffected."""
    dims = shape.dims
    cfg = OptimizerConfig(seed=9)
    starts = stacked([random_product(shape, 206 + i) for i in range(3)])
    restarts = [4, 5, 6]
    plain = _climb_rows(target, starts, restarts, [cfg] * 3)
    reseeded = {}
    for i in vanish:
        reseed = _random_factors(dims, [seed_sequence(9, restarts[i], 1)])
        reseeded[i] = _climb_rows(target, reseed, [restarts[i]], [cfg])

    def vanishing(v):
        v[list(vanish)] = 0.0
        return v

    calls = []
    monkeypatch.setattr(product_opt, "_contract_all_but", editing_middle_site(vanishing, calls))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        climbs = _climb_rows(target, starts, restarts, [cfg] * 3)

    assert calls[:4] == THREE_SITE_CALLS
    assert not climbs.degenerate.any()
    for i, reseed in reseeded.items():
        assert climbs.sweeps[i] == reseed.sweeps[0] + 1
        assert climbs.objective[i] == reseed.objective[0]
        for f, g in zip(climbs.factors, reseed.factors):
            assert np.array_equal(f[i], g[0])
    for i in set(range(3)) - set(vanish):  # the rows that did not vanish are unaffected
        assert climbs.sweeps[i] == plain.sweeps[i]
        assert climbs.objective[i] == plain.objective[i]
        assert climbs.converged[i] == plain.converged[i]
        for f, g in zip(climbs.factors, plain.factors):
            assert np.array_equal(f[i], g[i])


class TestFactor:
    @pytest.mark.parametrize("dims", SWEEP_DIMS, ids=str)
    def test_reconstructs_rho(self, dims):
        shape = SystemShape(dims)
        for rho, rank in densities(shape, 400):
            b = _factor(rho.entries)  # rows are the columns of B
            assert b.shape == (rank, shape.total)
            assert np.abs(b.T @ b.conj() - rho.entries).max() <= 1e-13

    def test_maximally_mixed_is_full_rank(self):
        rho = maximally_mixed([2, 2, 2])
        b = _factor(rho.entries)
        assert b.shape == (8, 8)
        assert np.abs(b.T @ b.conj() - rho.entries).max() <= 1e-13

    @pytest.mark.parametrize("dims", [[2, 2, 2], [2, 3, 2], [2] * 4])
    def test_slightly_negative_eigenvalue(self, dims):
        # Validation admits eigenvalues down to -1e-10; the factor stops at
        # the numerical rank, and the value, recomputed from rho, stays
        # finite and at least the best diagonal entry.
        shape = SystemShape(dims)
        spectrum = np.zeros(shape.total)
        spectrum[:4] = [0.5, 0.3, 0.2 + 5e-11, -5e-11]
        u = haar_unitary(shape.total, np.random.default_rng(401))
        rho = DensityMatrix(shape, (u * spectrum) @ u.conj().T)
        assert np.linalg.eigvalsh(rho.entries).min() < -4e-11
        result = pmax_mixed(rho, OptimizerConfig(restarts=5, seed=3))
        assert math.isfinite(result.value)
        assert all(math.isfinite(v) for v in result.best_per_restart)
        assert result.value >= float(np.real(np.diagonal(rho.entries)).max())

    def test_single_draw_equals_per_site_draws(self):
        for dims in ([2, 2, 2], [3, 2], [2, 3, 2], [4], [2] * 6, [8, 8], [7, 5]):
            for batch in (1, 2, 20):
                seeds = [seed_sequence(5, r, 0) for r in range(batch)]
                stacks = _random_factors(dims, seeds)
                assert [f.shape for f in stacks] == [(batch, d) for d in dims]
                for i, seed in enumerate(seeds):
                    for f, g in zip(stacks, site_by_site(np.random.default_rng(seed), dims)):
                        assert np.array_equal(f[i], g)


# A serial copy of the one-restart-at-a-time optimizer that the batched
# engine replaced: each restart climbs alone, and its site updates contract
# with tensordot and build the trailing product with kron.


def serial_pure_site(left, factors, j):
    t = left
    for axis in range(left.ndim - 1, 0, -1):
        t = np.tensordot(t, np.conj(factors[j + axis]), axes=([axis], [0]))
    nv = float(np.linalg.norm(t))
    if nv < product_opt.CONTRACTION_EPS:
        return None
    e = t / nv
    return e, nv * nv, (np.conj(e) @ left.reshape(e.size, -1)).reshape(left.shape[1:])


def serial_mixed_site(left, factors, j):
    d = factors[j].size
    r = left.shape[0] // d
    w = product_amps(factors[j + 1 :]) if j + 1 < len(factors) else np.ones(1, complex)
    env = np.matmul(w.conj(), (left.reshape(-1, r) @ w).reshape(d, r, d))
    if float(np.trace(env).real) < product_opt.CONTRACTION_EPS:
        return None
    vals, vecs = np.linalg.eigh(env)
    e = np.ascontiguousarray(vecs[:, -1])
    ket = (np.conj(e) @ left.reshape(d, -1)).reshape(r, d, r)
    return e, float(vals[-1]), np.matmul(e, ket)


def one_draw(dims, seed):
    return [f[0] for f in _random_factors(dims, [seed])]


def site_by_site(rng, dims):
    """One start drawn from ``rng`` site by site: d_j real parts, then d_j
    imaginary parts, normalized with ``np.linalg.norm``."""
    factors = []
    for d in dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors.append(z / np.linalg.norm(z))
    return factors


def serial_climb(site, target, factors, dims, cfg, restart):
    """Returns (objective, sweeps, degenerate) of one restart."""
    factors = [f.copy() for f in factors]
    prev, sweeps, attempt = -math.inf, 0, 0
    while sweeps < cfg.max_sweeps:
        sweeps += 1
        left, objectives = target, []
        for j in range(len(factors)):
            step = site(left, factors, j)
            if step is None:
                break
            factors[j], objective, left = step
            objectives.append(objective)
        if len(objectives) < len(factors):
            attempt += 1
            if attempt > 3:
                return 0.0, sweeps, True
            factors = one_draw(dims, seed_sequence(cfg.seed, restart, attempt))
            prev = -math.inf
            continue
        if objectives[-1] - prev < cfg.tol:
            return objectives[-1], sweeps, False
        prev = objectives[-1]
    return prev, sweeps, False


def serial_optimize(target, mixed, shape, cfg):
    """(restarts_used, best_per_restart) of the serial restart loop."""
    site = serial_mixed_site if mixed else serial_pure_site
    dims = shape.dims
    if mixed:
        weights = np.real(np.diagonal(target))
    else:
        weights = np.abs(target.reshape(-1)) ** 2
    floor_index = int(np.argmax(weights))
    # Restart r reads the r-th draw of the input's one stream; the first
    # draw is replaced by the uniform start.  Reseeds keep their own keys.
    stream = np.random.default_rng(seed_sequence(cfg.seed, 0, 0))
    starts = [site_by_site(stream, dims) for _ in range(cfg.restarts)]
    starts[0] = [uniform_factor(d) for d in dims]
    per_restart, best = [], None
    for r, start in enumerate(starts, start=1):
        objective, _, degenerate = serial_climb(site, target, start, dims, cfg, r)
        per_restart.append(0.0 if degenerate else objective)
        if not degenerate and (best is None or objective > best):
            best = objective
    if best < weights[floor_index] - 1e-15:
        basis = [np.eye(d, dtype=np.complex128)[x] for d, x in zip(dims, shape.digits_of(floor_index))]
        objective, _, degenerate = serial_climb(site, target, basis, dims, cfg, len(starts) + 1)
        per_restart.append(0.0 if degenerate else objective)
    return len(per_restart), per_restart


def serial_cases():
    cases = []
    for dims in ([2, 2, 2], [3, 2], [2, 3, 2], [2] * 6):
        cases.append((str(dims), random_state(SystemShape(dims), 300 + len(cases))))
    cases += [("ghz4", ghz(4)), ("w4", w_state(4))]
    cases.append(("product", product_to_state(random_product(SystemShape([2, 3, 2]), 310))))
    return cases


class TestBatchedAgainstSerial:
    @pytest.mark.parametrize("case", serial_cases(), ids=lambda c: c[0])
    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_same_restarts_and_values(self, case, mixed):
        state = case[1]
        cfg = OptimizerConfig(restarts=8, seed=17)
        if mixed:
            rho = DensityMatrix(state.shape, np.outer(state.amps, state.amps.conj()))
            result, target = pmax_mixed(rho, cfg), rho.entries
        else:
            result, target = pmax_overlap(state, cfg), state.tensor()
        used, per_restart = serial_optimize(target, mixed, state.shape, cfg)
        assert result.restarts_used == used
        assert np.allclose(result.best_per_restart, per_restart, rtol=0, atol=1e-12)

    def test_basis_floor_is_a_one_hot_start(self, monkeypatch):
        # When every scheduled restart undershoots the best basis product,
        # one more climb starts from that basis state's one-hot rows.
        shape = SystemShape([2, 3, 2])
        state = random_state(shape, 330)
        real, starts, targets = product_opt._climb_rows, [], []

        def undershooting(target, factors, restarts, cfgs):
            starts.append([f.copy() for f in factors])
            targets.append(target)
            climbs = real(target, factors, restarts, cfgs)
            if len(starts) == 1:
                climbs.objective[:] = 0.0
            return climbs

        monkeypatch.setattr(product_opt, "_climb_rows", undershooting)
        result = pmax_overlap(state, OptimizerConfig(restarts=3, seed=1))
        digits = shape.digits_of(int(np.argmax(state.probabilities())))
        assert len(starts) == 2 and result.restarts_used == 4
        for f, d, x in zip(starts[1], shape.dims, digits):
            assert np.array_equal(f, np.eye(d)[[x]])
        assert np.shares_memory(targets[1], state.amps)
        assert result.value >= float(state.probabilities().max())

    def test_mixed_basis_floor_is_the_largest_diagonal_entry(self, monkeypatch):
        # A Gaussian factor is not pivoted, so its first row's largest entry
        # need not sit at rho's largest diagonal entry.
        shape = SystemShape([2, 3, 2])
        rho = random_rank_density(shape, 3, 331)
        diag = np.real(np.diagonal(rho.entries))
        assert np.argmax(np.abs(rho.factor[0])) != np.argmax(diag)
        real, starts, targets = product_opt._climb_rows, [], []

        def undershooting(target, factors, restarts, cfgs):
            starts.append([f.copy() for f in factors])
            targets.append(target)
            climbs = real(target, factors, restarts, cfgs)
            if len(starts) == 1:
                climbs.objective[:] = 0.0
            return climbs

        monkeypatch.setattr(product_opt, "_climb_rows", undershooting)
        result = pmax_mixed(rho, OptimizerConfig(restarts=3, seed=1))
        digits = shape.digits_of(int(np.argmax(diag)))
        assert len(starts) == 2 and result.restarts_used == 4
        for f, d, x in zip(starts[1], shape.dims, digits):
            assert np.array_equal(f, np.eye(d)[[x]])
        assert np.shares_memory(targets[1], rho.factor)
        assert result.value >= diag.max() - 1e-15

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_chunks_match_one_batch(self, monkeypatch, chunk, mixed):
        # A chunk holds chunk * N * K amplitudes: K = 1 for the state, K = 2
        # for the rank-2 density.
        shape = SystemShape([2, 3, 2])
        state = random_state(shape, 320)
        cfg = OptimizerConfig(restarts=7, seed=21)
        rho = random_rank_two_density(shape, 321)
        size = shape.total * (2 if mixed else 1)
        run = (lambda: pmax_mixed(rho, cfg)) if mixed else (lambda: pmax_overlap(state, cfg))
        assert product_opt.CHUNK_AMPLITUDES >= cfg.restarts * size  # one batch
        whole = run()
        real, batches = product_opt._climb_rows, []

        def counted(target, factors, restarts, cfgs):
            assert len(target) * shape.total == size
            batches.append(len(restarts))
            return real(target, factors, restarts, cfgs)

        monkeypatch.setattr(product_opt, "_climb_rows", counted)
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", chunk * size)
        chunked = run()
        expected = {1: [1] * 7, 3: [3, 3, 1]}[chunk]
        assert batches[: len(expected)] == expected
        assert chunked.restarts_used == whole.restarts_used
        assert np.allclose(chunked.best_per_restart, whole.best_per_restart, rtol=0, atol=1e-12)


def assert_same_result(a, b):
    """Every PmaxResult field bit-equal."""
    assert a.value == b.value
    assert a.best_per_restart == b.best_per_restart
    assert (a.sweeps, a.converged, a.restarts_used) == (b.sweeps, b.converged, b.restarts_used)
    for f, g in zip(a.argmax.factors, b.argmax.factors, strict=True):
        assert np.array_equal(f, g)


class TestManyInputs:
    def test_batch_equals_one_by_one(self, two_qubits, three_qubits, monkeypatch):
        # Inputs 0 and 1 share a chunk and differ in tol and sweep budget; the
        # vanishing state is reseeded while the row ahead of it is another
        # input's; both inputs seeded floor_seed take the basis-floor climb,
        # which forces every scheduled restart of theirs to undershoot.
        floor_seed = 99
        vanishing = StateVector(two_qubits, np.array([-1, 1, -1, 1]) / 2)  # uniform start vanishes
        batch = [
            (random_state(three_qubits, 500), OptimizerConfig(restarts=5, tol=1e-2, seed=1)),
            (random_state(three_qubits, 501), OptimizerConfig(restarts=4, max_sweeps=4, seed=2)),
            (random_state(SystemShape([3, 2]), 502), OptimizerConfig(restarts=6, seed=3)),
            (random_state(SystemShape([3, 2]), 503), OptimizerConfig(restarts=2, seed=4)),
            (product_to_state(random_product(three_qubits, 504)), OptimizerConfig(restarts=3, seed=5)),
            (random_rank_two_density(three_qubits, 505), OptimizerConfig(restarts=4, seed=6)),
            (random_rank_two_density(three_qubits, 506), OptimizerConfig(restarts=3, seed=7)),
            (random_state(two_qubits, 507), OptimizerConfig(restarts=3, seed=9)),
            (vanishing, OptimizerConfig(restarts=3, seed=8)),
            (random_state(three_qubits, 508), OptimizerConfig(restarts=3, seed=floor_seed)),
            (random_state(three_qubits, 509), OptimizerConfig(restarts=2, seed=floor_seed)),
        ]
        real_climb, real_starts = product_opt._climb_rows, product_opt._starts
        batches, reseeds, floors = [], [], []

        def undershooting(target, factors, restarts, cfgs):
            batches.append((target.ndim > len(factors) + 1, [c.seed for c in cfgs]))
            if any(r > c.restarts for r, c in zip(restarts, cfgs)):
                floors.append((target, list(restarts)))
            climbs = real_climb(target, factors, restarts, cfgs)
            for k, cfg in enumerate(cfgs):
                if cfg.seed == floor_seed and restarts[k] <= cfg.restarts:
                    climbs.objective[k] = 0.0
            return climbs

        def recorded(keys, dims):
            keys = list(keys)
            reseeds.extend(seed for seed, _, attempt in keys if attempt > 0)
            return real_starts(keys, dims)

        monkeypatch.setattr(product_opt, "_climb_rows", undershooting)
        monkeypatch.setattr(product_opt, "_starts", recorded)
        # Three rows of a three-qubit state per chunk: the first input's five
        # restarts split over two chunks, and the second chunk holds rows of
        # two inputs on a per-row target.  A rank-2 density climbs a row at
        # a time.
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", 24)
        many = pmax_overlap_many([x for x, _ in batch], [cfg for _, cfg in batch])
        assert 8 in reseeds
        assert any(per_row for per_row, _ in batches)
        assert len(floors) == 2  # one one-row call per floor input, on its own target
        for (target, restarts), (x, cfg) in zip(floors, batch[-2:]):
            assert restarts == [cfg.restarts + 1]
            assert np.shares_memory(target, x.amps)
        assert sum(1 in seeds for _, seeds in batches) == 2  # input 0 spans two chunks
        assert [r.restarts_used for r in many[-2:]] == [4, 3]

        for (x, cfg), result in zip(batch, many, strict=True):
            one = pmax_mixed(x, cfg) if isinstance(x, DensityMatrix) else pmax_overlap(x, cfg)
            assert_same_result(result, one)

    def test_state_and_its_one_row_density_share_a_chunk(self, three_qubits, monkeypatch):
        # Both targets are (1, 2, 2, 2), so the restarts of both inputs climb
        # as one chunk, and both equal the state's own call bit for bit.
        state = random_state(three_qubits, 510)
        rho = DensityMatrix.from_factor(three_qubits, state.amps[None])
        cfg = OptimizerConfig(restarts=4, seed=12)
        one = pmax_overlap(state, cfg)
        real, batches = product_opt._climb_rows, []

        def counted(target, factors, restarts, cfgs):
            batches.append(len(restarts))
            return real(target, factors, restarts, cfgs)

        monkeypatch.setattr(product_opt, "_climb_rows", counted)
        many = pmax_overlap_many([state, rho], [cfg, cfg])
        assert batches == [8]
        for result in many:
            assert_same_result(result, one)

    def test_one_config_per_input(self, two_qubits):
        with pytest.raises(DimensionMismatch):
            pmax_overlap_many([bell()], [None, None])
        assert pmax_overlap_many([], []) == []


def start_stream_cases():
    dims = ([2, 2, 2], [3, 2], [2] * 6)
    cases = [(str(d), random_state(SystemShape(d), 610 + i)) for i, d in enumerate(dims)]
    cases.append(("rank-2", random_rank_two_density(SystemShape([2, 2, 2]), 613)))
    return cases


class TestStartStreams:
    """Each input draws its random starts from its own stream in restart
    order, so no result depends on how its restarts are chunked or on the
    inputs that share its batch."""

    @pytest.mark.parametrize("case", start_stream_cases(), ids=lambda c: c[0])
    def test_starts_do_not_depend_on_chunking(self, monkeypatch, case):
        x = case[1]
        cfg = OptimizerConfig(restarts=9, seed=23)
        run = pmax_mixed if isinstance(x, DensityMatrix) else pmax_overlap
        real, batches = product_opt._climb_rows, []

        def counted(target, factors, restarts, cfgs):
            batches[-1].append(len(restarts))
            return real(target, factors, restarts, cfgs)

        monkeypatch.setattr(product_opt, "_climb_rows", counted)
        results = []
        for chunk in (1, 2**4, product_opt.CHUNK_AMPLITUDES):
            monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", chunk)
            batches.append([])
            results.append(run(x, cfg))
        assert batches[0][:9] == [1] * 9 and batches[2][0] == 9
        for result in results[1:]:
            assert_same_result(result, results[0])

    def test_batch_equals_one_by_one_under_small_chunk(self, monkeypatch, three_qubits):
        # Inputs 0, 1 and 5 share chunks of two rows, and inputs 0 and 5
        # share a seed but not a stream.
        batch = [
            (random_state(three_qubits, 620), OptimizerConfig(restarts=5, seed=31)),
            (random_state(three_qubits, 621), OptimizerConfig(restarts=3, seed=32)),
            (random_state(SystemShape([3, 2]), 622), OptimizerConfig(restarts=7, seed=33)),
            (random_rank_two_density(three_qubits, 623), OptimizerConfig(restarts=4, seed=34)),
            (random_state(SystemShape([2] * 6), 624), OptimizerConfig(restarts=3, seed=35)),
            (random_state(three_qubits, 625), OptimizerConfig(restarts=5, seed=31)),
        ]
        ones = [
            pmax_mixed(x, cfg) if isinstance(x, DensityMatrix) else pmax_overlap(x, cfg)
            for x, cfg in batch
        ]
        real, per_row = product_opt._climb_rows, []

        def counted(target, factors, restarts, cfgs):
            per_row.append(target.ndim > len(factors) + 1)
            return real(target, factors, restarts, cfgs)

        monkeypatch.setattr(product_opt, "_climb_rows", counted)
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", 2**4)
        many = pmax_overlap_many([x for x, _ in batch], [cfg for _, cfg in batch])
        assert any(per_row)
        for result, one in zip(many, ones, strict=True):
            assert_same_result(result, one)
