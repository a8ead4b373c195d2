import gc
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_environment, same_bits, traced_peak
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
    _basis_start,
    _climb_rows,
    _grid_candidates,
    _sweep_rows,
    _top_sigma_sq_2x2,
)
from groverian.statevector import (
    _factor,
    _unit_stacks,
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_sweeps=2.5),  # no row would reach its budget
            dict(max_sweeps=3.0),
            dict(restarts=2.5),
            dict(restarts="3"),
            dict(seed=1.5),  # would be truncated to 1
            dict(seed="7"),
            dict(tol="1e-3"),
            dict(tol=1e-3 + 0j),
            dict(tol=None),
        ],
    )
    def test_refuses_non_numbers(self, kwargs):
        with pytest.raises(OutOfRange, match="must be an integer|must be a real number"):
            OptimizerConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = OptimizerConfig(
            restarts=np.int64(3), tol=np.float64(1e-9), max_sweeps=np.int64(7), seed=np.int64(-2)
        )
        assert (cfg.restarts, cfg.tol, cfg.max_sweeps, cfg.seed) == (3, 1e-9, 7, -2)
        assert all(type(v) is int for v in (cfg.restarts, cfg.max_sweeps, cfg.seed))
        assert_same_result(
            pmax_overlap(bell(), cfg), pmax_overlap(bell(), OptimizerConfig(3, 1e-9, 7, -2))
        )


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

    def test_products_stay_at_most_one(self, three_qubits):
        # The product of three unit factors, each normalized to within an
        # ulp, overlaps the argmax a few ulps either side of 1.
        states = [product_to_state(random_product(three_qubits, s)) for s in range(300)]
        cfg = OptimizerConfig(restarts=3)
        for result in pmax_overlap_many(states, [cfg] * len(states)):
            assert 1.0 - 1e-12 <= result.value <= 1.0
            assert all(0.0 <= v <= 1.0 for v in result.best_per_restart)

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
        # uniform restart's first contraction vanishes and must climb again
        # from the best basis product; the state is a product, so the
        # recovered optimum is 1
        state = StateVector(two_qubits, np.array([-1, 1, -1, 1]) / 2)
        result = pmax_overlap(state, OptimizerConfig(restarts=3, seed=0))
        assert abs(result.value - 1.0) <= 1e-10


    def test_reseed_without_a_sweep_left_is_degenerate(self, two_qubits):
        # The uniform start vanishes on the first sweep; with one sweep
        # allowed its basis restart never runs, so the restart reports 0.0
        # and the basis-floor climb supplies the value.
        state = StateVector(two_qubits, np.array([1, -1, -1, 1]) / 2)
        cfg = OptimizerConfig(restarts=1, max_sweeps=1)
        start = [uniform_factor(2)[None] for _ in range(2)]
        climbs = _climb_rows(state.tensor()[None], start, cfg)
        assert climbs.objective[0] == 0.0 and climbs.sweeps[0] == 1
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

    def test_products_stay_at_most_one(self):
        shape = SystemShape([2, 3])
        for s in range(300):
            p = pmax_bipartite(product_to_state(random_product(shape, s)), [1])
            assert 1.0 - 1e-12 <= p <= 1.0


def site_one_svd_reference(state, resolution):
    """The grid oracle's rule with numpy's SVD: for each site-1 candidate,
    the top squared singular value of the 2x2 remainder."""
    rest = np.tensordot(_grid_candidates(resolution).conj(), state.tensor(), axes=([1], [0]))
    return float((np.linalg.svd(rest, compute_uv=False)[:, 0] ** 2).max())


def tensordot_reference(state, resolution):
    """The grid oracle's rule with its site-1 contraction as one BLAS
    ``np.tensordot``."""
    rest = np.tensordot(_grid_candidates(resolution).conj(), state.tensor(), axes=([1], [0]))
    if state.shape.n == 3:
        return float(_top_sigma_sq_2x2(np.moveaxis(rest, 0, -1)).max())
    return float((np.abs(rest.reshape(len(rest), -1)) ** 2).sum(axis=1).max())


def one_block_oracle(state, resolution):
    """The grid oracle's rule over every candidate in one block."""
    c, t = np.conj(_grid_candidates(resolution).T, order="C"), state.amps.reshape(2, -1, 1)
    rest = t[0] * c[0]
    rest += t[1] * c[1]
    if state.shape.n == 3:
        return float(_top_sigma_sq_2x2(rest.reshape(2, 2, -1)).max())
    return float((np.abs(rest) ** 2).sum(axis=0).max())


# Prints the oracle's values, as float.hex(), for random 2- and 3-qubit
# states at resolutions 128 and 256.
ORACLE_HEX_SCRIPT = """
from groverian import SystemShape, pmax_grid_oracle, random_state
for n in (2, 3):
    state = random_state(SystemShape([2] * n), 40 + n)
    print([pmax_grid_oracle(state, r).hex() for r in (128, 256)])
"""


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

    def test_monotone_refinement(self):
        # The resolution-64 grid is a subset of the resolution-128 one, with
        # the same candidate bits, so the maximum cannot fall even by rounding.
        # Three qubits at seed 188 fell by one ulp while a candidate's value
        # depended on the batch size.
        for n in (1, 2, 3):
            for seed in (70, 71, 72, *range(185, 191)):
                state = random_state(SystemShape([2] * n), seed)
                assert pmax_grid_oracle(state, 128) >= pmax_grid_oracle(state, 64)

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_tensordot_reference(self, n):
        for seed in range(4):
            state = random_state(SystemShape([2] * n), 130 + seed)
            for resolution in (32, 64, 128):
                value = pmax_grid_oracle(state, resolution)
                assert abs(value - tensordot_reference(state, resolution)) <= 1e-15

    def test_blocks_equal_one_block(self, three_qubits):
        states = [random_state(SystemShape([2] * n), 140 + i) for n in (1, 2, 3) for i in range(16)]
        states += grid_test_states(three_qubits)
        assert len(states) >= 50
        for state in states:
            for resolution in (64, 128, 256):
                value = pmax_grid_oracle(state, resolution)
                assert value.hex() == one_block_oracle(state, resolution).hex()

    def test_same_bits_under_one_and_two_blas_threads(self):
        # One child process per thread count, the two running at once.
        src = str(Path(product_opt.__file__).resolve().parents[1])
        children = []
        for count in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            command = [sys.executable, "-c", ORACLE_HEX_SCRIPT]
            children.append(subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True))
        one, two = [child.communicate(timeout=60)[0] for child in children]
        assert [child.returncode for child in children] == [0, 0]
        assert one.count("0x") == 4
        assert one == two

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
            peak = traced_peak(lambda: pmax_grid_oracle(state, 128))[1]
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

        def refuse():
            with pytest.raises(OutOfRange):
                pmax_grid_oracle(state, resolution)

        peak = traced_peak(refuse)[1]
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
        values = _top_sigma_sq_2x2(np.moveaxis(batch, 0, -1))
        assert np.abs(values - expected).max() <= 1e-14

    def test_value_does_not_depend_on_the_batch(self):
        # Large batches and small ones, and a matrix alone, give the same bits.
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((2, 2, 16384)) + 1j * rng.standard_normal((2, 2, 16384))
        whole = _top_sigma_sq_2x2(batch)
        for k in (slice(None, None, 2), slice(None, None, 4), slice(3, 19), slice(7, 8)):
            assert same_bits(_top_sigma_sq_2x2(batch[..., k].copy()), whole[k])


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

    def test_value_is_the_factor_sum_at_the_argmax(self, three_qubits):
        # Built from a factor or from entries, rho's value is sum_k
        # |<e|b_k>|^2 over the factor the restarts climbed; a one-row factor
        # gives the state's |<e|psi>|^2 exactly.
        state = random_state(three_qubits, 3)
        amps = state.amps
        for rho in (
            DensityMatrix.from_factor(three_qubits, amps[None]),
            DensityMatrix(three_qubits, np.outer(amps, amps.conj())),
            random_full_rank_density(three_qubits, 4),
        ):
            result = pmax_mixed(rho, OptimizerConfig(restarts=3))
            e = product_amps(result.argmax.factors)
            assert result.value == sum(abs(complex(np.vdot(e, b))) ** 2 for b in rho.factor)
            assert abs(result.value - np.vdot(e, rho.entries @ e).real) <= 1e-15
        one_row = pmax_mixed(DensityMatrix.from_factor(three_qubits, amps[None]))
        e = product_amps(one_row.argmax.factors)
        assert one_row.value == abs(complex(np.vdot(e, amps))) ** 2

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

    def contract(tensor, factors, keep):
        v = real(tensor, factors, keep)
        calls.append((len(factors), keep))
        return edit(v.copy()) if len(calls) == 3 else v

    return contract


def assert_middle_site_reseeds(target, shape, monkeypatch, vanish=(1,)):
    """The rows ``vanish`` of a three-row batch, made to vanish at the middle
    site of the first sweep, each climb again from the target's best basis
    product, one sweep later than a one-row climb from it; the other rows
    are unaffected."""
    cfg = OptimizerConfig(seed=9)
    starts = stacked([random_product(shape, 206 + i) for i in range(3)])
    plain = _climb_rows(target, starts, cfg)
    restart = _climb_rows(target, _basis_start(target[None])[1], cfg)

    def vanishing(v):
        v[list(vanish)] = 0.0
        return v

    calls = []
    monkeypatch.setattr(product_opt, "_contract_all_but", editing_middle_site(vanishing, calls))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        climbs = _climb_rows(target, starts, cfg)

    assert calls[:4] == THREE_SITE_CALLS
    assert (climbs.objective > 0.0).all()  # no row vanished on its last sweep
    for i in vanish:
        assert climbs.sweeps[i] == restart.sweeps[0] + 1
        assert climbs.objective[i] == restart.objective[0]
        for f, g in zip(climbs.factors, restart.factors):
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
                z = np.array([np.random.default_rng(s).standard_normal(2 * sum(dims)) for s in seeds])
                stacks = _unit_stacks(z, dims)
                assert [f.shape for f in stacks] == [(batch, d) for d in dims]
                for i, seed in enumerate(seeds):
                    for f, g in zip(stacks, site_by_site(np.random.default_rng(seed), dims)):
                        assert np.array_equal(f[i], g)
                product = random_product(SystemShape(dims), seeds[0])
                for f, g in zip(product.factors, site_by_site(np.random.default_rng(seeds[0]), dims)):
                    assert np.array_equal(f, canonical_phase(g))


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


def site_by_site(rng, dims):
    """One start drawn from ``rng`` site by site: d_j real parts, then d_j
    imaginary parts, normalized with ``np.linalg.norm``."""
    factors = []
    for d in dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors.append(z / np.linalg.norm(z))
    return factors


def serial_climb(site, target, factors, basis, cfg):
    """Returns (objective, sweeps, degenerate) of one restart; a vanished
    contraction climbs again from the ``basis`` factors."""
    factors = [f.copy() for f in factors]
    prev, sweeps = -math.inf, 0
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
            if sweeps == cfg.max_sweeps:
                return 0.0, sweeps, True
            factors = [f.copy() for f in basis]
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
    digits = np.unravel_index(floor_index, dims)
    basis = [np.eye(d, dtype=np.complex128)[x] for d, x in zip(dims, digits)]
    # Restart r reads the r-th draw of the input's one stream; the first
    # draw is replaced by the uniform start.  A vanished restart and the
    # floor both climb from the best basis product.
    stream = np.random.default_rng(seed_sequence(cfg.seed, 0, 0))
    starts = [site_by_site(stream, dims) for _ in range(cfg.restarts)]
    starts[0] = [uniform_factor(d) for d in dims]
    per_restart, best = [], None
    for start in starts:
        objective, _, degenerate = serial_climb(site, target, start, basis, cfg)
        per_restart.append(0.0 if degenerate else objective)
        if not degenerate and (best is None or objective > best):
            best = objective
    if best is None or best < weights[floor_index] - 1e-15:
        objective, _, degenerate = serial_climb(site, target, basis, basis, cfg)
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

    @staticmethod
    def undershooting(climb_calls):
        """Makes the first climb's restarts all report 0.0."""

        def edit(call, climbs):
            if len(climb_calls) == 1:
                climbs.objective[:] = 0.0

        climb_calls.edit = edit

    def test_basis_floor_is_a_one_hot_start(self, climb_calls):
        # When every scheduled restart undershoots the best basis product,
        # one more climb starts from that basis state's one-hot rows.
        shape = SystemShape([2, 3, 2])
        state = random_state(shape, 330)
        self.undershooting(climb_calls)
        result = pmax_overlap(state, OptimizerConfig(restarts=3, seed=1))
        digits = np.unravel_index(int(np.argmax(state.probabilities())), shape.dims)
        assert len(climb_calls) == 2 and result.restarts_used == 4
        for f, d, x in zip(climb_calls[1].starts, shape.dims, digits):
            assert np.array_equal(f, np.eye(d)[[x]])
        assert np.shares_memory(climb_calls[1].target, state.amps)
        assert result.value >= float(state.probabilities().max())

    def test_mixed_basis_floor_is_the_largest_diagonal_entry(self, climb_calls):
        # A Gaussian factor is not pivoted, so its first row's largest entry
        # need not sit at rho's largest diagonal entry.
        shape = SystemShape([2, 3, 2])
        rho = random_rank_density(shape, 3, 331)
        diag = np.real(np.diagonal(rho.entries))
        assert np.argmax(np.abs(rho.factor[0])) != np.argmax(diag)
        self.undershooting(climb_calls)
        result = pmax_mixed(rho, OptimizerConfig(restarts=3, seed=1))
        digits = np.unravel_index(int(np.argmax(diag)), shape.dims)
        assert len(climb_calls) == 2 and result.restarts_used == 4
        for f, d, x in zip(climb_calls[1].starts, shape.dims, digits):
            assert np.array_equal(f, np.eye(d)[[x]])
        assert np.shares_memory(climb_calls[1].target, rho.factor)
        assert result.value >= diag.max() - 1e-15

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_chunks_match_one_batch(self, monkeypatch, climb_calls, chunk, mixed):
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
        climb_calls.clear()
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", chunk * size)
        chunked = run()
        assert all(len(c.target) * shape.total == size for c in climb_calls)
        expected = {1: [1] * 7, 3: [3, 3, 1]}[chunk]
        assert [c.rows for c in climb_calls[: len(expected)]] == expected
        assert chunked.restarts_used == whole.restarts_used
        assert np.allclose(chunked.best_per_restart, whole.best_per_restart, rtol=0, atol=1e-12)


def one_hot(factors):
    """Whether every row of the (R, d_j) start stacks is a basis vector, as
    a floor climb's is; uniform and random starts have no 0 or 1 entry."""
    return all(np.isin(f, (0, 1)).all() for f in factors)


def assert_same_result(a, b):
    """Every PmaxResult field bit-equal."""
    assert a.value == b.value
    assert a.best_per_restart == b.best_per_restart
    assert (a.sweeps, a.converged, a.restarts_used) == (b.sweeps, b.converged, b.restarts_used)
    for f, g in zip(a.argmax.factors, b.argmax.factors, strict=True):
        assert np.array_equal(f, g)


def held_target(x):
    """The (K, d_1, ..., d_n) target the optimizer climbs for ``x``, a view
    of the amplitudes or factor that ``x`` holds."""
    block = x.factor if isinstance(x, DensityMatrix) else x.amps[None]
    return block.reshape((len(block),) + x.shape.dims)


def row_inputs(call, held):
    """The index in ``held`` of each row's input in the ``ClimbCall``, found
    by its target: a shared target's memory, or a stacked row's block."""
    if not call.per_row:
        return [next(i for i, h in enumerate(held) if np.shares_memory(call.target, h))] * call.rows
    return [
        next(i for i, h in enumerate(held) if h.shape == block.shape and np.array_equal(block, h))
        for block in call.target
    ]


class TestManyInputs:
    def test_batch_equals_one_by_one(self, two_qubits, three_qubits, monkeypatch, climb_calls):
        # Inputs 0 and 1 differ in tol and sweep budget, so no chunk holds
        # rows of both; the vanishing state climbs again from its own best
        # basis product while the row ahead of it is another input's; both
        # inputs seeded floor_seed take the basis-floor climb, which forces
        # every scheduled restart of theirs to undershoot.
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
        held = [held_target(x) for x, _ in batch]
        floor_inputs = [i for i, (_, cfg) in enumerate(batch) if cfg.seed == floor_seed]
        real_basis, restarted = product_opt._basis_start, []

        def undershooting(call, climbs):
            if not one_hot(call.starts):
                for k, i in enumerate(row_inputs(call, held)):
                    if i in floor_inputs:
                        climbs.objective[k] = 0.0

        def recorded(block):
            if climb_calls.climbing:  # a vanished row's restart, not the floor check
                restarted.append(block)
            return real_basis(block)

        climb_calls.edit = undershooting
        monkeypatch.setattr(product_opt, "_basis_start", recorded)
        # Three rows of a three-qubit state per chunk: the first input's five
        # restarts split over two chunks, and the [3, 2] states' second chunk
        # holds rows of two inputs on a per-row target.  A rank-2 density
        # climbs a row at a time.
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", 24)
        many = pmax_overlap_many([x for x, _ in batch], [cfg for _, cfg in batch])
        assert restarted and all(np.array_equal(b, vanishing.tensor()[None, None]) for b in restarted)
        assert any(c.per_row for c in climb_calls)
        rows_of = [row_inputs(c, held) for c in climb_calls]
        for call, ins in zip(climb_calls, rows_of):
            assert isinstance(call.cfg, OptimizerConfig)  # one config per call
            budgets = {(batch[i][1].tol, batch[i][1].max_sweeps) for i in ins}
            assert budgets == {(call.cfg.tol, call.cfg.max_sweeps)}
        assert not any(0 in ins and 1 in ins for ins in rows_of)
        floors = [(c, ins) for c, ins in zip(climb_calls, rows_of) if one_hot(c.starts)]
        # one one-row call per floor input, on its own target
        assert [ins for _, ins in floors] == [[i] for i in floor_inputs]
        for call, (i,) in floors:
            assert np.shares_memory(call.target, batch[i][0].amps)
        assert sum(0 in ins for ins in rows_of) == 2  # input 0 spans two chunks
        assert [r.restarts_used for r in many[-2:]] == [4, 3]

        for (x, cfg), result in zip(batch, many, strict=True):
            one = pmax_mixed(x, cfg) if isinstance(x, DensityMatrix) else pmax_overlap(x, cfg)
            assert_same_result(result, one)

    def test_state_and_its_one_row_density_share_a_chunk(self, three_qubits, climb_calls):
        # Both targets are (1, 2, 2, 2), so the restarts of both inputs climb
        # as one chunk, and both equal the state's own call bit for bit.
        state = random_state(three_qubits, 510)
        rho = DensityMatrix.from_factor(three_qubits, state.amps[None])
        cfg = OptimizerConfig(restarts=4, seed=12)
        one = pmax_overlap(state, cfg)
        climb_calls.clear()
        many = pmax_overlap_many([state, rho], [cfg, cfg])
        assert [c.rows for c in climb_calls] == [8]
        for result in many:
            assert_same_result(result, one)

    def test_one_config_per_input(self, two_qubits):
        with pytest.raises(DimensionMismatch):
            pmax_overlap_many([bell()], [None, None])
        assert pmax_overlap_many([], []) == []


# Two-qubit inputs whose uniform start's first contraction vanishes: every
# column has zero row sums, so site 1's environment is zero.
VANISHING = {
    "zero-minus": [np.array([1, -1, 0, 0]) / math.sqrt(2)],  # |0> (x) |->
    "plus-minus": [np.array([-1, 1, -1, 1]) / 2],
    "rank-2": [np.array([1, -1, 0, 0]) / 2, np.array([0, 0, 1, -1]) / 2],  # I/2 (x) |-><-|
}


def vanishing_input(name):
    """The named input, its (K, 2, 2) target and its P_max."""
    shape = SystemShape([2, 2])
    columns = VANISHING[name]
    if len(columns) == 1:
        x = StateVector(shape, columns[0])
        return x, x.tensor()[None], 1.0
    x = DensityMatrix.from_factor(shape, np.array(columns, dtype=complex))
    return x, x.factor.reshape(2, 2, 2), 0.5


class TestBasisRestart:
    """A row whose contraction vanishes climbs again, from its next sweep,
    from its own input's best basis product (``_basis_start``), which
    cannot vanish; with no sweep left it reports 0.0."""

    @staticmethod
    def run(x, cfg):
        return pmax_mixed(x, cfg) if isinstance(x, DensityMatrix) else pmax_overlap(x, cfg)

    @pytest.mark.parametrize("name", VANISHING)
    def test_vanished_start_climbs_from_the_basis_product(self, name):
        x, target, pmax = vanishing_input(name)
        cfg = OptimizerConfig(restarts=1, seed=8)
        uniform = [uniform_factor(2)[None] for _ in range(2)]
        assert _climb_rows(target, uniform, OptimizerConfig(max_sweeps=1)).objective[0] == 0.0
        result = self.run(x, cfg)
        restart = _climb_rows(target, _basis_start(target[None])[1], cfg)
        assert abs(result.value - pmax) <= 1e-15
        assert result.restarts_used == 1
        assert result.best_per_restart == (restart.objective[0],)
        assert result.sweeps == restart.sweeps[0] + 1
        for f, g in zip(result.argmax.factors, restart.factors, strict=True):
            assert np.array_equal(f, canonical_phase(g[0]))

    @pytest.mark.parametrize("name", VANISHING)
    def test_no_sweep_left_is_degenerate_and_the_floor_climbs(self, name):
        x, target, pmax = vanishing_input(name)
        cfg = OptimizerConfig(restarts=1, max_sweeps=1)
        result = self.run(x, cfg)
        floor = _climb_rows(target, _basis_start(target[None])[1], cfg)
        assert result.restarts_used == 2  # restart R + 1 is the floor
        assert result.best_per_restart == (0.0, floor.objective[0])
        assert result.value >= _basis_start(target[None])[0][0] - 1e-15
        assert abs(result.value - pmax) <= 1e-15

    def test_stacked_basis_rule_equals_one_block_at_a_time(self):
        # Rank-2 blocks sum over K; the GHZ block ties |000> with |111>.
        shape = SystemShape([2, 2, 2])
        rhos = [random_rank_density(shape, 2, 340 + g) for g in range(3)]
        blocks = [rho.factor.reshape(2, 2, 2, 2) for rho in rhos]
        blocks.append(np.concatenate([ghz(3).tensor()[None], np.zeros((1, 2, 2, 2))]))
        weights, starts = _basis_start(np.stack(blocks))
        for g, block in enumerate(blocks):
            weight, start = _basis_start(block[None])
            assert same_bits(weights[g], weight[0])
            for f, h in zip(starts, start, strict=True):
                assert np.array_equal(f[g : g + 1], h)
        for g, rho in enumerate(rhos):
            diag = np.real(np.diagonal(rho.entries))
            digits = np.unravel_index(int(np.argmax(diag)), shape.dims)
            assert abs(weights[g] - diag.max()) <= 1e-15
            assert [int(np.argmax(f[g])) for f in starts] == list(digits)
        assert [int(np.argmax(f[3])) for f in starts] == [0, 0, 0]  # the first of a tie

    def test_row_restarts_from_its_own_input_in_a_stacked_chunk(
        self, two_qubits, monkeypatch, climb_calls
    ):
        # The chunk stacks two restarts of `first`, whose best basis product
        # is |01>, ahead of the vanishing input's one row, whose is |00>.
        first = StateVector(two_qubits, np.array([0.1, 0.9, 0.3, 0.3]))  # unit norm
        vanishing, target, _ = vanishing_input("plus-minus")
        cfgs = [OptimizerConfig(restarts=2, seed=3), OptimizerConfig(restarts=1, seed=4)]
        ones = [pmax_overlap(x, cfg) for x, cfg in zip((first, vanishing), cfgs)]
        real_basis, restarted = product_opt._basis_start, []

        def recorded_basis(block):
            if climb_calls.climbing:
                restarted.append(block.copy())
            return real_basis(block)

        climb_calls.clear()
        monkeypatch.setattr(product_opt, "_basis_start", recorded_basis)
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", 3 * 4)
        many = pmax_overlap_many([first, vanishing], cfgs)
        assert [c.rows for c in climb_calls if c.target.ndim == 4] == [3]
        assert len(restarted) == 1 and np.array_equal(restarted[0], target[None])
        assert not np.array_equal(restarted[0], first.tensor()[None, None])
        assert np.array_equal(real_basis(target[None])[1][1], [[1, 0]])
        assert np.array_equal(real_basis(first.tensor()[None, None])[1][1], [[0, 1]])
        for result, one in zip(many, ones, strict=True):
            assert_same_result(result, one)


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
    def test_starts_do_not_depend_on_chunking(self, monkeypatch, climb_calls, case):
        x = case[1]
        cfg = OptimizerConfig(restarts=9, seed=23)
        run = pmax_mixed if isinstance(x, DensityMatrix) else pmax_overlap
        results, batches = [], []
        for chunk in (1, 2**4, product_opt.CHUNK_AMPLITUDES):
            monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", chunk)
            climb_calls.clear()
            results.append(run(x, cfg))
            batches.append([c.rows for c in climb_calls])
        assert batches[0][:9] == [1] * 9 and batches[2][0] == 9
        for result in results[1:]:
            assert_same_result(result, results[0])

    def test_batch_equals_one_by_one_under_small_chunk(
        self, monkeypatch, climb_calls, three_qubits
    ):
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
        climb_calls.clear()
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", 2**4)
        many = pmax_overlap_many([x for x, _ in batch], [cfg for _, cfg in batch])
        assert any(c.per_row for c in climb_calls)
        for result, one in zip(many, ones, strict=True):
            assert_same_result(result, one)


class TestSharedTargetChunks:
    """A target of more than CHUNK_AMPLITUDES amplitudes climbs one input's
    rows per chunk on its own shared target, CHUNK_AMPLITUDES // (K * H) at
    a time, H the larger half environment of a sweep's top split; a smaller
    one keeps CHUNK_AMPLITUDES // (K * N) rows per chunk."""

    def test_large_state_climbs_its_restarts_together(self, climb_calls):
        # 2^17 amplitudes pass CHUNK_AMPLITUDES, but a row holds only 2^9
        # amplitude half environments, so all five rows share one chunk.
        state = random_state(SystemShape([2] * 17), 630)
        assert state.shape.total > product_opt.CHUNK_AMPLITUDES
        result = pmax_overlap(state, OptimizerConfig(restarts=5, max_sweeps=3, seed=4))
        assert [c.rows for c in climb_calls] == [5]
        assert np.shares_memory(climb_calls[0].target, state.amps)
        assert result.restarts_used == 5

    @pytest.mark.parametrize(
        "make, chunk_amplitudes, rows",
        [
            # N = 64, halves of 8 amplitudes: 24 // 8 = 3 rows per chunk.
            (lambda: random_state(SystemShape([2] * 6), 631), 24, 3),
            # K = 2, N = 8, halves of 2 and 4 amplitudes: 12 // (2 * 4) = 1.
            (lambda: random_rank_two_density(SystemShape([2, 2, 2]), 632), 12, 1),
            # K = 2, N = 16, halves of 4 amplitudes: 24 // (2 * 4) = 3.
            (lambda: random_rank_two_density(SystemShape([2] * 4), 633), 24, 3),
        ],
        ids=["2x6-state", "rank-2-2x3", "rank-2-2x4"],
    )
    def test_chunks_of_half_environment_size(
        self, monkeypatch, climb_calls, make, chunk_amplitudes, rows
    ):
        x = make()
        run = pmax_mixed if isinstance(x, DensityMatrix) else pmax_overlap
        held = x.factor if isinstance(x, DensityMatrix) else x.amps
        cfg = OptimizerConfig(restarts=7, seed=24)
        assert chunk_amplitudes < len(held.reshape(-1))  # below K * N
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", chunk_amplitudes)
        chunked = run(x, cfg)
        expected = [rows] * (7 // rows) + [7 % rows] * (7 % rows > 0)
        assert [c.rows for c in climb_calls[: len(expected)]] == expected
        assert all(np.shares_memory(c.target, held) for c in climb_calls)
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", 1)
        climb_calls.clear()
        one_row = run(x, cfg)
        assert all(c.rows == 1 for c in climb_calls)
        assert_same_result(chunked, one_row)

    def test_large_inputs_never_share_a_stack(self, monkeypatch, climb_calls):
        # Two 64-amplitude states pass CHUNK_AMPLITUDES = 32 and climb on
        # their own targets, four rows a chunk; the 8-amplitude state keeps
        # the per-row rule, and its chunks spanning inputs are stacks.
        six = SystemShape([2] * 6)
        batch = [
            (random_state(six, 634), OptimizerConfig(restarts=5, seed=41)),
            (random_state(SystemShape([2, 2, 2]), 635), OptimizerConfig(restarts=3, seed=42)),
            (random_state(six, 636), OptimizerConfig(restarts=6, seed=43)),
            (random_state(SystemShape([2, 2, 2]), 637), OptimizerConfig(restarts=2, seed=44)),
        ]
        ones = [pmax_overlap(x, cfg) for x, cfg in batch]
        climb_calls.clear()
        monkeypatch.setattr(product_opt, "CHUNK_AMPLITUDES", 32)
        many = pmax_overlap_many([x for x, _ in batch], [cfg for _, cfg in batch])
        large = [(c.rows, c.target) for c in climb_calls if c.target.shape[-6:] == six.dims]
        assert [n for n, _ in large[:4]] == [4, 1, 4, 2]
        for _, target in large:
            assert target.ndim == 7  # shared (K, d_1, ..., d_6), never stacked
            assert any(np.shares_memory(target, x.amps) for x, _ in batch[::2])
        small = [c.target for c in climb_calls if c.target.shape[-6:] != six.dims]
        stacks = [t for t in small if t.ndim > 4]
        assert stacks and all(t.size <= 32 for t in stacks)
        for result, one in zip(many, ones, strict=True):
            assert_same_result(result, one)
