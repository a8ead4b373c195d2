import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverian import (
    DensityMatrix,
    DimensionMismatch,
    InvalidDensity,
    OutOfRange,
    StateVector,
    SystemShape,
    WrongShape,
    bell,
    binary_entropy,
    bures_distance,
    entropy_check,
    ghz,
    groverian,
    groverian_bipartite,
    groverian_mixed,
    groverian_product_mixed,
    majorizes,
    product_to_state,
    random_product,
    random_state,
    w_state,
)
from groverian.measures import monotone_check_rows
from groverian.statevector import haar_unitary
from groverian.verify import _majorizing_pairs

SQRT_HALF = math.sqrt(0.5)


def schmidt_pair_state(p):
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = math.sqrt(p), math.sqrt(1 - p)
    return StateVector(SystemShape([2, 2]), amps)


class TestGroverianPure:
    def test_product_state_zero(self):
        state = product_to_state(random_product(SystemShape([2, 2, 2]), 7))
        assert groverian(state).groverian <= 1e-6

    def test_bell(self):
        report = groverian(bell())
        assert abs(report.groverian - SQRT_HALF) <= 1e-9
        assert report.method == "alternating"
        assert report.converged

    def test_w3(self):
        report = groverian(w_state(3))
        assert abs(report.groverian - math.sqrt(5.0 / 9.0)) <= 1e-9

    def test_report_identities(self, three_qubits):
        report = groverian(random_state(three_qubits, 17))
        assert abs(report.groverian**2 + report.pmax - 1.0) <= 1e-14
        assert abs(report.vedral_e - (2 - 2 * math.sqrt(report.pmax))) <= 1e-14

    def test_range_bound(self, three_qubits):
        report = groverian(random_state(three_qubits, 18))
        assert 0.0 <= report.groverian <= math.sqrt(1 - 1 / 8) + 1e-12


class TestGroverianBipartite:
    def test_product(self, two_qubits):
        from groverian import basis_state

        report = groverian_bipartite(basis_state(two_qubits, 0), [1])
        assert report.groverian == 0.0
        assert report.method == "bipartite-closed-form"

    def test_bell(self):
        assert abs(groverian_bipartite(bell(), [1]).groverian - SQRT_HALF) <= 1e-12

    def test_constructed_spectrum(self):
        report = groverian_bipartite(schmidt_pair_state(0.7), [1])
        assert abs(report.groverian - math.sqrt(0.3)) <= 1e-12


class TestEntropyRelation:
    def test_product(self, two_qubits):
        from groverian import basis_state

        s, h = entropy_check(basis_state(two_qubits, 0))
        assert s == pytest.approx(0.0, abs=1e-12)
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_bell(self):
        s, h = entropy_check(bell())
        assert s == pytest.approx(1.0, abs=1e-12)
        assert h == pytest.approx(1.0, abs=1e-12)

    def test_constructed_spectrum(self):
        s, h = entropy_check(schmidt_pair_state(0.7))
        expected = binary_entropy(0.3)  # 0.88129...
        assert abs(expected - 0.8812908992306927) <= 1e-15
        assert s == pytest.approx(expected, abs=1e-12)
        assert h == pytest.approx(expected, abs=1e-12)

    def test_wrong_shape(self, three_qubits):
        with pytest.raises(WrongShape):
            entropy_check(random_state(three_qubits, 0))

    def test_agreement_on_random_states(self, two_qubits):
        for i in range(20):
            s, h = entropy_check(random_state(two_qubits, 300 + i))
            assert abs(s - h) <= 1e-9

    def test_agreement_near_product(self):
        # x log x has unbounded slope near 0; the relation must still hold
        s, h = entropy_check(schmidt_pair_state(1 - 1e-10))
        assert abs(s - h) <= 1e-9


class TestBinaryEntropy:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
    def test_known_values(self, x, expected):
        assert binary_entropy(x) == pytest.approx(expected, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            binary_entropy(1.5)


class TestGroverianMixed:
    def test_pure_product_projector(self, two_qubits):
        state = product_to_state(random_product(two_qubits, 5))
        rho = DensityMatrix(two_qubits, np.outer(state.amps, state.amps.conj()))
        assert groverian_mixed(rho).groverian <= 1e-6

    def test_maximally_mixed_two_qubits(self, two_qubits):
        rho = DensityMatrix(two_qubits, np.eye(4) / 4)
        report = groverian_mixed(rho)
        # separable input with the maximal value sqrt(1 - 1/N): the linear
        # extension is not a monotone
        assert abs(report.groverian - math.sqrt(3) / 2) <= 1e-9
        assert report.method == "mixed"

    def test_product_densities(self, two_qubits):
        rng = np.random.default_rng(3)
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        r1 = u1 @ np.diag([0.9, 0.1]) @ u1.conj().T
        r2 = u2 @ np.diag([0.6, 0.4]) @ u2.conj().T
        rho = DensityMatrix(two_qubits, np.kron(r1, r2))
        report = groverian_mixed(rho)
        assert abs(report.groverian - math.sqrt(1 - 0.54)) <= 1e-9
        assert abs(report.groverian - groverian_product_mixed([r1, r2])) <= 1e-9


class TestGroverianProductMixed:
    def test_all_pure(self):
        locals_ = [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]
        assert groverian_product_mixed(locals_) == 0.0

    def test_two_maximally_mixed_qubits(self):
        locals_ = [np.eye(2) / 2, np.eye(2) / 2]
        assert abs(groverian_product_mixed(locals_) - math.sqrt(0.75)) <= 1e-15

    def test_arithmetic(self):
        locals_ = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
        assert abs(groverian_product_mixed(locals_) - math.sqrt(0.46)) <= 1e-15

    @pytest.mark.parametrize(
        "bad",
        [
            [np.eye(2)],  # trace 2
            [np.array([[0.5, 0.5], [-0.5, 0.5]])],  # not Hermitian
            [np.diag([1.5, -0.5])],  # negative eigenvalue
            [np.array([[0.5, math.inf], [math.inf, 0.5]])],  # infinite entries
            [np.array([[0.5, math.nan], [math.nan, 0.5]])],  # NaN entries
        ],
    )
    def test_invalid_density(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDensity):
                groverian_product_mixed(bad)

    def test_empty_register_refused(self):
        with pytest.raises(DimensionMismatch, match="register needs at least one site"):
            groverian_product_mixed([])


class TestBuresDistance:
    def test_endpoints(self):
        assert bures_distance(1.0) == 0.0
        assert bures_distance(0.0) == 1.0

    def test_definitional_chain_on_bell(self):
        report = groverian_bipartite(bell(), [1])
        assert abs(bures_distance(math.sqrt(report.pmax)) - report.groverian) <= 1e-14

    @pytest.mark.parametrize("f", [-0.1, 1.1])
    def test_out_of_range(self, f):
        with pytest.raises(OutOfRange):
            bures_distance(f)


def closed_form(p):
    """The bipartite measure sqrt(1 - max p) of a Schmidt spectrum."""
    return math.sqrt(max(0.0, 1.0 - max(p)))


def one_row_check(source, target):
    """``monotone_check_rows`` on one pair, zero-padded to a common length."""
    size = max(len(source), len(target))
    s, t = (np.pad(np.asarray(p, dtype=float), (0, size - len(p))) for p in (source, target))
    applicable, monotone = monotone_check_rows(s[None], t[None])
    return bool(applicable[0]), bool(monotone[0])


class TestMonotoneCheck:
    def test_bell_to_product(self):
        assert one_row_check([0.5, 0.5], [1.0]) == (True, True)
        # the reverse is unreachable, and g rises from 0 to sqrt(1/2)
        assert one_row_check([1.0], [0.5, 0.5]) == (False, False)

    def test_partial_sums(self):
        assert one_row_check([0.5, 0.5], [0.7, 0.3]) == (True, True)

    def test_not_applicable(self):
        assert one_row_check([0.7, 0.3], [0.5, 0.5]) == (False, False)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=4),
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=4),
    )
    @settings(max_examples=200, derandomize=True)
    def test_monotone_whenever_applicable(self, raw_s, raw_t):
        source = np.asarray(raw_s) / np.sum(raw_s)
        target = np.asarray(raw_t) / np.sum(raw_t)
        applicable, monotone = one_row_check(source, target)
        if applicable:
            assert monotone

    def test_majorizes_helper(self):
        assert majorizes([1.0], [0.5, 0.5])
        assert majorizes([0.7, 0.3], [0.5, 0.5])
        assert not majorizes([0.5, 0.5], [0.7, 0.3])
        assert majorizes([0.5, 0.5], [0.5, 0.5])

    @pytest.mark.parametrize("outcomes", [2, 3, 4])
    def test_rows_match_pairwise_check(self, outcomes):
        rng = np.random.default_rng(outcomes)
        source = rng.dirichlet(np.ones(outcomes), size=300)
        target = rng.dirichlet(np.ones(outcomes), size=300)
        # Ties: equal spectra, permuted equal spectra, and a shared top entry.
        target[:50] = source[:50]
        target[50:100] = source[50:100, ::-1]
        source[100:150] = [0.5] + [0.5 / (outcomes - 1)] * (outcomes - 1)
        target[100:150, 0] = 0.5
        target[100:150, 1:] = rng.dirichlet(np.ones(outcomes - 1), size=50) * 0.5
        applicable, monotone = monotone_check_rows(source, target)
        for s, t, a, m in zip(source, target, applicable, monotone):
            assert a == majorizes(t, s)
            assert m == (closed_form(s) >= closed_form(t) - 1e-12)
        assert applicable[:100].all()

    @pytest.mark.parametrize("outcomes", [2, 3])
    def test_block_pairs_match_pair_by_pair_draws(self, outcomes):
        sequential, pairs = np.random.default_rng(5), []
        while len(pairs) < 300:
            s = sequential.dirichlet(np.ones(outcomes))
            t = sequential.dirichlet(np.ones(outcomes))
            if majorizes(t, s):
                pairs.append((s, t))
        blocked = np.random.default_rng(5)
        assert np.array_equal(_majorizing_pairs(blocked, outcomes, 300), np.array(pairs))


class TestVedralRelation:
    def test_strictly_decreasing_in_pmax(self):
        # both measures order states identically
        reports = [groverian_bipartite(schmidt_pair_state(p), [1]) for p in
                   (0.5, 0.6, 0.7, 0.8, 0.95)]
        gs = [r.groverian for r in reports]
        es = [r.vedral_e for r in reports]
        assert gs == sorted(gs, reverse=True)
        assert es == sorted(es, reverse=True)


class TestLocalUnitaryInvariance:
    def test_measure_invariant(self, three_qubits):
        from groverian import apply_local, random_local_layer

        state = random_state(three_qubits, 77)
        layer = random_local_layer(three_qubits, 78)
        a = groverian(state).groverian
        b = groverian(apply_local(layer, state)).groverian
        assert abs(a - b) <= 1e-8

    def test_ghz_constant_across_sizes(self):
        for n in (2, 3, 4):
            assert abs(groverian(ghz(n)).groverian - SQRT_HALF) <= 1e-6
