import math

import numpy as np
import pytest

from conftest import traced_peak
from groverian import (
    DimensionMismatch,
    LocalUnitaryLayer,
    OracleSpec,
    OutOfRange,
    StateVector,
    OptimizerConfig,
    SystemShape,
    apply_local,
    basis_state,
    bell,
    grover_iterate,
    haar_unitary,
    inner,
    iteration_bound,
    optimal_iterations,
    pmax_grid_oracle,
    pmax_overlap,
    pmax_simulated,
    random_state,
    run_grover,
    uniform_state,
)
from groverian.verify import _flip_marked, _fourier_layer, _reflect_uniform

SQRT_HALF = math.sqrt(0.5)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF


def marked_probability(oracle, state):
    """Sum of |amp_s|^2 over the marked positions s, read off the dense state."""
    return float(np.sum(np.abs(state.amps[list(oracle.marked)]) ** 2))


def oracle_phase(oracle, state):
    """The dense oracle: verify's in-place flip of the marked amplitudes."""
    amps = state.amps.copy()
    _flip_marked(amps, list(oracle.marked))
    return StateVector(state.shape, amps)


def diffusion(state):
    """The dense reflection about the uniform state, verify's reference."""
    amps = state.amps.copy()
    _reflect_uniform(amps)
    return StateVector(state.shape, amps)


def sine_curve(total, k):
    theta = math.asin(1.0 / math.sqrt(total))
    return math.sin((2 * k + 1) * theta) ** 2


class TestOracleSpec:
    def test_validation(self, two_qubits):
        with pytest.raises(DimensionMismatch):
            OracleSpec(two_qubits, [])
        with pytest.raises(DimensionMismatch):
            OracleSpec(two_qubits, [4])
        with pytest.raises(DimensionMismatch):
            OracleSpec(two_qubits, [1, 1])

    def test_sorted_and_counted(self, two_qubits):
        oracle = OracleSpec(two_qubits, [3, 0])
        assert oracle.marked == (0, 3)
        assert oracle.count == 2

    @pytest.mark.parametrize("index", [1.9, 1.0, "3", None], ids=repr)
    def test_non_integer_index_rejected(self, two_qubits, index):
        # int() would truncate 1.9 to 1 and parse "3"
        with pytest.raises(DimensionMismatch, match="marked index must be an integer"):
            OracleSpec(two_qubits, [0, index])

    def test_numpy_integers_accepted(self, two_qubits):
        oracle = OracleSpec(two_qubits, np.array([3, 1], dtype=np.int64))
        assert oracle.marked == (1, 3)
        assert all(type(x) is int for x in oracle.marked)


class TestOraclePhase:
    def test_sign_flip_on_uniform(self, two_qubits):
        out = oracle_phase(OracleSpec(two_qubits, [0]), uniform_state(two_qubits))
        assert np.allclose(out.amps, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_involution(self, three_qubits):
        state = random_state(three_qubits, 3)
        oracle = OracleSpec(three_qubits, [1, 5])
        out = oracle_phase(oracle, oracle_phase(oracle, state))
        assert np.array_equal(out.amps, state.amps)

    def test_all_marked_is_global_phase(self, two_qubits):
        oracle = OracleSpec(two_qubits, range(4))
        state = random_state(two_qubits, 4)
        run = run_grover(state, oracle, 3)
        assert all(abs(p - 1.0) < 1e-12 for p in run.prob_curve)


class TestDiffusion:
    def test_uniform_fixed_point_up_to_sign(self, two_qubits):
        eta = uniform_state(two_qubits)
        out = diffusion(eta)
        assert abs(abs(inner(eta, out)) - 1.0) <= 1e-14
        # the layered composition carries a global -1 on eta
        assert np.allclose(out.amps, -eta.amps, atol=1e-15)

    def test_basis_state_n4(self, two_qubits):
        # (I - 2|eta><eta|)|0> = |0> - |eta>, by hand
        out = diffusion(basis_state(two_qubits, 0))
        assert np.allclose(out.amps, [0.5, -0.5, -0.5, -0.5], atol=1e-15)
        eta = uniform_state(two_qubits)
        assert abs(abs(inner(eta, out)) - 0.5) <= 1e-15

    def test_unitarity_on_random(self):
        shape = SystemShape([3, 2, 2])
        for i in range(5):
            out = diffusion(random_state(shape, i))
            assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-12

    def test_matches_fourier_composition(self):
        shape = SystemShape([3, 4])
        layer = _fourier_layer(shape)
        # V+ built inline, as check_diffusion_composition builds it
        adjoint = LocalUnitaryLayer(shape, tuple(g.conj().T for g in layer.gates))
        for g, h in zip(layer.gates, adjoint.gates):
            assert np.array_equal(h, g.conj().T)
        state = random_state(shape, 8)
        step = apply_local(adjoint, state)
        amps = step.amps.copy()
        amps[0] *= -1
        composed = apply_local(layer, StateVector(shape, amps))
        assert np.abs(diffusion(state).amps - composed.amps).max() <= 1e-12


class TestGroverIterate:
    def test_n4_single_iteration_exact(self, two_qubits):
        state = grover_iterate(OracleSpec(two_qubits, [2]), uniform_state(two_qubits))
        assert abs(abs(state.amps[2]) - 1.0) <= 1e-15

    def test_n16_sine_formula(self):
        shape = SystemShape([2] * 4)
        oracle = OracleSpec(shape, [5])
        run = run_grover(uniform_state(shape), oracle, iteration_bound(16, 1))
        for k, p in enumerate(run.prob_curve):
            assert abs(p - sine_curve(16, k)) <= 1e-10

    def test_global_phase_covariance(self, three_qubits):
        state = random_state(three_qubits, 9)
        phase = np.exp(0.7j)
        rotated = StateVector(three_qubits, state.amps * phase)
        oracle = OracleSpec(three_qubits, [6])
        a = grover_iterate(oracle, rotated)
        b = grover_iterate(oracle, state)
        assert np.abs(a.amps - phase * b.amps).max() <= 1e-14


class TestIntegerArguments:
    """Integer arguments are read as integers: a float or a string is
    refused, not truncated or parsed, and a numpy integer is accepted."""

    @pytest.mark.parametrize(
        "call, value, error",
        [
            (lambda x: pmax_grid_oracle(bell(), x), 64, OutOfRange),
            (lambda x: haar_unitary(x, np.random.default_rng(3)), 3, DimensionMismatch),
            (lambda x: iteration_bound(x, 2), 8, DimensionMismatch),
            (lambda x: iteration_bound(8, x), 2, DimensionMismatch),
        ],
        ids=["grid-resolution", "unitary-dimension", "bound-total", "bound-marked"],
    )
    def test_floats_and_strings_refused(self, call, value, error):
        expected = call(value)
        assert np.array_equal(call(np.int64(value)), expected)
        for bad in (value + 0.5, float(value), str(value)):
            with pytest.raises(error, match="must be an integer"):
                call(bad)

    @pytest.mark.parametrize("r", [0, -1])
    def test_iteration_bound_needs_a_marked_position(self, r):
        with pytest.raises(DimensionMismatch, match="marked count"):
            iteration_bound(8, r)

    def test_iteration_bound_refuses_more_marked_than_positions(self):
        assert iteration_bound(4, 4) == 1
        with pytest.raises(DimensionMismatch, match="marked count"):
            iteration_bound(4, 5)


class TestOptimalIterations:
    def test_n4(self, two_qubits):
        oracle = OracleSpec(two_qubits, [1])
        assert optimal_iterations(two_qubits, oracle) == 1
        run = run_grover(uniform_state(two_qubits), oracle, 1)
        assert abs(run.prob_curve[1] - 1.0) <= 1e-12

    def test_n16(self):
        shape = SystemShape([2] * 4)
        oracle = OracleSpec(shape, [5])
        m = optimal_iterations(shape, oracle)
        assert m == 3
        run = run_grover(uniform_state(shape), oracle, m)
        expected = sine_curve(16, 3)  # sin^2(7 asin(1/4)) ~ 0.96132
        assert abs(run.prob_curve[3] - expected) <= 1e-12
        assert abs(expected - 0.9613189697265625) <= 1e-12

    def test_all_marked_needs_no_iterations(self, two_qubits):
        oracle = OracleSpec(two_qubits, range(4))
        assert optimal_iterations(two_qubits, oracle) == 0

    @pytest.mark.parametrize(
        "dims,marked",
        [
            ([2, 2], [0, 1, 2, 3]),
            ([2] * 4, [3]),
            ([2] * 4, [1, 6]),
            ([2] * 6, [0, 7, 21]),
            ([3, 3], [2]),
            ([3, 3], [0, 4, 8]),
        ],
    )
    def test_matches_strict_scan(self, dims, marked):
        # the first strict maximum of P(k), found step by step
        shape = SystemShape(dims)
        oracle = OracleSpec(shape, marked)
        state = uniform_state(shape)
        best_k, best_p = 0, marked_probability(oracle, state)
        for k in range(1, iteration_bound(shape.total, oracle.count) + 1):
            state = grover_iterate(oracle, state)
            p = marked_probability(oracle, state)
            if p > best_p:
                best_k, best_p = k, p
        assert optimal_iterations(shape, oracle) == best_k

    @pytest.mark.parametrize(
        "dims",
        [[2] * n for n in range(1, 13)] + [[3], [3, 3], [5], [4, 3], [3, 3, 3], [5, 5]],
        ids=str,
    )
    def test_matches_dense_scan(self, dims):
        # qubits: r in {1, 2, 3, N/4, N/2, N-1, N}; qudits: every r
        shape = SystemShape(dims)
        total = shape.total
        if set(dims) == {2}:
            counts = {1, 2, 3, total // 4, total // 2, total - 1, total} - {0}
            counts = sorted(r for r in counts if r <= total)
        else:
            counts = range(1, total + 1)
        for r in counts:
            oracle = OracleSpec(shape, range(r))
            state = uniform_state(shape)
            curve = [marked_probability(oracle, state)]
            for _ in range(iteration_bound(total, r)):
                state = diffusion(oracle_phase(oracle, state))
                curve.append(marked_probability(oracle, state))
            m = optimal_iterations(shape, oracle)
            top, second = sorted(curve, reverse=True)[:2]  # the bound is >= 1
            if top - second > 1e-12:
                assert m == int(np.argmax(curve)), (dims, r)
            else:  # a tie within 1e-12 goes to the smallest such k
                assert m == min(k for k, p in enumerate(curve) if p >= top - 1e-12), (dims, r)

    @pytest.mark.parametrize(
        "dims,marked",
        [([4, 3], range(6)), ([2] * 3, range(8)), ([3, 3], range(9)), ([2] * 4, range(12))],
        ids=["[4,3]-6-marked", "r=N-qubits", "r=N-qutrits", "r=3N/4"],
    )
    def test_flat_or_falling_curve_takes_zero(self, dims, marked):
        shape = SystemShape(dims)
        assert optimal_iterations(shape, OracleSpec(shape, marked)) == 0

    def test_no_allocation_grows_with_n(self):
        shape = SystemShape([2] * 28)
        for r in (1, 2**16):
            oracle = OracleSpec(shape, range(r))
            m, peak = traced_peak(lambda: optimal_iterations(shape, oracle))
            assert m == iteration_bound(shape.total, r) - 1  # floor(pi/4 sqrt(N/r))
            assert peak < 2**20

    @pytest.mark.parametrize(
        "dims,marked",
        [([2, 2], [0]), ([2] * 4, [3]), ([2] * 6, [0, 9]), ([3, 3], [2]), ([5], [1])],
    )
    def test_bound_respected(self, dims, marked):
        shape = SystemShape(dims)
        oracle = OracleSpec(shape, marked)
        assert optimal_iterations(shape, oracle) <= iteration_bound(
            shape.total, oracle.count
        )


class TestRunGrover:
    def test_large_register_peak(self):
        shape = SystemShape([2] * 10)
        oracle = OracleSpec(shape, [17])
        m = optimal_iterations(shape, oracle)
        run = run_grover(uniform_state(shape), oracle, m)
        assert run.prob_curve[-1] >= 1.0 - 1.0 / 1024
        assert run.iterations == m
        assert len(run.prob_curve) == m + 1

    @pytest.mark.parametrize(
        "dims,marked",
        [([2] * 8, [37]), ([2] * 6, [0, 9, 40]), ([3, 3, 2], [4]), ([3, 3, 2], [1, 7, 12])],
    )
    def test_matches_reference_iterate(self, dims, marked):
        shape = SystemShape(dims)
        state = random_state(shape, 13)
        assert_matches_reference(state, OracleSpec(shape, marked), iteration_bound(shape.total, 1))

    @pytest.mark.parametrize(
        "dims,marked,start,steps",
        [
            ([2] * 6, range(32), "random", 7),
            ([3, 3, 2], range(18), "random", 4),
            ([2] * 12, "random-3", "random", 3 * iteration_bound(2**12, 1)),
            ([3, 3, 2], [1, 7, 12], "basis", 12),
            ([2] * 8, [5, 200], "uniform", 3 * iteration_bound(2**8, 2)),
        ],
        ids=["r=N/2", "r=N", "3-of-4096", "basis-input", "uniform-input"],
    )
    def test_matches_reference_edge_cases(self, dims, marked, start, steps):
        shape = SystemShape(dims)
        if marked == "random-3":
            marked = np.random.default_rng(21).choice(shape.total, size=3, replace=False)
        state = {
            "random": lambda: random_state(shape, 14),
            "basis": lambda: basis_state(shape, 7),
            "uniform": lambda: uniform_state(shape),
        }[start]()
        assert_matches_reference(state, OracleSpec(shape, marked), steps)

    def test_curve_allocates_nothing_n_sized(self):
        shape = SystemShape([2] * 20)
        state = random_state(shape, 15)
        oracle = OracleSpec(shape, (12345,))
        curve, peak = traced_peak(lambda: run_grover(state, oracle, 800).prob_curve)
        assert len(curve) == 801
        assert peak < 2**20

    def test_marked_basis_state_no_iterations(self, two_qubits):
        run = run_grover(basis_state(two_qubits, 3), OracleSpec(two_qubits, [3]), 0)
        assert run.prob_curve == (1.0,)

    def test_invariant_complement_is_frozen(self, two_qubits):
        # (|1> - |2>)/sqrt2 is orthogonal to |eta> and to the target |0>
        amps = np.zeros(4, dtype=complex)
        amps[1], amps[2] = SQRT_HALF, -SQRT_HALF
        run = run_grover(StateVector(two_qubits, amps), OracleSpec(two_qubits, [0]), 4)
        assert all(p == 0.0 for p in run.prob_curve)

    def test_curve_values_are_probabilities(self, three_qubits):
        run = run_grover(random_state(three_qubits, 2), OracleSpec(three_qubits, [0]), 6)
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in run.prob_curve)

    @pytest.mark.parametrize("iterations", [1.5, 2.0, "2", None], ids=repr)
    def test_non_integer_iterations_rejected(self, two_qubits, iterations):
        with pytest.raises(DimensionMismatch, match="iteration count must be an integer"):
            run_grover(uniform_state(two_qubits), OracleSpec(two_qubits, [0]), iterations)

    def test_numpy_iteration_count_accepted(self, two_qubits):
        oracle = OracleSpec(two_qubits, [0])
        run = run_grover(uniform_state(two_qubits), oracle, np.int64(2))
        assert type(run.iterations) is int
        assert run.prob_curve == run_grover(uniform_state(two_qubits), oracle, 2).prob_curve

    def test_negative_iterations_rejected(self, two_qubits):
        for iterations in (-1, 2**30 + 1):
            with pytest.raises(DimensionMismatch, match="cap of 2\\^30"):
                run_grover(uniform_state(two_qubits), OracleSpec(two_qubits, [0]), iterations)


def assert_matches_reference(state, oracle, steps):
    """run_grover against iterating verify's dense reflections, to 1e-12."""
    run = run_grover(state, oracle, steps)
    curve = [marked_probability(oracle, state)]
    for _ in range(steps):
        state = diffusion(oracle_phase(oracle, state))
        curve.append(marked_probability(oracle, state))
    assert len(run.prob_curve) == steps + 1
    assert max(abs(a - b) for a, b in zip(run.prob_curve, curve)) <= 1e-12
    assert np.abs(run.final_state.amps - state.amps).max() <= 1e-12
    assert min(run.prob_curve) >= 0.0


class TestRunModified:
    def test_identity_layer_matches_plain(self, three_qubits):
        state = random_state(three_qubits, 11)
        layer = LocalUnitaryLayer(three_qubits, tuple(np.eye(2) for _ in range(3)))
        oracle = OracleSpec(three_qubits, [4])
        a = run_grover(apply_local(layer, state), oracle, 2)
        b = run_grover(state, oracle, 2)
        assert a.prob_curve == b.prob_curve

    def test_hadamard_layer_recovers_standard_search(self, two_qubits):
        layer = LocalUnitaryLayer(two_qubits, (HADAMARD, HADAMARD))
        for s in range(4):
            prepared = apply_local(layer, basis_state(two_qubits, 0))
            run = run_grover(prepared, OracleSpec(two_qubits, [s]), 1)
            assert abs(run.prob_curve[-1] - 1.0) <= 1e-12


def _basis_completion(v: np.ndarray) -> np.ndarray:
    """Unitary whose first column is exactly v."""
    d = v.size
    pivot = int(np.argmax(np.abs(v)))
    # [v, e_j for j != pivot] is always full rank (det = +/- v[pivot] != 0)
    cols = np.zeros((d, d), dtype=np.complex128)
    cols[:, 0] = v
    k = 1
    for j in range(d):
        if j != pivot:
            cols[j, k] = 1.0
            k += 1
    q, _ = np.linalg.qr(cols)
    # QR returns the first column as v up to a unit phase; undo it.
    q[:, 0] *= complex(np.vdot(q[:, 0], v))
    return q


def alignment_layer(product, shape: SystemShape) -> LocalUnitaryLayer:
    """Per-site unitaries mapping each given factor to the uniform site state."""
    gates = []
    for factor, fourier in zip(product.factors, _fourier_layer(shape).gates):
        gates.append(fourier @ _basis_completion(factor).conj().T)
    return LocalUnitaryLayer(shape, tuple(gates))


def enumerated_average(state, best):
    """The target average by one dense search per marked position, after
    the local layer that rotates ``best.argmax`` onto the uniform state."""
    shape = state.shape
    prepared = apply_local(alignment_layer(best.argmax, shape), state)
    m = optimal_iterations(shape, OracleSpec(shape, (0,)))
    total = 0.0
    for s in range(shape.total):
        total += run_grover(prepared, OracleSpec(shape, (s,)), m).prob_curve[-1]
    return total / shape.total


def uniform_success(shape):
    """P(m) of plain search from the uniform state, m the optimal count."""
    oracle = OracleSpec(shape, (0,))
    run = run_grover(uniform_state(shape), oracle, optimal_iterations(shape, oracle))
    return run.prob_curve[-1]


class TestPmaxSimulated:
    def test_uniform_input(self, two_qubits):
        state = uniform_state(two_qubits)
        value = pmax_simulated(two_qubits, pmax_overlap(state).value)
        assert value >= 1.0 - 1.0 / 4

    def test_product_input(self, three_qubits):
        from groverian import product_to_state, random_product

        state = product_to_state(random_product(three_qubits, 5))
        value = pmax_simulated(three_qubits, pmax_overlap(state).value)
        assert value >= 1.0 - 5.0 / math.sqrt(8)

    def test_bell_input(self, two_qubits):
        value = pmax_simulated(two_qubits, pmax_overlap(bell()).value)
        assert abs(value - 0.5) <= 5.0 / math.sqrt(4)

    def test_cap(self):
        # no size cap: beyond N = 256 the uniform input gives plain search
        shape = SystemShape([2] * 10)
        state = uniform_state(shape)
        best = pmax_overlap(state, OptimizerConfig(restarts=1))
        assert abs(pmax_simulated(shape, best.value) - uniform_success(shape)) <= 1e-12

    @pytest.mark.parametrize("pmax", [-2.0**-1074, 1.0 + 2.0**-52, 2.0, math.nan, math.inf])
    def test_refuses_pmax_outside_the_unit_interval(self, two_qubits, pmax):
        with pytest.raises(OutOfRange, match="outside"):
            pmax_simulated(two_qubits, pmax)

    def test_law_on_every_size(self):
        """f(1/N) = 1/N, f(1) = P_N, a slope in [0, 1], and
        |f(P) - P| <= 1 - P_N <= 1/N, for odd and even N alike."""
        for total in range(2, 4097):
            shape = SystemShape([total])
            floor = 1.0 / total
            top = pmax_simulated(shape, 1.0)
            assert abs(pmax_simulated(shape, floor) - floor) <= 1e-15
            assert abs(top - uniform_success(shape)) <= 1e-13
            assert -1e-15 <= (top - floor) / (1.0 - floor) <= 1.0
            assert 1.0 - top <= floor + 1e-15
            mid = 0.5 * (floor + 1.0)
            assert abs(pmax_simulated(shape, mid) - mid) <= 1.0 - top + 1e-15

    @pytest.mark.parametrize(
        "dims,flat", [([2, 2, 2], [8]), ([2, 3], [6]), ([3, 2, 2], [12])], ids=str
    )
    def test_law_depends_only_on_total(self, dims, flat):
        for p in np.linspace(1.0 / np.prod(flat), 1.0, 7):
            assert pmax_simulated(SystemShape(dims), p) == pmax_simulated(
                SystemShape(flat), p
            )

    @pytest.mark.parametrize(
        "dims",
        [[2], [2, 2], [2, 2, 2], [3, 2], [3, 3], [2, 3, 2], [2] * 8],
        ids=str,
    )
    @pytest.mark.parametrize("kind", ["random", "product", "basis"])
    def test_closed_form_matches_enumeration(self, dims, kind):
        from groverian import product_to_state, random_product

        shape = SystemShape(dims)
        if kind == "random":
            state = random_state(shape, 11)
        elif kind == "product":
            state = product_to_state(random_product(shape, 12))
        else:
            state = basis_state(shape, shape.total - 1)
        best = pmax_overlap(state, OptimizerConfig(restarts=3))
        expect = enumerated_average(state, best)
        assert abs(pmax_simulated(shape, best.value) - expect) <= 1e-12

    def test_one_optimizer_run_per_state(self, optimizer_calls):
        from groverian.verify import check_average_vs_overlap

        (result,) = check_average_vs_overlap(7)
        assert result.passed
        assert optimizer_calls == [4] * 50 + [8] * 50
