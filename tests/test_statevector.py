import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_environment, same_bits, traced_peak
from groverian import (
    BadSplit,
    BadSubset,
    DensityMatrix,
    DimensionMismatch,
    GroverianError,
    InvalidDensity,
    LocalUnitaryLayer,
    NotNormalized,
    OutOfRange,
    ProductState,
    StateVector,
    SystemShape,
    ZeroVector,
    apply_local,
    basis_state,
    ghz,
    inner,
    maximally_mixed,
    product_to_state,
    random_local_layer,
    random_product,
    random_state,
    reduced_density,
    schmidt,
    schmidt_reconstruction_error,
    uniform_state,
    w_state,
)
from groverian.families import random_rank_density
from groverian.fileio import load_state, save_state
from groverian.grover import OracleSpec, run_grover
from groverian.statevector import (
    DENSITY_TOL,
    _complex_normals,
    _contract_all_but,
    haar_unitary,
    product_amps,
    split_matrix,
)
from groverian.verify import _fourier_layer

SQRT_HALF = math.sqrt(0.5)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF


def bell_state():
    return StateVector(SystemShape([2, 2]), [SQRT_HALF, 0, 0, SQRT_HALF])


class TestSystemShape:
    def test_basic(self):
        shape = SystemShape([2, 3, 4])
        assert shape.n == 3
        assert shape.total == 24

    @pytest.mark.parametrize("dims", [[], [1], [2, 1], [0, 2], [2, -3]])
    def test_invalid_dims(self, dims):
        with pytest.raises(DimensionMismatch):
            SystemShape(dims)

    def test_overflow_guarded(self):
        with pytest.raises(DimensionMismatch):
            SystemShape([2] * 80)

    @pytest.mark.parametrize("dims", [[2.9, 3], [2, "3"], "23", [2, 2.0]])
    def test_dims_are_integers(self, dims):
        # int() would read [2.9, '3'] as (2, 3).
        with pytest.raises(DimensionMismatch, match="must be an integer"):
            SystemShape(dims)

    def test_numpy_integer_dims_accepted(self):
        shape = SystemShape(np.array([2, 3], dtype=np.int64))
        assert shape.dims == (2, 3) and all(type(d) is int for d in shape.dims)

    def test_big_endian_indexing(self):
        shape = SystemShape([2, 3])
        # site 1 is most significant: (x1, x2) -> 3*x1 + x2
        assert np.ravel_multi_index((1, 2), shape.dims) == 5


class TestMakeState:
    """StateVector construction, the one validation gate for amplitudes."""

    def test_basis_qubit(self):
        state = StateVector(SystemShape([2]), [1, 0])
        assert np.array_equal(state.amps, np.array([1, 0], dtype=complex))

    def test_bell_norm(self):
        assert abs(np.linalg.norm(bell_state().amps) - 1.0) < 1e-15

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            StateVector(SystemShape([2]), [1, 1])

    @pytest.mark.parametrize("index", [1.5, 1.0, "1"])
    def test_basis_index_is_an_integer(self, index):
        with pytest.raises(DimensionMismatch, match="must be an integer"):
            basis_state(SystemShape([2, 2]), index)

    def test_basis_index_numpy_integer_accepted(self):
        assert basis_state(SystemShape([2, 2]), np.int64(3)).amps[3] == 1.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            StateVector(SystemShape([2]), [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StateVector(SystemShape([2, 2]), [1, 0])

    def test_renormalizes_within_window(self):
        state = StateVector(SystemShape([2]), [1 + 5e-9, 0])
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-15

    def test_keeps_input_within_drift(self):
        amps = np.array([1 + 1e-13, 0], dtype=complex)
        state = StateVector(SystemShape([2]), amps.copy())
        assert np.array_equal(state.amps, amps)

    def test_amps_read_only(self):
        state = bell_state()
        with pytest.raises(ValueError):
            state.amps[0] = 1.0

    def test_caller_array_stays_writable(self):
        a = np.array([1, 0], dtype=complex)
        state = StateVector(SystemShape([2]), a)
        assert a.flags.writeable
        a[:] = [0, 1]
        assert np.array_equal(state.amps, [1, 0])

    def test_read_only_view_of_writable_array_is_copied(self):
        a = np.array([1, 0], dtype=complex)
        view = a.view()
        view.setflags(write=False)
        state = StateVector(SystemShape([2]), view)
        a[:] = [0, 1]
        assert np.array_equal(state.amps, [1, 0])

    def test_read_only_array_is_kept(self):
        a = np.array([1, 0], dtype=complex)
        a.setflags(write=False)
        assert StateVector(SystemShape([2]), a).amps is a

    def test_density_and_gates_leave_caller_arrays_writable(self):
        m = np.eye(2, dtype=complex) / 2
        g = HADAMARD.copy()
        rho = DensityMatrix(SystemShape([2]), m)
        layer = LocalUnitaryLayer(SystemShape([2]), (g,))
        assert m.flags.writeable and g.flags.writeable
        m[0, 0] = g[0, 0] = 0.0
        assert rho.entries[0, 0] == 0.5
        assert layer.gates[0][0, 0] == SQRT_HALF

    @given(st.floats(min_value=1e-11, max_value=0.5))
    @settings(max_examples=30, derandomize=True)
    def test_rejects_outside_window(self, off):
        if off <= 1e-8:
            StateVector(SystemShape([2]), [1 + off, 0])
        else:
            with pytest.raises(NotNormalized):
                StateVector(SystemShape([2]), [1 + off, 0])


class TestBuildersMakeNoCopy:
    """Builders hand StateVector a fresh read-only buffer, which it keeps:
    constructing their result allocates nothing N-sized."""

    SHAPE = SystemShape([2] * 20)

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        state = random_state(self.SHAPE, 1)
        path = tmp_path_factory.mktemp("state") / "state.json"
        save_state(state, path)
        return {
            "random_state": lambda: random_state(self.SHAPE, 2),
            "load_state": lambda: load_state(path),
            "apply_local": lambda: apply_local(random_local_layer(self.SHAPE, 3), state),
            "product_to_state": lambda: product_to_state(random_product(self.SHAPE, 4)),
            "final_state": lambda: run_grover(state, OracleSpec(self.SHAPE, (5,)), 3).final_state,
        }

    @pytest.mark.parametrize(
        "builder", ["random_state", "load_state", "apply_local", "product_to_state", "final_state"]
    )
    def test_constructor_allocates_no_copy(self, monkeypatch, inputs, builder):
        real = StateVector.__post_init__
        growth = []

        def traced(self):
            growth.append(traced_peak(lambda: real(self))[1])

        monkeypatch.setattr(StateVector, "__post_init__", traced)
        state = inputs[builder]()
        assert state.shape == self.SHAPE
        assert growth and max(growth) < self.SHAPE.total * 16 // 4


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_every_constructor_rejects(self, bad):
        qubit = SystemShape([2])
        with pytest.raises(NotNormalized):
            StateVector(qubit, [bad, 0])
        with pytest.raises(NotNormalized):
            ProductState(qubit, (np.array([bad, 0.0]),))
        with pytest.raises(NotNormalized):
            LocalUnitaryLayer(qubit, (np.array([[bad, 0], [0, 1]]),))
        with pytest.raises(InvalidDensity):
            DensityMatrix(qubit, np.array([[bad, 0], [0, 0.5]]))

    @pytest.mark.parametrize("bad", [-math.inf, complex(0, math.inf), math.nan])
    def test_non_finite_entry_named_without_warning(self, bad):
        qubit = SystemShape([2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalized, match="non-finite"):
                LocalUnitaryLayer(qubit, (np.array([[1, 0], [0, bad]]),))
            with pytest.raises(InvalidDensity, match="non-finite"):
                DensityMatrix(qubit, np.array([[0.5, bad], [0, 0.5]]))


class TestBoundaryRefusals:
    """Malformed data reaching a public constructor or builder is refused
    with a GroverianError: non-numeric dtypes before any conversion, seeds
    the generator cannot take, and empty unitaries."""

    QUBIT = SystemShape([2])

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda q: DensityMatrix(q, "ab"), InvalidDensity),
            (lambda q: DensityMatrix(q, [["0.5", "0"], ["0", "0.5"]]), InvalidDensity),
            (lambda q: DensityMatrix.from_factor(q, [["1", "0"]]), InvalidDensity),
            (lambda q: StateVector(q, [10**400, 0]), NotNormalized),
            (lambda q: StateVector(q, ["1", "0"]), NotNormalized),
            (lambda q: StateVector(q, [[1, 0], [0]]), NotNormalized),
            (lambda q: ProductState(q, (["1", "0"],)), NotNormalized),
            (lambda q: LocalUnitaryLayer(q, ([["1", "0"], ["0", "1"]],)), NotNormalized),
            (lambda q: random_state(q, "x"), OutOfRange),
            (lambda q: random_product(q, -1), OutOfRange),
            (lambda q: random_local_layer(q, 1.5), OutOfRange),
            (lambda q: haar_unitary(0, np.random.default_rng(0)), DimensionMismatch),
            (lambda q: haar_unitary(-2, np.random.default_rng(0)), DimensionMismatch),
            (lambda q: ghz("3"), DimensionMismatch),
            (lambda q: SystemShape(2), DimensionMismatch),
        ],
    )
    def test_refused(self, build, error):
        with pytest.raises(error):
            build(self.QUBIT)

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_only_validated_results_or_refusals(self, data):
        build = data.draw(st.sampled_from(sorted(BUILDERS)))
        try:
            value = BUILDERS[build](data.draw)
        except GroverianError:
            return
        assert validated(value), build


# Data a caller may hand the constructors: numbers, junk and (ragged) nests.
NUMBERS = st.one_of(
    st.integers(-2, 2),
    st.floats(-2, 2),
    st.complex_numbers(max_magnitude=2),
    st.floats(allow_nan=True, allow_infinity=True),
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.binary(max_size=2),
    st.sampled_from([10**400, -(10**400), "1", "0.5", "1j", [], {}]),
)
VALUES = st.one_of(
    st.sampled_from([[1, 0], [0.6, 0.8j], [0.5] * 4, np.eye(2) / 2, np.eye(4) / 4, [[1, 0]]]),
    st.recursive(st.one_of(NUMBERS, JUNK), lambda inner: st.lists(inner, max_size=4), max_leaves=16),
)
SHAPES = st.sampled_from([SystemShape([2]), SystemShape([2, 2]), SystemShape([3, 2])])
SEEDS = st.one_of(st.integers(-3, 2**70), JUNK, st.lists(st.integers(-3, 2**70), max_size=3))
# Counts and dims stay small: the builders allocate 2^n, d x d or N x N arrays.
COUNTS = st.one_of(st.integers(-3, 5), JUNK)
DIMS = st.one_of(  # not bytes, which read as a list of dims up to 255
    st.lists(st.one_of(st.integers(-1, 6), JUNK), max_size=3),
    JUNK.filter(lambda x: not isinstance(x, bytes)),
)

BUILDERS = {
    "StateVector": lambda draw: StateVector(draw(SHAPES), draw(VALUES)),
    "ProductState": lambda draw: ProductState(draw(SHAPES), tuple(draw(st.lists(VALUES, max_size=3)))),
    "LocalUnitaryLayer": lambda draw: LocalUnitaryLayer(
        draw(SHAPES), tuple(draw(st.lists(VALUES, max_size=3)))
    ),
    "DensityMatrix": lambda draw: DensityMatrix(draw(SHAPES), draw(VALUES)),
    "DensityMatrix.from_factor": lambda draw: DensityMatrix.from_factor(draw(SHAPES), draw(VALUES)),
    "SystemShape": lambda draw: SystemShape(draw(DIMS)),
    "basis_state": lambda draw: basis_state(draw(SHAPES), draw(COUNTS)),
    "random_state": lambda draw: random_state(draw(SHAPES), draw(SEEDS)),
    "random_product": lambda draw: random_product(draw(SHAPES), draw(SEEDS)),
    "random_local_layer": lambda draw: random_local_layer(draw(SHAPES), draw(SEEDS)),
    "haar_unitary": lambda draw: haar_unitary(draw(COUNTS), np.random.default_rng(0)),
    "ghz": lambda draw: ghz(draw(COUNTS)),
    "w_state": lambda draw: w_state(draw(COUNTS)),
    "maximally_mixed": lambda draw: maximally_mixed(draw(DIMS)),
}


def _unitary(g):
    return g.ndim == 2 and len(g) >= 1 and np.abs(g.conj().T @ g - np.eye(len(g))).max() <= 1e-10


def validated(value):
    """Whether ``value`` holds the invariants its type promises."""
    if isinstance(value, StateVector):
        amps = value.amps
        return amps.size == value.shape.total and abs(np.linalg.norm(amps) - 1.0) <= 1e-12
    if isinstance(value, ProductState):
        return all(abs(np.linalg.norm(f) - 1.0) <= 1e-12 for f in value.factors)
    if isinstance(value, LocalUnitaryLayer):
        return all(_unitary(g) for g in value.gates)
    if isinstance(value, DensityMatrix):
        return value.factor.shape[1] == value.shape.total and abs(np.vdot(value.factor, value.factor) - 1.0) <= DENSITY_TOL
    if isinstance(value, SystemShape):
        return all(isinstance(d, int) and d >= 2 for d in value.dims)
    return isinstance(value, np.ndarray) and value.dtype == np.complex128 and _unitary(value)


class TestUniformState:
    @pytest.mark.parametrize(
        "dims,expected",
        [([2, 2], 0.5), ([3], 1 / math.sqrt(3)), ([2] * 10, 1 / 32)],
    )
    def test_amplitudes(self, dims, expected):
        state = uniform_state(SystemShape(dims))
        assert np.allclose(state.amps, expected, atol=1e-15)


class TestApplyLocal:
    def test_identity(self, three_qubits):
        state = random_state(three_qubits, 3)
        layer = LocalUnitaryLayer(three_qubits, tuple(np.eye(2) for _ in range(3)))
        out = apply_local(layer, state)
        assert np.allclose(out.amps, state.amps, atol=1e-15)

    def test_hadamard_on_zero(self):
        shape = SystemShape([2])
        out = apply_local(
            LocalUnitaryLayer(shape, (HADAMARD,)), basis_state(shape, 0)
        )
        assert np.allclose(out.amps, [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_hh_gives_uniform(self, two_qubits):
        layer = LocalUnitaryLayer(two_qubits, (HADAMARD, HADAMARD))
        out = apply_local(layer, basis_state(two_qubits, 0))
        assert np.allclose(out.amps, uniform_state(two_qubits).amps, atol=1e-15)

    def test_norm_preserved_random(self):
        shape = SystemShape([3, 2, 4])
        for i in range(5):
            state = random_state(shape, 10 + i)
            layer = random_local_layer(shape, 20 + i)
            assert abs(np.linalg.norm(apply_local(layer, state).amps) - 1.0) <= 1e-12

    def test_shape_mismatch(self, two_qubits, three_qubits):
        layer = LocalUnitaryLayer(two_qubits, (HADAMARD, HADAMARD))
        with pytest.raises(DimensionMismatch):
            apply_local(layer, random_state(three_qubits, 0))

    def test_rejects_nonunitary_gate(self, two_qubits):
        with pytest.raises(NotNormalized):
            LocalUnitaryLayer(two_qubits, (np.eye(2) * 2, np.eye(2)))


class TestInner:
    def test_self_overlap(self, three_qubits):
        state = random_state(three_qubits, 5)
        assert abs(inner(state, state) - 1.0) < 1e-14

    def test_orthogonal_basis(self):
        shape = SystemShape([2])
        assert inner(basis_state(shape, 0), basis_state(shape, 1)) == 0

    def test_uniform_bell_overlap(self, two_qubits):
        # direct four-term sum: (1/2)(1/sqrt2) + 0 + 0 + (1/2)(1/sqrt2)
        value = inner(uniform_state(two_qubits), bell_state())
        assert abs(value - SQRT_HALF) < 1e-15


class TestProductToState:
    def test_basis_product(self, two_qubits):
        p = ProductState(two_qubits, (np.array([1, 0]), np.array([0, 1])))
        state = product_to_state(p)
        assert np.allclose(state.amps, [0, 1, 0, 0], atol=1e-15)

    def test_uniform_product(self, two_qubits):
        plus = np.array([SQRT_HALF, SQRT_HALF])
        state = product_to_state(ProductState(two_qubits, (plus, plus)))
        assert np.allclose(state.amps, uniform_state(two_qubits).amps, atol=1e-15)

    def test_complex_factor_expansion(self, two_qubits):
        # [(|0>+i|1>)/sqrt2, |0>] -> [1/sqrt2, 0, i/sqrt2, 0], up to the
        # canonical phase applied at construction (here: none, first entry real)
        f1 = np.array([SQRT_HALF, 1j * SQRT_HALF])
        f2 = np.array([1.0, 0.0])
        state = product_to_state(ProductState(two_qubits, (f1, f2)))
        assert np.allclose(state.amps, [SQRT_HALF, 0, 1j * SQRT_HALF, 0], atol=1e-15)

    def test_factor_validation(self, two_qubits):
        with pytest.raises(NotNormalized):
            ProductState(two_qubits, (np.array([1.0, 1.0]), np.array([1.0, 0.0])))
        with pytest.raises(DimensionMismatch):
            ProductState(two_qubits, (np.array([1.0, 0.0]),))

    @pytest.mark.parametrize(
        "dims", [[2], [2, 2], [2, 2, 2], [2] * 6, [3, 2], [2, 3, 4], [5, 5]], ids=str
    )
    def test_amps_equal_kron_expansion(self, dims):
        # The outer-product expansion makes the same products in the same
        # order as a kron chain, bit for bit, for unit and raw vectors alike;
        # (R, d_j) stacks expand each row as its own 1-D factors would.
        rng = np.random.default_rng(90)
        raw = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        for factors in (raw, random_product(SystemShape(dims), 91).factors):
            reference = np.asarray(factors[0], dtype=np.complex128)
            for f in factors[1:]:
                reference = np.kron(reference, f)
            amps = product_amps(factors)
            assert amps.shape == (math.prod(dims),)
            assert np.array_equal(amps, reference)
        stacks = [rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d)) for d in dims]
        rows = product_amps(stacks)
        assert rows.shape == (3, math.prod(dims))
        for r, row in enumerate(rows):
            assert np.array_equal(row, product_amps([f[r] for f in stacks]))

    def test_canonical_phase_applied(self, two_qubits):
        f = np.array([0.0, 1j])  # largest-modulus entry must become real >= 0
        p = ProductState(two_qubits, (f, np.array([1.0, 0.0])))
        assert p.factors[0][1] == pytest.approx(1.0)


def contract_site(state, factors, j):
    """``_contract_all_but`` on one product and one column, with site j
    (0-based) moved to the front: the environment of site j."""
    order = [j] + [i for i in range(state.shape.n) if i != j]
    tensor = state.tensor().transpose(order)[None]
    stacks = [np.asarray(factors[i])[None] for i in order]
    return _contract_all_but(tensor, stacks, slice(0, 1))[0, 0]


class TestPartialContract:
    """The optimizer's contraction against the dense environment."""

    def test_basis_readout(self, two_qubits):
        state = basis_state(two_qubits, 1)  # |01>
        factors = (np.array([1, 0]), np.array([1, 0]))
        for v in (contract_site(state, factors, 1), dense_environment(state, factors, 1)):
            assert np.allclose(v, [0, 1], atol=1e-15)

    def test_bell_contraction(self, two_qubits):
        state, factors = bell_state(), (np.array([1, 0]), np.array([1, 0]))
        for v in (contract_site(state, factors, 0), dense_environment(state, factors, 0)):
            assert np.allclose(v, [SQRT_HALF, 0], atol=1e-15)

    def test_identity_on_random_inputs(self):
        for shape in (SystemShape([2, 3, 2]), SystemShape([3, 2, 2])):
            for i in range(10):
                state = random_state(shape, 100 + i)
                p = random_product(shape, 200 + i)
                full = inner(product_to_state(p), state)
                for j in range(3):
                    v = contract_site(state, p.factors, j)
                    assert v.shape == (shape.dims[j],)
                    assert np.abs(v - dense_environment(state, p.factors, j)).max() <= 1e-12
                    contracted = complex(np.vdot(p.factors[j], v))
                    assert abs(contracted - full) <= 1e-12

    @pytest.mark.parametrize("dims", [[2, 3, 2], [3, 2], [2] * 5], ids=str)
    def test_rows_and_columns(self, dims):
        # R = 3 rows of factors against blocks of K = 2 columns: one block
        # shared by every row, then a block of its own for each row.
        shape = SystemShape(dims)
        blocks = [[random_state(shape, 300 + 10 * r + k) for k in range(2)] for r in range(3)]
        products = [random_product(shape, 340 + r) for r in range(3)]
        factors = [np.array(fs) for fs in zip(*(p.factors for p in products))]
        per_row = np.array([[s.tensor() for s in block] for block in blocks])
        for tensor, row_blocks in ((per_row[0], [blocks[0]] * 3), (per_row, blocks)):
            v = _contract_all_but(tensor, factors, slice(0, 1))
            assert v.shape == (3, 2, dims[0])
            for r, p in enumerate(products):
                for k, state in enumerate(row_blocks[r]):
                    ref = dense_environment(state, p.factors, 0)
                    assert np.abs(v[r, k] - ref).max() <= 1e-12


class TestSchmidt:
    def test_product_single_coeff(self, two_qubits):
        dec = schmidt(basis_state(two_qubits, 0), [1])
        assert abs(dec.coeffs[0] - 1.0) < 1e-12
        assert np.all(dec.coeffs[1:] < 1e-12)

    def test_bell(self, two_qubits):
        dec = schmidt(bell_state(), [1])
        assert np.allclose(dec.coeffs, [SQRT_HALF, SQRT_HALF], atol=1e-12)

    def test_ghz3_split(self):
        shape = SystemShape([2, 2, 2])
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = SQRT_HALF
        dec = schmidt(StateVector(shape, amps), [1])
        assert np.allclose(dec.coeffs, [SQRT_HALF, SQRT_HALF], atol=1e-12)

    def test_reconstruction_upto_256(self):
        for dims, left in [([16, 16], [1]), ([4, 4, 4, 4], [2, 4]), ([2] * 8, [1, 2, 3])]:
            shape = SystemShape(dims)
            state = random_state(shape, 7)
            dec = schmidt(state, left)
            assert schmidt_reconstruction_error(state, dec) <= 1e-10

    def test_orthonormal_vectors(self):
        state = random_state(SystemShape([4, 6]), 11)
        dec = schmidt(state, [1])
        k = dec.coeffs.size
        assert np.abs(dec.left_vectors.conj().T @ dec.left_vectors - np.eye(k)).max() <= 1e-10
        assert np.abs(dec.right_vectors.conj().T @ dec.right_vectors - np.eye(k)).max() <= 1e-10
        assert abs(dec.probabilities.sum() - 1.0) <= 1e-10
        assert np.all(np.diff(dec.coeffs) <= 1e-15)

    def test_spectrum_matches_reduced_density(self):
        shape = SystemShape([2, 3, 2])
        state = random_state(shape, 13)
        dec = schmidt(state, [1, 3])
        evals = np.sort(np.linalg.eigvalsh(reduced_density(state, [1, 3]).entries))[::-1]
        assert np.abs(evals[: dec.coeffs.size] - dec.probabilities).max() <= 1e-9

    def test_product_state_single_coeff_roundtrip(self):
        shape = SystemShape([2, 2, 3])
        state = product_to_state(random_product(shape, 21))
        dec = schmidt(state, [2])
        assert abs(dec.coeffs[0] - 1.0) <= 1e-10
        assert np.all(dec.coeffs[1:] <= 1e-10)

    @pytest.mark.parametrize("left", [[], [1, 2], [0], [3]])
    def test_bad_split(self, two_qubits, left):
        with pytest.raises(BadSplit):
            schmidt(random_state(two_qubits, 0), left)

    @pytest.mark.parametrize("left", [[1.2], [1.0], ["1"]])
    def test_split_sites_are_integers(self, two_qubits, left):
        with pytest.raises(BadSplit, match="must be an integer"):
            schmidt(random_state(two_qubits, 0), left)

    def test_numpy_integer_split_accepted(self, two_qubits):
        state = random_state(two_qubits, 0)
        assert schmidt(state, [np.int64(1)]).p_max == schmidt(state, [1]).p_max


class TestReducedDensity:
    def test_product(self, two_qubits):
        rho = reduced_density(basis_state(two_qubits, 0), [1])
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_maximally_mixed(self, two_qubits):
        rho = reduced_density(bell_state(), [1])
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_bad_subset(self, two_qubits):
        state = random_state(two_qubits, 0)
        for keep in ([], [1, 2], [5]):
            with pytest.raises(BadSubset):
                reduced_density(state, keep)

    @pytest.mark.parametrize("keep", [[1.7], [1.0], ["1"]])
    def test_subset_sites_are_integers(self, three_qubits, keep):
        # int() would keep site 1 for [1.7].
        with pytest.raises(BadSubset, match="must be an integer"):
            reduced_density(random_state(three_qubits, 0), keep)

    def test_numpy_integer_subset_accepted(self, three_qubits):
        state = random_state(three_qubits, 0)
        kept = reduced_density(state, np.array([1, 3]))
        assert np.array_equal(kept.entries, reduced_density(state, [1, 3]).entries)


class TestDensityMatrix:
    def test_validation(self, two_qubits):
        with pytest.raises(InvalidDensity):
            DensityMatrix(two_qubits, np.eye(4))  # trace 4
        bad = np.eye(4) / 4
        bad[0, 1] = 0.5
        with pytest.raises(InvalidDensity):
            DensityMatrix(two_qubits, bad)  # not Hermitian
        neg = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(InvalidDensity):
            DensityMatrix(two_qubits, neg)


def eigvalsh_accepts(m):
    """The PSD decision that factoring replaces: no eigenvalue below -tol."""
    return bool(np.linalg.eigvalsh(m).min() >= -DENSITY_TOL)


def factoring_accepts(m):
    try:
        DensityMatrix(SystemShape([len(m)]), m)
    except InvalidDensity:
        return False
    return True


def rotated(spectrum, seed):
    u = haar_unitary(len(spectrum), np.random.default_rng(seed))
    return (u * spectrum) @ u.conj().T


def psd_cases():
    """Matrices at N <= 64 on both sides of the PSD boundary: full-rank,
    rank-deficient and product densities, lambda_min at -10 tol and -0.1 tol,
    and a spread of tiny eigenvalues that the factor's stop rule leaves in
    its residual."""
    rng = np.random.default_rng(2024)
    cases = []
    for n in (2, 3, 4, 8, 16, 27, 64):
        for i in range(4):
            seed = 100 * n + i
            k = int(rng.integers(1, n))
            low = np.zeros(n)
            low[:k] = rng.random(k)
            low /= low.sum()
            tiny = low.copy()
            tiny[k:] = 10 ** rng.uniform(-14, -12, n - k)
            spectra = {"full-rank": rng.random(n), "rank-deficient": low, "tiny-spread": tiny}
            for scale in (10, 0.1):
                negative = low.copy()
                negative[[0, -1]] += [scale * DENSITY_TOL, -scale * DENSITY_TOL]
                spectra[f"lambda-min=-{scale}tol"] = negative
                mixed = negative.copy()  # tiny pivots next to the negative direction
                mixed[k:-1] = tiny[k:-1]
                spectra[f"tiny-spread,lambda-min=-{scale}tol"] = mixed
            for name, spectrum in spectra.items():
                cases.append((f"{name}/{n}/{i}", rotated(spectrum / spectrum.sum(), seed)))
    for dims in ([2, 2], [2, 2, 2], [3, 3], [2] * 6):
        for i in range(3):
            joint = np.ones((1, 1))
            for j, d in enumerate(dims):
                spectrum = rng.random(d)
                spectrum[: i % 2] = 0.0  # a pure factor on every other product
                joint = np.kron(joint, rotated(spectrum / spectrum.sum(), 10 * i + j))
            cases.append((f"product/{dims}/{i}", joint))
    return cases


class TestPsdByFactoring:
    """``DensityMatrix`` decides PSD from its pivoted Cholesky factor; the
    decision must equal the eigenvalue test it replaced."""

    def test_decisions_match_eigvalsh(self):
        cases = psd_cases()
        decisions = {name: eigvalsh_accepts(m) for name, m in cases}
        assert any(decisions.values()) and not all(decisions.values())
        for name, m in cases:
            assert factoring_accepts(m) == decisions[name], name

    @pytest.mark.parametrize("n", [4, 16, 64])
    @pytest.mark.parametrize("noise", [1e-12, 1e-11, 3e-11])
    def test_never_accepts_what_eigvalsh_refuses(self, n, noise):
        # Hermitian noise on a low-rank density puts eigenvalues on both
        # sides of -tol; factoring may refuse near the boundary, never accept
        # below it.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = v @ v.conj().T + noise * (e + e.conj().T)
            m /= np.trace(m).real
            if factoring_accepts(m):
                assert eigvalsh_accepts(m)

    def test_skew_within_tolerance_is_not_negativity(self):
        # The PSD check reads the Hermitian part, as eigvalsh reads one
        # triangle; an anti-Hermitian part below the Hermitian tolerance
        # does not count against it.
        rng = np.random.default_rng(3)
        m = rotated(np.array([0.6, 0.4] + [0.0] * 62), 11)
        x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        m = m + 2e-12 * (x - x.conj().T)  # skew up to 2.2e-11
        assert eigvalsh_accepts(m) and factoring_accepts(m)

    @pytest.mark.parametrize(
        "where,value,message",
        [
            ((0, 13), 0.25j, "not Hermitian"),
            ((13, 0), 0.25j, "not Hermitian"),
            ((5, 6), 0.25j, "not Hermitian"),
            ((15, 15), math.nan, "non-finite"),
            ((2, 14), math.inf, "non-finite"),
        ],
    )
    def test_checks_cover_every_entry(self, where, value, message):
        m = np.eye(16, dtype=complex) / 16
        m[where] = value
        with pytest.raises(InvalidDensity, match=message):
            DensityMatrix(SystemShape([2] * 4), m)

    def test_keeps_the_factor_of_the_entries(self):
        m = rotated(np.array([0.5, 0.3, 0.2, 0, 0, 0, 0, 0]), 5)
        rho = DensityMatrix(SystemShape([2, 2, 2]), m)
        assert rho.factor.shape == (3, 8)
        assert not rho.factor.flags.writeable
        assert np.abs(rho.factor.T @ rho.factor.conj() - m).max() <= 1e-15
        assert rho.entries is rho.entries and np.array_equal(rho.entries, m)


class TestFactorFirstDensity:
    def test_entries_are_the_outer_product(self):
        state = random_state(SystemShape([2, 3, 2]), 5)
        rho = DensityMatrix.from_factor(state.shape, state.amps[None])
        outer = np.outer(state.amps, state.amps.conj())
        # One rounding of each product, which BLAS may fuse.
        assert np.all(np.abs(rho.entries - outer) <= 2 * np.finfo(float).eps * np.abs(outer))
        assert not rho.entries.flags.writeable

    def test_writable_factor_is_copied(self):
        b = np.array([[SQRT_HALF, SQRT_HALF]], dtype=complex)
        rho = DensityMatrix.from_factor(SystemShape([2]), b)
        b[0, 0] = 0.0
        assert rho.factor[0, 0] == SQRT_HALF and b.flags.writeable

    def test_factor_width_checked(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix.from_factor(SystemShape([2, 2]), np.ones((1, 2)) / 2)

    @pytest.mark.parametrize(
        "factor,message",
        [
            ([[1.0, math.nan]], "non-finite"),
            ([[SQRT_HALF, math.inf]], "non-finite"),
            ([[1.0, 1.0]], "trace"),
            ([[0.5, 0.5], [0.5, 0.4]], "trace"),
        ],
    )
    def test_factor_checked(self, factor, message):
        with pytest.raises(InvalidDensity, match=message):
            DensityMatrix.from_factor(SystemShape([2]), np.array(factor, dtype=complex))

    def test_reduced_density_entries_are_m_m_dagger(self):
        state = random_state(SystemShape([2, 3, 2]), 9)
        m, _, _ = split_matrix(state, [1, 3])
        rho = reduced_density(state, [1, 3])
        assert np.array_equal(rho.entries, m @ m.conj().T)

    def test_reduced_density_factor_is_no_wider_than_kept_sites(self):
        # Two kept qubits of ten: the factor has at most 4 rows, not one per
        # traced-out basis state.
        rho = reduced_density(random_state(SystemShape([2] * 10), 1), [2, 7])
        assert len(rho.factor) <= rho.shape.total == 4


def two_draw_reference(rng, shape):
    """The former draw: every real part in one call, then every imaginary part."""
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


# Around the draw buffer of 2^14 floats: one piece short of, at and past a
# whole buffer, and several buffers with a remainder.
DRAW_COUNTS = [2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5]


class TestRandomGeneration:
    def test_deterministic(self, two_qubits):
        a = random_state(two_qubits, 42)
        b = random_state(two_qubits, 42)
        assert np.array_equal(a.amps, b.amps)
        la = random_local_layer(two_qubits, 42)
        lb = random_local_layer(two_qubits, 42)
        assert all(np.array_equal(x, y) for x, y in zip(la.gates, lb.gates))
        pa = random_product(two_qubits, 42)
        pb = random_product(two_qubits, 42)
        assert all(np.array_equal(x, y) for x, y in zip(pa.factors, pb.factors))

    @pytest.mark.parametrize(
        "dims,seed",
        [([2], 0), ([2, 2], 42), ([3, 2, 2], 7), ([2] * 10, 12345), ([3, 5, 7], 5)]
        + [([count], 5) for count in DRAW_COUNTS],
    )
    def test_bits_match_two_draw_expression(self, dims, seed):
        # a draw through one small buffer into the result, against drawing
        # all real and all imaginary parts whole and dividing into a new array
        shape = SystemShape(dims)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(shape.total) + 1j * rng.standard_normal(shape.total)
        expected = z / np.linalg.norm(z)
        got = random_state(shape, seed).amps
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_norms(self, two_qubits):
        assert abs(np.linalg.norm(random_state(two_qubits, 1).amps) - 1.0) <= 1e-12
        for f in random_product(two_qubits, 1).factors:
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-12

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            u = haar_unitary(d, rng)
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-12

    def test_haar_first_moment(self, two_qubits):
        # E |<0|psi>|^2 = 1/N for Haar states; Monte Carlo at 1e4 draws
        total = 0.0
        draws = 10_000
        for i in range(draws):
            total += abs(random_state(two_qubits, np.random.SeedSequence((99, i))).amps[0]) ** 2
        assert abs(total / draws - 0.25) < 0.02


class TestPiecewiseDraw:
    """Gaussian amplitudes drawn through one small buffer equal two
    whole-size draws bit for bit, and leave the generator where they did."""

    @pytest.mark.parametrize("count", [1, *DRAW_COUNTS])
    def test_helper_equals_two_whole_draws(self, count):
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        assert same_bits(_complex_normals(rng, count), two_draw_reference(reference, count))
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("dims", [[3, 5, 7], [2**14 + 1]])
    def test_random_rank_density(self, dims, rank):
        shape = SystemShape(dims)
        b = two_draw_reference(np.random.default_rng(6), (rank, shape.total))
        rho = random_rank_density(shape, rank, 6)
        assert same_bits(rho.factor, b / np.linalg.norm(b))


class TestDrawPeak:
    """A random input's result is the only input-sized allocation its draw
    makes: the traced peak is its bytes plus a small buffer."""

    SLACK = 256 * 2**10

    def test_random_state(self):
        random_state(SystemShape([2, 2]), 1)  # warm-up
        shape = SystemShape([2] * 20)
        state, peak = traced_peak(lambda: random_state(shape, 1))
        assert state.amps.nbytes == 16 * shape.total
        assert peak <= 16 * shape.total + self.SLACK

    def test_random_rank_density(self):
        random_rank_density(SystemShape([2, 2]), 2, 1)  # warm-up
        shape = SystemShape([2] * 18)
        rho, peak = traced_peak(lambda: random_rank_density(shape, 4, 1))
        assert rho.factor.shape == (4, shape.total)
        assert peak <= 16 * 4 * shape.total + self.SLACK


class TestFourierGate:
    """The per-site Fourier gates of verify's diffusion reference."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitary_and_uniform_column(self, d):
        (v,) = _fourier_layer(SystemShape([d])).gates
        assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-12
        assert np.allclose(v[:, 0], np.full(d, 1 / math.sqrt(d)), atol=1e-15)

    def test_qubit_case_is_hadamard(self):
        (v,) = _fourier_layer(SystemShape([2])).gates
        assert np.allclose(v, HADAMARD, atol=1e-15)
