"""Dense multi-qudit state vectors and the tensor operations on them.

Conventions used across the package:

* A register of n sites with per-site dimensions (d_1, ..., d_n) is indexed
  big-endian: basis index x = sum_j x_j * prod_{k>j} d_k, so site 1 is the
  most significant digit.  For qubits, x_1 is the leading bit of x.
* Sites are numbered 1..n in all public APIs.
* All value types are immutable after construction (arrays are read-only)
  and all operations are pure functions, so values can be shared freely
  between threads.  Random generation takes explicit seeds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadSplit,
    BadSubset,
    DimensionMismatch,
    InvalidDensity,
    NotNormalized,
    OutOfRange,
    TooLarge,
    ZeroVector,
)

# Construction accepts hand-typed input within 1e-8 of unit norm and
# renormalizes when it drifts beyond 1e-12, the norm unitary operations must
# preserve; input within 1e-12 is stored bit for bit.  Every tolerance check
# is written as ``not x <= tol`` so that a NaN fails it.
CONSTRUCT_TOL = 1e-8
NORM_DRIFT_TOL = 1e-12
ZERO_NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
DENSITY_TOL = 1e-10

# Largest joint dimension, and largest entry count of any dense array, that
# input may ask for: 2^30 complex amplitudes are 16 GiB.  Checked before
# allocation, so an oversize request is a usage error, not a memory fault.
MAX_TOTAL_DIM = 2**30


def seed_sequence(seed: int, *keys: int) -> np.random.SeedSequence:
    """Seed sequence for one derived stream: a user seed (wrapped to 64 bits,
    so negative seeds are accepted) followed by integer keys."""
    return np.random.SeedSequence((int(seed) & (2**64 - 1), *keys))


def _index(value, what: str, error=DimensionMismatch) -> int:
    """A Python or numpy integer as an int; ``int`` would truncate floats and parse strings."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _numbers(given, what: str, error) -> np.ndarray:
    """``given`` as numpy reads it, refused with ``error`` unless it is a
    regular array of numbers: strings, objects (an integer past float range
    among them) and ragged nesting never reach the conversion to complex."""
    try:
        a = np.asarray(given)
    except ValueError:
        raise error(f"{what} must be a regular array of numbers") from None
    if a.dtype.kind not in "biufc":
        raise error(f"{what} must be numbers, got dtype {a.dtype}")
    return a


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, with a seed it cannot take refused."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise OutOfRange(f"seed must be a non-negative integer, got {seed!r}") from None


def _views(a):
    """``a`` and every array it is a view of."""
    while isinstance(a, np.ndarray):
        yield a
        a = a.base


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark a fresh array, and every array it views, read-only."""
    for b in _views(a):
        b.setflags(write=False)
    return a


def _private(a: np.ndarray, given) -> np.ndarray:
    """``a``, converted from the caller's ``given``, as read-only data that
    no caller can write.

    A new array made by the conversion is kept.  The caller's own data is
    kept only when it and every array it views are read-only, as builders
    hand over their fresh buffers; otherwise it is copied, so the caller's
    array stays writable and later writes to it do not reach the value.
    """
    if (a is given or a.base is not None) and any(b.flags.writeable for b in _views(a)):
        a = a.copy()
    return _readonly(a)


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its first largest-modulus entry is real >= 0."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (abs(pivot) / pivot)


@dataclass(frozen=True)
class SystemShape:
    """Per-site dimensions of a register; total dimension N = prod(dims)."""

    dims: tuple[int, ...]

    def __init__(self, dims):
        try:
            dims = tuple(_index(d, "site dimension") for d in dims)
        except TypeError:  # not iterable
            raise DimensionMismatch(f"dims must be a sequence of integers, got {dims!r}") from None
        if len(dims) < 1:
            raise DimensionMismatch("register needs at least one site")
        if any(d < 2 for d in dims):
            raise DimensionMismatch(f"every site dimension must be >= 2, got {dims}")
        if math.prod(dims) > MAX_TOTAL_DIM:
            raise DimensionMismatch(
                f"total dimension of {dims} exceeds the cap of 2^30 amplitudes"
            )
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))


def qubit_shape(n: int) -> SystemShape:
    """n qubits, refused before their dims are built when 2^n passes the cap."""
    if n > math.log2(MAX_TOTAL_DIM):
        raise DimensionMismatch(f"{n} qubits exceed the cap of 2^30 amplitudes")
    return SystemShape([2] * n)


def _check_same_shape(a, b) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape.dims} vs {b.shape.dims}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the joint computational basis."""

    shape: SystemShape
    amps: np.ndarray

    def __post_init__(self):
        amps = _numbers(self.amps, "amplitudes", NotNormalized)
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != self.shape.total:
            raise DimensionMismatch(
                f"expected {self.shape.total} amplitudes, got {amps.size}"
            )
        with np.errstate(over="ignore"):  # an overflowed norm is refused below
            norm = math.sqrt(amps.view(np.float64) @ amps.view(np.float64))
        if norm < ZERO_NORM_TOL:
            raise ZeroVector("state vector has zero norm")
        if not abs(norm - 1.0) <= CONSTRUCT_TOL:
            # a finite norm needs no scan; an overflowed one may hold no inf
            if not math.isfinite(norm) and not np.isfinite(amps).all():
                raise NotNormalized("state has a non-finite amplitude")
            raise NotNormalized(f"state norm {norm!r} deviates from 1 beyond 1e-8")
        if abs(norm - 1.0) > NORM_DRIFT_TOL:
            amps = amps / np.linalg.norm(amps)
        object.__setattr__(self, "amps", _private(amps, self.amps))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per site (read-only view)."""
        return self.amps.reshape(self.shape.dims)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclass(frozen=True, eq=False)
class ProductState:
    """One unit vector per site; represents their tensor product.

    Each factor is stored in canonical phase: the first component of largest
    modulus is real and non-negative, so optimizer outputs are comparable
    across runs.
    """

    shape: SystemShape
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.factors) != self.shape.n:
            raise DimensionMismatch(
                f"expected {self.shape.n} factors, got {len(self.factors)}"
            )
        fixed = []
        for j, (f, d) in enumerate(zip(self.factors, self.shape.dims), start=1):
            f = np.ascontiguousarray(_numbers(f, f"factor {j}", NotNormalized), dtype=np.complex128)
            if f.ndim != 1 or f.size != d:
                raise DimensionMismatch(f"factor {j} must have length {d}")
            if not abs(float(np.linalg.norm(f)) - 1.0) <= NORM_DRIFT_TOL:
                raise NotNormalized(f"factor {j} is not a unit vector")
            fixed.append(_readonly(canonical_phase(f)))
        object.__setattr__(self, "factors", tuple(fixed))


@dataclass(frozen=True, eq=False)
class LocalUnitaryLayer:
    """One unitary per site, applied as U_1 (x) ... (x) U_n."""

    shape: SystemShape
    gates: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.gates) != self.shape.n:
            raise DimensionMismatch(
                f"expected {self.shape.n} gates, got {len(self.gates)}"
            )
        fixed = []
        for j, (g, d) in enumerate(zip(self.gates, self.shape.dims), start=1):
            g = np.ascontiguousarray(_numbers(g, f"gate {j}", NotNormalized), dtype=np.complex128)
            if g.shape != (d, d):
                raise DimensionMismatch(f"gate {j} must be {d}x{d}")
            if not np.isfinite(g).all():
                raise NotNormalized(f"gate {j} has a non-finite entry")
            defect = np.abs(g.conj().T @ g - np.eye(d)).max()
            if not defect <= UNITARY_TOL:
                raise NotNormalized(f"gate {j} is not unitary (defect {defect:.2e})")
            fixed.append(_private(g, self.gates[j - 1]))
        object.__setattr__(self, "gates", tuple(fixed))


def _factor(matrix: np.ndarray) -> np.ndarray:
    """Pivoted Cholesky factor B of B B^+ = matrix, as the (K, N) array of
    its columns b_k.

    Each step pivots on the largest remaining diagonal entry and stops once
    that is at most N * eps * max diag (the ``matrix_rank`` convention), so
    K is the numerical rank of a positive semidefinite input.  Column i of
    the Hermitian matrix is read as the conjugate of its contiguous row i.
    O(N * K^2) time; only the K columns used are stored.
    """
    n = len(matrix)
    residual = np.real(np.diagonal(matrix)).copy()
    stop = n * np.finfo(float).eps * residual.max()
    rows = np.empty((min(n, 8), n), dtype=np.complex128)  # row k is column k of B
    k = 0
    while k < n:
        i = int(np.argmax(residual))
        pivot = residual[i]
        if not pivot > stop:
            break
        if k == len(rows):
            grown = np.empty((min(n, 2 * k), n), dtype=np.complex128)
            grown[:k] = rows
            rows = grown
        col = np.conj(matrix[i]) - np.conj(rows[:k, i]) @ rows[:k]
        col /= math.sqrt(pivot)
        rows[k] = col
        residual -= col.real**2 + col.imag**2
        residual[i] = 0.0
        k += 1
    return rows[:k]


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on the register,
    held as a factor: the (K, N) rows b_k of rho = sum_k |b_k><b_k| = B B^+.

    ``DensityMatrix(shape, entries)`` validates an N x N matrix and keeps its
    pivoted Cholesky factor, K the numerical rank.  It is accepted as
    positive semidefinite when H + DENSITY_TOL * I has a Cholesky factor, H
    the Hermitian part of the entries, so no matrix with an eigenvalue below
    -DENSITY_TOL (less one rounding of the factorization) passes; O(N^3 / 3).
    ``from_factor`` takes a factor that makes a unit-trace operator, in
    O(K * N), and builds ``entries`` only when they are read.
    """

    shape: SystemShape
    factor: np.ndarray
    _given: np.ndarray | None = field(repr=False)  # validated entries; None from a factor

    def __init__(self, shape: SystemShape, entries):
        total = shape.total
        m = _numbers(entries, "density entries", InvalidDensity)
        m = np.ascontiguousarray(m, dtype=np.complex128)
        if m.shape != (total, total):
            raise DimensionMismatch(f"density matrix must be {total}x{total}")
        if not np.isfinite(m).all():
            raise InvalidDensity("density matrix has a non-finite entry")
        if not np.abs(m - m.conj().T).max() <= DENSITY_TOL:
            raise InvalidDensity("matrix is not Hermitian")
        trace = complex(np.trace(m))
        if not (abs(trace.real - 1.0) <= DENSITY_TOL and abs(trace.imag) <= DENSITY_TOL):
            raise InvalidDensity("trace differs from 1")
        shifted = (m + m.conj().T) / 2
        shifted[np.diag_indices(total)] += DENSITY_TOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise InvalidDensity("matrix has a negative eigenvalue") from None
        b = _factor(m)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "factor", _readonly(b))
        object.__setattr__(self, "_given", _private(m, entries))

    @classmethod
    def from_factor(cls, shape: SystemShape, factor) -> "DensityMatrix":
        """The density B B^+ of a (K, N) factor, which is positive
        semidefinite by construction; only its shape, finiteness and unit
        trace sum_k |b_k|^2 are checked, in O(K * N) with no K x N temporary."""
        b = _numbers(factor, "density factor", InvalidDensity)
        b = np.ascontiguousarray(b, dtype=np.complex128)
        if b.ndim != 2 or b.shape[1] != shape.total:
            raise DimensionMismatch(f"density factor must have {shape.total} columns")
        trace = float(np.vdot(b, b).real)
        # a finite trace needs no scan; an overflowed one may hold no inf
        if not math.isfinite(trace) and not np.isfinite(b).all():
            raise InvalidDensity("density factor has a non-finite entry")
        if not abs(trace - 1.0) <= DENSITY_TOL:
            raise InvalidDensity("trace differs from 1")
        rho = object.__new__(cls)
        object.__setattr__(rho, "shape", shape)
        object.__setattr__(rho, "factor", _private(b, factor))
        object.__setattr__(rho, "_given", None)
        return rho

    @cached_property
    def entries(self) -> np.ndarray:
        """The N x N matrix: as given, or B B^+ built on first read."""
        if self._given is not None:
            return self._given
        b = self.factor
        return _readonly(b.T @ np.conj(b))


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Bipartite decomposition psi = sum_i c_i |u_i>|v_i| with c_i >= 0 sorted."""

    coeffs: np.ndarray
    left_vectors: np.ndarray  # columns u_i, dimension = prod of left sites
    right_vectors: np.ndarray  # columns v_i
    left_sites: tuple[int, ...] = field(default=())
    right_sites: tuple[int, ...] = field(default=())

    @property
    def probabilities(self) -> np.ndarray:
        return self.coeffs**2

    @property
    def p_max(self) -> float:
        return min(float(self.coeffs[0] ** 2), 1.0)


def basis_state(shape: SystemShape, index: int) -> StateVector:
    """Computational basis state |index> in big-endian order."""
    index = _index(index, "basis index")
    if not 0 <= index < shape.total:
        raise DimensionMismatch(f"basis index {index} outside 0..{shape.total - 1}")
    amps = np.zeros(shape.total, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(shape, _readonly(amps))


def uniform_state(shape: SystemShape) -> StateVector:
    """The equal superposition of all basis states, amplitude 1/sqrt(N) each."""
    total = shape.total
    amps = np.full(total, 1.0 / math.sqrt(total), dtype=np.complex128)
    return StateVector(shape, _readonly(amps))


def uniform_factor(dim: int) -> np.ndarray:
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)


def apply_local(layer: LocalUnitaryLayer, state: StateVector) -> StateVector:
    """Apply a product of per-site unitaries without forming the NxN matrix."""
    _check_same_shape(layer, state)
    t = state.tensor()
    for j, gate in enumerate(layer.gates):
        t = np.moveaxis(np.tensordot(gate, t, axes=([1], [j])), 0, j)
    return StateVector(state.shape, _readonly(np.ascontiguousarray(t)).reshape(-1))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugating a."""
    _check_same_shape(a, b)
    return complex(np.vdot(a.amps, b.amps))


def product_to_state(p: ProductState) -> StateVector:
    """Expand a product state into joint amplitudes; amp[x] = prod_j factor_j[x_j]."""
    return StateVector(p.shape, _readonly(product_amps(p.factors)))


def product_amps(factors) -> np.ndarray:
    """Joint amplitudes of raw per-site vectors (no normalization checks).

    The factors may also be (R, d_j) stacks, expanded row by row to (R, N)."""
    amps = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        amps = (amps[..., :, None] * f[..., None, :]).reshape(*amps.shape[:-1], -1)
    return amps


def _contract_all_but(tensor: np.ndarray, factors, keep: slice) -> np.ndarray:
    """Contract conj(factors[j]) onto every site axis but those in ``keep``, per row.

    ``factors[j]`` is an (R, d_j) stack with one row per member of a batch,
    and ``tensor`` is (R, K, d_1, ..., d_n), or (K, d_1, ..., d_n) shared by
    every row, with a leading axis of K columns that is carried through.
    ``keep`` is a leading or a trailing block of the sites, whose factors
    are not read.  The other factors, row by row, make one Kronecker
    vector, contracted onto the tensor's trailing (or leading) block of axes
    in one batched matrix-vector product.  Returns the (R, K, d_j for j in
    ``keep``) contractions.
    """
    n = len(factors)
    start, stop, _ = keep.indices(n)
    w = np.conj(product_amps(factors[:start] if start else factors[stop:]))
    cols, *sites = tensor.shape[-(n + 1) :]
    kept = sites[start:stop]
    if start:
        t = np.matmul(w[:, None, None, :], tensor.reshape(-1, cols, w.shape[1], math.prod(kept)))
    else:
        t = np.matmul(tensor.reshape(-1, cols * math.prod(kept), w.shape[1]), w[:, :, None])
    return t.reshape(len(w), cols, *kept)


def _split_sites(shape: SystemShape, left) -> tuple[tuple[int, ...], tuple[int, ...]]:
    left = tuple(sorted(_index(s, "split site", BadSplit) for s in left))
    if len(set(left)) != len(left):
        raise BadSplit(f"duplicate sites in split {left}")
    if any(not 1 <= s <= shape.n for s in left):
        raise BadSplit(f"split {left} references sites outside 1..{shape.n}")
    right = tuple(s for s in range(1, shape.n + 1) if s not in left)
    if not left or not right:
        raise BadSplit("split must be a nonempty proper bipartition")
    return left, right


def split_matrix(state: StateVector, left) -> tuple[np.ndarray, tuple, tuple]:
    """Amplitudes as a (left-group x right-group) matrix for a bipartition."""
    left, right = _split_sites(state.shape, left)
    perm = [s - 1 for s in left] + [s - 1 for s in right]
    d_left = int(np.prod([state.shape.dims[s - 1] for s in left]))
    t = state.tensor().transpose(perm).reshape(d_left, -1)
    return t, left, right


def schmidt(state: StateVector, left) -> SchmidtDecomposition:
    """Schmidt decomposition of the state across the bipartition (left | rest).

    ``left`` is the set of 1-based sites forming the first group.  Returned
    coefficients are non-negative, sorted non-increasing; vectors are
    orthonormal columns, each left vector in canonical phase.
    """
    m, left, right = split_matrix(state, left)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    v = vh.conj().T
    for i in range(s.size):
        col = u[:, i]
        pivot = col[int(np.argmax(np.abs(col)))]
        if abs(pivot) > 0:
            # The term is s_i u_i v_i+; rotating both vectors by the same
            # unit phase leaves it unchanged while canonicalizing u_i.
            phase = abs(pivot) / pivot
            u[:, i] = col * phase
            v[:, i] = v[:, i] * phase
    return SchmidtDecomposition(
        coeffs=_readonly(s),
        left_vectors=_readonly(u),
        right_vectors=_readonly(v),
        left_sites=left,
        right_sites=right,
    )


def schmidt_reconstruction_error(state: StateVector, dec: SchmidtDecomposition) -> float:
    """Norm of psi minus sum_i c_i u_i (x) v_i, in the original site order."""
    m = dec.left_vectors @ np.diag(dec.coeffs) @ dec.right_vectors.conj().T
    perm = [s - 1 for s in dec.left_sites] + [s - 1 for s in dec.right_sites]
    dims_perm = [state.shape.dims[i] for i in perm]
    inverse = np.argsort(perm)
    rebuilt = m.reshape(dims_perm).transpose(inverse).reshape(-1)
    return float(np.linalg.norm(state.amps - rebuilt))


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Partial trace onto the given 1-based sites (ascending order)."""
    keep = tuple(sorted(_index(s, "subset site", BadSubset) for s in keep))
    if len(set(keep)) != len(keep) or not keep:
        raise BadSubset(f"invalid site subset {keep}")
    if any(not 1 <= s <= state.shape.n for s in keep):
        raise BadSubset(f"subset {keep} references sites outside 1..{state.shape.n}")
    if len(keep) == state.shape.n:
        raise BadSubset("subset must be proper; use an outer product instead")
    m, left, _right = split_matrix(state, keep)
    rho = m @ m.conj().T
    kept_shape = SystemShape([state.shape.dims[s - 1] for s in left])
    return DensityMatrix(kept_shape, _readonly(rho))


# Floats drawn per ``standard_normal`` call in ``_complex_normals``: 128 KiB,
# small enough to stay in L2 and to keep the draw's only large allocation
# its result.
_DRAW_BUFFER = 2**14


def _complex_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` complex Gaussians: all real parts, then all imaginary parts.

    Each part is drawn in pieces through one small buffer and copied into
    place, so the result is the only ``count``-sized allocation.  A
    ``Generator`` gives the same values, and ends in the same state, whether
    it draws in pieces or in one call, so this equals two whole-size draws,
    the real parts and then the imaginary parts, bit for bit.
    """
    z = np.empty(count, dtype=np.complex128)
    buffer = np.empty(min(count, _DRAW_BUFFER))
    for part in (z.real, z.imag):
        for start in range(0, count, _DRAW_BUFFER):
            piece = buffer[: count - start]
            rng.standard_normal(out=piece)
            part[start : start + len(piece)] = piece
    return z


def random_state(shape: SystemShape, seed) -> StateVector:
    """Haar-random pure state: normalized complex Gaussian amplitudes."""
    z = _complex_normals(_rng(seed), shape.total)
    z *= 1.0 / np.linalg.norm(z)
    return StateVector(shape, _readonly(z))


def _unit_stacks(z: np.ndarray, dims) -> list[np.ndarray]:
    """The (R, d_j) unit stacks of an (R, 2 * sum(dims)) matrix of normals.

    Site j reads d_j real parts, then d_j imaginary parts, of each row, as a
    site-by-site draw would.  A row's squared norm is summed as
    ``np.linalg.norm`` sums it, real parts then imaginary parts, so each row
    is bit-equal to normalizing a one-row, site-by-site draw.
    """
    stacks, start = [], 0
    for d in dims:
        f = z[:, start : start + d] + 1j * z[:, start + d : start + 2 * d]
        re, im = f.real[:, None], f.imag[:, None]
        sq = np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))
        stacks.append(f / np.sqrt(sq[:, 0]))
        start += 2 * d
    return stacks


def random_product(shape: SystemShape, seed) -> ProductState:
    """Product of independent Haar-random single-site states, drawn in one
    call from the seed's generator."""
    z = _rng(seed).standard_normal((1, 2 * sum(shape.dims)))
    return ProductState(shape, tuple(f[0] for f in _unit_stacks(z, shape.dims)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    Columns are rescaled so the R-diagonal is real non-negative, which makes
    the distribution exactly Haar rather than QR-convention dependent.
    """
    dim = _index(dim, "unitary dimension")
    if dim < 1:
        raise DimensionMismatch(f"unitary dimension must be >= 1, got {dim}")
    if dim * dim > MAX_TOTAL_DIM:
        raise TooLarge(f"a {dim}x{dim} unitary exceeds the cap of 2^30 entries")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * phases


def random_local_layer(shape: SystemShape, seed) -> LocalUnitaryLayer:
    """Independent Haar-random unitary on each site."""
    rng = _rng(seed)
    return LocalUnitaryLayer(shape, tuple(haar_unitary(d, rng) for d in shape.dims))

