"""Named state families used by the CLI and the verification suites.

Family strings use colon syntax: ``bell``, ``ghz:3``, ``w:4``,
``uniform:2,3``, ``basis:2,2:1``, ``random:2,2,2:42``,
``product-random:2,2:7``; density families: ``maximally-mixed:2,2``,
``pure:SPEC``, the rank-one density of the state spec SPEC (a family or a
state file, for example ``pure:random:2,3,2:5``), and
``random-rank:K:dims:seed``, B B^+ / ||B||_F^2 for a complex Gaussian
N x K matrix B.  ``pure:`` and ``random-rank:`` densities are built from
their factor in O(N * K); every density family refuses a register whose
N x N entries would exceed the 2^30 cap, so ``entries`` can always be read.
``resolve_state`` and ``resolve_density`` read a spec as a family first and
a file second.  ``SWEEP_FAMILIES`` is the table of the qubit families that
``sweep`` tabulates over n, each with its closed-form P_max where it has one.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, GroverianError
from .fileio import FileFormatError, load_density, load_state
from .statevector import (
    MAX_TOTAL_DIM,
    DensityMatrix,
    StateVector,
    SystemShape,
    basis_state,
    product_to_state,
    qubit_shape,
    random_product,
    _complex_normals,
    _index,
    _readonly,
    _rng,
    random_state,
    uniform_state,
)


class UnknownFamily(GroverianError):
    """State spec string is neither a known family nor a readable file."""


def ghz(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = _index(n, "site count")
    if n < 2:
        raise DimensionMismatch("ghz needs at least 2 sites")
    shape = qubit_shape(n)
    amps = np.zeros(shape.total, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(shape, _readonly(amps))


def w_state(n: int) -> StateVector:
    """Equal superposition of the n weight-one bit strings."""
    n = _index(n, "site count")
    if n < 2:
        raise DimensionMismatch("w needs at least 2 sites")
    shape = qubit_shape(n)
    amps = np.zeros(shape.total, dtype=np.complex128)
    for j in range(n):
        amps[1 << j] = 1.0 / math.sqrt(n)
    return StateVector(shape, _readonly(amps))


def bell() -> StateVector:
    return ghz(2)


# Each ``sweep`` family maps (n, seed) to its n-qubit state and its closed-form
# P_max, or None where it has none; only ``random`` reads the seed.
SWEEP_FAMILIES = {
    "ghz": lambda n, seed: (ghz(n), 0.5),
    # W's symmetric stationary point (Wei and Goldbart, PRA 68, 042307 (2003))
    "w": lambda n, seed: (w_state(n), (1.0 - 1.0 / n) ** (n - 1)),
    "uniform": lambda n, seed: (uniform_state(qubit_shape(n)), 1.0),
    "random": lambda n, seed: (random_state(qubit_shape(n), seed), None),
}


def _density_shape(shape: SystemShape) -> SystemShape:
    """``shape``, once its N x N matrix is known to fit the array cap."""
    if shape.total**2 > MAX_TOTAL_DIM:
        raise DimensionMismatch(f"{shape.total}^2 density entries exceed the cap of 2^30")
    return shape


def maximally_mixed(dims) -> DensityMatrix:
    shape = _density_shape(SystemShape(dims))
    return DensityMatrix(shape, _readonly(np.eye(shape.total) / shape.total))


_INTEGER = re.compile("-?[0-9]+")


def integer(text: str) -> int:
    """The integer ``text`` spells in ASCII digits, with an optional minus
    sign and nothing else: ``int`` alone would also take other scripts'
    digits, ``_`` separators, a plus sign and surrounding whitespace."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """A family's seed: an ``integer`` that is not negative."""
    seed = integer(text)
    if seed < 0:
        raise ValueError(f"negative seed {seed}")
    return seed


_REAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE]-?[0-9]+)?")


def real(text: str) -> float:
    """The real number ``text`` spells in ASCII decimal or exponent form, by
    the rule of ``integer``: ``float`` alone would also take other scripts'
    digits, ``_`` separators, a plus sign and surrounding whitespace."""
    if not _REAL.fullmatch(text):
        raise ValueError(f"invalid real number {text!r}")
    return float(text)


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [integer(part) for part in text.split(",")]
    except ValueError as exc:
        raise UnknownFamily(f"bad dimension list {text!r}") from exc
    return dims


def _state_family(spec: str):
    """The shape a family string names and a function building its state, or
    None when it names no family.  Nothing N-sized is allocated before the
    function is called, so a caller can refuse the shape first."""
    name, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    if name == "bell" and not args:
        return SystemShape([2, 2]), bell
    if name in ("ghz", "w") and len(args) == 1:
        n, family = integer(args[0]), ghz if name == "ghz" else w_state
        return qubit_shape(n), lambda: family(n)
    if name == "uniform" and len(args) == 1:
        shape = SystemShape(_parse_dims(args[0]))
        return shape, lambda: uniform_state(shape)
    if name in ("basis", "random", "product-random") and len(args) == 2:
        shape = SystemShape(_parse_dims(args[0]))
        if name == "basis":
            index = integer(args[1])
            return shape, lambda: basis_state(shape, index)
        seed = _seed(args[1])
        if name == "random":
            return shape, lambda: random_state(shape, seed)
        return shape, lambda: product_to_state(random_product(shape, seed))
    return None


def expand_state_family(spec: str, check=None) -> StateVector | None:
    """Expand a family string to a state, or None when it names no family.
    ``check(shape)``, when given, runs before the state is built."""
    try:
        family = _state_family(spec)
        if family is None:
            return None
        if check is not None:
            check(family[0])
        return family[1]()
    except ValueError as exc:
        raise UnknownFamily(f"bad arguments in state spec {spec!r}") from exc


def resolve_state(spec: str, check=None) -> StateVector:
    """A state spec is a named family first, a state file path second.
    ``check(shape)``, when given, sees the shape before a family's state is
    built, and a file's once it is read."""
    state = expand_state_family(spec, check)
    if state is not None:
        return state
    if not Path(spec).exists():
        raise FileFormatError(f"{spec!r} is neither a known state family nor a file")
    state = load_state(spec)
    if check is not None:
        check(state.shape)
    return state


def random_rank_density(shape: SystemShape, rank: int, seed) -> DensityMatrix:
    """B B^+ / ||B||_F^2 for an N x ``rank`` matrix B of complex Gaussian
    entries, built from its factor; the draw is the K x N real parts, then
    the imaginary parts."""
    rank = _index(rank, "rank")
    if not 1 <= rank <= shape.total:
        raise DimensionMismatch(f"rank must be in 1..{shape.total}, got {rank}")
    rng = _rng(seed)
    b = _complex_normals(rng, rank * shape.total).reshape(rank, shape.total)
    b /= np.linalg.norm(b)
    return DensityMatrix.from_factor(shape, _readonly(b))


def expand_density_family(spec: str) -> DensityMatrix | None:
    """Expand a density family string, or None when it names no family."""
    name, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    try:
        if name == "maximally-mixed" and len(args) == 1:
            return maximally_mixed(_parse_dims(args[0]))
        if name == "pure" and args:
            state = resolve_state(rest, _density_shape)
            return DensityMatrix.from_factor(state.shape, state.amps[None])
        if name == "random-rank" and len(args) == 3:
            shape = _density_shape(SystemShape(_parse_dims(args[1])))
            return random_rank_density(shape, integer(args[0]), _seed(args[2]))
    except ValueError as exc:
        raise UnknownFamily(f"bad arguments in density spec {spec!r}") from exc
    return None


def resolve_density(spec: str) -> DensityMatrix:
    """A density spec is a named density family first, a density file second."""
    rho = expand_density_family(spec)
    if rho is not None:
        return rho
    if not Path(spec).exists():
        raise FileFormatError(f"{spec!r} is neither a known density family nor a file")
    return load_density(spec)
