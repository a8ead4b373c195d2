"""Entanglement measures built on the maximal product overlap.

For a pure state, the measure is sqrt(1 - P) where P is the maximal squared
overlap with product states; it vanishes exactly on product states, is
invariant under local unitaries, and cannot increase under LOCC.  The
linear extension to density operators is also provided; it is explicitly
NOT an entanglement monotone (separable mixtures can score the maximal
value) and is exposed for study of exactly that failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDensity,
    OutOfRange,
    WrongShape,
)
from .product_opt import (
    OptimizerConfig,
    PmaxResult,
    pmax_bipartite,
    pmax_mixed,
    pmax_overlap,
)
from .statevector import DensityMatrix, StateVector, SystemShape, _numbers, reduced_density

@dataclass(frozen=True)
class MeasureReport:
    """Product-overlap maximum and the measures derived from it.

    groverian = sqrt(1 - pmax); vedral_e = 2 - 2 sqrt(pmax).  ``method``
    records which route produced pmax: alternating, bipartite-closed-form,
    or mixed.
    """

    pmax: float
    groverian: float
    vedral_e: float
    method: str
    restarts_used: int = 0
    sweeps: int = 0
    converged: bool = True


def _report(pmax: float, method: str, opt: PmaxResult | None = None) -> MeasureReport:
    g = math.sqrt(1.0 - pmax)
    e = 2.0 - 2.0 * math.sqrt(pmax)
    if opt is None:
        return MeasureReport(pmax, g, e, method)
    return MeasureReport(
        pmax, g, e, method, opt.restarts_used, opt.sweeps, opt.converged
    )


def groverian(state: StateVector, cfg: OptimizerConfig | None = None) -> MeasureReport:
    """Entanglement of a pure state via the alternating product-overlap maximizer."""
    opt = pmax_overlap(state, cfg)
    return _report(opt.value, "alternating", opt)


def groverian_bipartite(state: StateVector, split) -> MeasureReport:
    """Exact closed form across a bipartition: sqrt(1 - top Schmidt coeff^2)."""
    return _report(pmax_bipartite(state, split), "bipartite-closed-form")


def groverian_mixed(
    rho: DensityMatrix, cfg: OptimizerConfig | None = None
) -> MeasureReport:
    """Linear extension sqrt(1 - max <e|rho|e>) over product states.

    Agrees with the pure-state measure on projectors but is not an
    entanglement monotone: e.g. the two-qubit maximally mixed state is
    separable yet scores sqrt(1 - 1/4).
    """
    opt = pmax_mixed(rho, cfg)
    return _report(opt.value, "mixed", opt)


def groverian_product_mixed(local_densities) -> float:
    """sqrt(1 - prod_j lambda_j) for a tensor product of per-site densities,
    lambda_j the largest eigenvalue of the j-th factor, each validated as the
    density matrix of one site."""
    local_densities = list(local_densities)
    if not local_densities:
        raise DimensionMismatch("register needs at least one site")
    prod = 1.0
    for j, rho in enumerate(local_densities, start=1):
        m = _numbers(rho, f"local density {j}", InvalidDensity)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidDensity(f"local density {j} is not square")
        m = DensityMatrix(SystemShape([len(m)]), m).entries
        prod *= float(np.linalg.eigvalsh(m).max())
    return math.sqrt(max(0.0, 1.0 - prod))


def bures_distance(fidelity: float) -> float:
    """sqrt(1 - f^2) for a fidelity value f in [0, 1]."""
    if not 0.0 <= fidelity <= 1.0:
        raise OutOfRange(f"fidelity {fidelity!r} outside [0, 1]")
    return math.sqrt(1.0 - fidelity * fidelity)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), continuous at 0 and 1."""
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_check(state: StateVector) -> tuple[float, float]:
    """Von Neumann entropy of one qubit vs the binary entropy of the squared
    measure, for a two-qubit pure state; the two agree analytically."""
    if state.shape.dims != (2, 2):
        raise WrongShape("entropy relation is defined for two qubits")
    evals = np.linalg.eigvalsh(reduced_density(state, [1]).entries)
    evals = np.clip(evals.real, 0.0, 1.0)
    entropy = float(-(evals[evals > 0] * np.log2(evals[evals > 0])).sum())
    g = groverian_bipartite(state, [1])
    return entropy, binary_entropy(g.groverian**2)


def majorizes(target, source) -> bool:
    """True when sorted partial sums of target dominate those of source."""
    t = np.sort(np.asarray(target, dtype=np.float64))[::-1]
    s = np.sort(np.asarray(source, dtype=np.float64))[::-1]
    size = max(t.size, s.size)
    t = np.pad(t, (0, size - t.size))
    s = np.pad(s, (0, size - s.size))
    return bool(np.all(np.cumsum(t) >= np.cumsum(s)))


def monotone_check_rows(source, target) -> tuple[np.ndarray, np.ndarray]:
    """The LOCC-monotonicity consequence on the rows of two (K, d) arrays of
    Schmidt spectra, unvalidated.

    A target spectrum that majorizes its source is deterministically
    LOCC-reachable from it, so the closed form g = sqrt(1 - max p) must not
    increase from source to target.  Returns, per row, whether the target
    majorizes the source and whether g_source >= g_target - 1e-12.
    """
    s = np.sort(source, axis=1)[:, ::-1]
    t = np.sort(target, axis=1)[:, ::-1]
    applicable = np.all(np.cumsum(t, axis=1) >= np.cumsum(s, axis=1), axis=1)
    g_source = np.sqrt(np.maximum(0.0, 1.0 - s[:, 0]))
    g_target = np.sqrt(np.maximum(0.0, 1.0 - t[:, 0]))
    return applicable, g_source >= g_target - 1e-12
