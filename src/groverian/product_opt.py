"""Maximal squared overlap between a state and the set of product states.

The maximizer is alternating single-site optimization (best rank-one tensor
approximation by power-type iteration): holding all factors but one fixed,
the optimal remaining factor is the normalized environment contraction for
pure states, or the top eigenvector of a small Hermitian environment matrix
for density operators.  Each update is the exact single-site optimum, so the
objective never decreases; random restarts guard against local maxima.

Two independent references are provided: an exhaustive Bloch-angle grid
search for up to three qubits, and the exact bipartite closed form (largest
squared Schmidt coefficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, TooLarge, WrongShape, ZeroContraction
from .statevector import (
    DensityMatrix,
    ProductState,
    StateVector,
    _contract_all_but,
    _random_factors,
    product_amps,
    schmidt,
    seed_sequence,
    uniform_factor,
)

# A contraction below this norm carries no gradient information; the restart
# is reseeded rather than divided by noise.
CONTRACTION_EPS = 1e-14


@dataclass(frozen=True)
class OptimizerConfig:
    """Restart count, per-sweep convergence threshold, and sweep budget."""

    restarts: int = 20
    tol: float = 1e-12
    max_sweeps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise OutOfRange("restarts must be >= 1")
        if not self.tol > 0:
            raise OutOfRange("tol must be > 0")
        if self.max_sweeps < 1:
            raise OutOfRange("max_sweeps must be >= 1")


@dataclass(frozen=True, eq=False)
class PmaxResult:
    """Optimized overlap value with the maximizing product state and metadata.

    ``value`` is recomputed from ``argmax`` at the end of optimization, so it
    always reproduces |<argmax|psi>|^2 (or <argmax|rho|argmax> for density
    input) exactly.  A ``converged=False`` result is still a valid lower
    bound on the true maximum.
    """

    value: float
    argmax: ProductState
    restarts_used: int
    sweeps: int
    converged: bool
    best_per_restart: tuple[float, ...]


@dataclass
class _Climb:
    objective: float
    factors: list[np.ndarray]
    sweeps: int
    converged: bool
    degenerate: bool


def _climb(update_site, initial_factors, dims, cfg, restart) -> _Climb:
    """Run alternating single-site updates from one starting point.

    ``update_site(factors, j)`` must replace factors[j] with the exact
    single-site optimum and return the resulting objective, or None when the
    environment is degenerate.
    """
    factors = [f.copy() for f in initial_factors]
    n = len(dims)
    prev = -math.inf
    sweeps = 0
    attempt = 0
    while sweeps < cfg.max_sweeps:
        sweeps += 1
        obj = None
        for j in range(n):
            obj = update_site(factors, j)
            if obj is None:
                break
        if obj is None:
            # Degenerate contraction: reseed this restart a bounded number
            # of times before declaring it failed.
            attempt += 1
            if attempt > 3:
                return _Climb(0.0, factors, sweeps, False, True)
            factors = _random_factors(dims, seed_sequence(cfg.seed, restart, attempt))
            prev = -math.inf
            continue
        if obj - prev < cfg.tol:
            return _Climb(obj, factors, sweeps, True, False)
        prev = obj
    return _Climb(prev, factors, sweeps, False, False)


def _optimize(update_site, shape, cfg, basis_floor_value, basis_floor_index):
    """Shared restart loop for the pure and mixed objectives."""
    dims = shape.dims
    starts: list[list[np.ndarray]] = [[uniform_factor(d) for d in dims]]
    for r in range(2, cfg.restarts + 1):
        starts.append(_random_factors(dims, seed_sequence(cfg.seed, r, 0)))

    best: _Climb | None = None
    per_restart: list[float] = []
    for r, init in enumerate(starts, start=1):
        climb = _climb(update_site, init, dims, cfg, r)
        per_restart.append(0.0 if climb.degenerate else climb.objective)
        if climb.degenerate:
            continue
        if best is None or climb.objective > best.objective:
            best = climb
    restarts_used = len(starts)

    if best is not None and best.objective < basis_floor_value - 1e-15:
        # All scheduled restarts undershot the best computational-basis
        # product; climb once from that basis state, which cannot descend
        # below it.  Keeps value >= max_x |amp_x|^2 unconditionally.
        digits = shape.digits_of(basis_floor_index)
        init = []
        for d, x in zip(dims, digits):
            e = np.zeros(d, dtype=np.complex128)
            e[x] = 1.0
            init.append(e)
        climb = _climb(update_site, init, dims, cfg, restarts_used + 1)
        restarts_used += 1
        per_restart.append(0.0 if climb.degenerate else climb.objective)
        if not climb.degenerate and climb.objective > best.objective:
            best = climb

    if best is None:
        raise ZeroContraction("every restart produced a degenerate contraction")
    return best, restarts_used, tuple(per_restart)


def _pure_site_update(tensor: np.ndarray):
    """Exact single-site update for the pure objective |<e_1..e_n|psi>|^2,
    in the form ``_climb`` takes: it sets factors[j] to the normalized
    environment contraction and returns the objective, or None if degenerate."""

    def update_site(factors, j):
        v = _contract_all_but(tensor, factors, j)
        nv = float(np.linalg.norm(v))
        if nv < CONTRACTION_EPS:
            return None
        factors[j] = v / nv
        return nv * nv

    return update_site


def pmax_overlap(state: StateVector, cfg: OptimizerConfig | None = None) -> PmaxResult:
    """Maximize |<e_1,...,e_n|state>|^2 over product states.

    Restart 1 starts from the per-site uniform product; the remaining
    restarts start from Haar-random products drawn from seeds derived from
    ``cfg.seed``.  Ties across restarts resolve to the lowest restart index.
    """
    cfg = cfg or OptimizerConfig()
    probs = state.probabilities()
    floor_index = int(np.argmax(probs))
    update_site = _pure_site_update(state.tensor())
    best, restarts_used, per_restart = _optimize(
        update_site, state.shape, cfg, float(probs[floor_index]), floor_index
    )
    argmax = ProductState(state.shape, tuple(best.factors))
    value = abs(complex(np.vdot(product_amps(argmax.factors), state.amps))) ** 2
    return PmaxResult(
        value=value,
        argmax=argmax,
        restarts_used=restarts_used,
        sweeps=best.sweeps,
        converged=best.converged,
        best_per_restart=per_restart,
    )


def pmax_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> PmaxResult:
    """Maximize <e_1,...,e_n|rho|e_1,...,e_n> over product states.

    The single-site update replaces a factor with the top eigenvector of the
    small Hermitian matrix obtained by contracting rho with the other
    factors on both sides; within a degenerate top eigenspace the
    eigensolver's vector is kept as returned (canonical phase applied).
    """
    cfg = cfg or OptimizerConfig()
    shape = rho.shape
    dims = shape.dims
    matrix = rho.entries

    def update_site(factors, j):
        left = product_amps(factors[:j]).reshape(-1, 1) if j > 0 else None
        right = (
            product_amps(factors[j + 1 :]).reshape(-1, 1)
            if j < len(dims) - 1
            else None
        )
        k = np.eye(dims[j], dtype=np.complex128)
        if left is not None:
            k = np.kron(left, k)
        if right is not None:
            k = np.kron(k, right)
        env = k.conj().T @ matrix @ k
        if float(np.trace(env).real) < CONTRACTION_EPS:
            return None
        vals, vecs = np.linalg.eigh(env)
        factors[j] = np.ascontiguousarray(vecs[:, -1])
        return float(vals[-1])

    diag = np.real(np.diagonal(matrix))
    floor_index = int(np.argmax(diag))
    best, restarts_used, per_restart = _optimize(
        update_site, shape, cfg, float(diag[floor_index]), floor_index
    )
    argmax = ProductState(shape, tuple(best.factors))
    e = product_amps(argmax.factors)
    value = float(np.real(np.vdot(e, matrix @ e)))
    return PmaxResult(
        value=value,
        argmax=argmax,
        restarts_used=restarts_used,
        sweeps=best.sweeps,
        converged=best.converged,
        best_per_restart=per_restart,
    )


def pmax_bipartite(state: StateVector, split) -> float:
    """Exact product-overlap maximum across a bipartition: (top Schmidt coeff)^2."""
    return schmidt(state, split).p_max


# Bloch-angle grids: theta_k = k*pi/R and phi_k = 2*pi*k/R for k = 0..R-1.
# Doubling R refines each grid in place (the coarse grid is a subset), which
# makes the oracle value monotone under power-of-two refinement.
MIN_GRID_RESOLUTION = 32


def _grid_candidates(resolution: int) -> np.ndarray:
    theta = np.arange(resolution) * math.pi / resolution
    phi = np.arange(resolution) * 2.0 * math.pi / resolution
    e = np.empty((resolution * resolution, 2), dtype=np.complex128)
    e[:, 0] = np.repeat(np.cos(theta / 2.0), resolution)
    e[:, 1] = (np.exp(1j * phi)[None, :] * np.sin(theta / 2.0)[:, None]).reshape(-1)
    return e


def _top_sigma_sq_2x2(m: np.ndarray) -> np.ndarray:
    """Largest squared singular value of a batch of 2x2 matrices, closed form."""
    t = (np.abs(m) ** 2).sum(axis=(-2, -1))
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    disc = np.sqrt(np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0))
    return (t + disc) / 2.0


def _grid_max_two_site(matrix: np.ndarray, cand_conj: np.ndarray) -> float:
    """Exact max of |e1+ M e2*| over the candidate grid, chunked over rows."""
    left = cand_conj @ matrix  # (G, 2)
    best = 0.0
    step = 512
    for i in range(0, left.shape[0], step):
        vals = np.abs(left[i : i + step] @ cand_conj.T) ** 2
        best = max(best, float(vals.max()))
    return best


def _grid_max_three_site(tensor: np.ndarray, cand_conj: np.ndarray) -> float:
    """Exact grid maximum for three qubits by best-first branch and bound.

    Fixing the site-1 candidate leaves a 2x2 matrix whose top squared
    singular value bounds anything reachable below it; candidates are
    expanded in bound order and pruned against the best full-grid value
    found, so the result equals exhaustive enumeration.
    """
    v = np.tensordot(cand_conj, tensor, axes=([1], [0]))  # (G, 2, 2)
    ub1 = _top_sigma_sq_2x2(v)
    order = np.argsort(-ub1, kind="stable")
    best = 0.0
    for a in order[:4]:  # greedy dives establish a tight starting bound
        w = cand_conj @ v[a]
        b = int(np.argmax((np.abs(w) ** 2).sum(axis=1)))
        best = max(best, float((np.abs(cand_conj @ w[b]) ** 2).max()))
    for a in order:
        if ub1[a] <= best:
            break
        w = cand_conj @ v[a]  # (G, 2)
        ub2 = (np.abs(w) ** 2).sum(axis=1)
        sel = np.nonzero(ub2 > best)[0]
        if sel.size == 0:
            continue
        vals = np.abs(w[sel] @ cand_conj.T) ** 2
        best = max(best, float(vals.max()))
    return best


def pmax_grid_oracle(state: StateVector, resolution: int) -> float:
    """Exhaustive Bloch-angle grid maximum of the product overlap (<= 3 qubits).

    Factors are cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> on a grid of
    ``resolution`` points per angle.  The value is the exact maximum over
    the grid, a lower bound on the true optimum that converges as the
    resolution grows.
    """
    shape = state.shape
    if any(d != 2 for d in shape.dims):
        raise WrongShape("grid oracle supports qubit sites only")
    if shape.n > 3:
        raise TooLarge("grid oracle supports at most 3 sites")
    if resolution < MIN_GRID_RESOLUTION:
        raise OutOfRange(f"resolution must be >= {MIN_GRID_RESOLUTION}")
    cand_conj = _grid_candidates(resolution).conj()
    if shape.n == 1:
        return float((np.abs(cand_conj @ state.amps) ** 2).max())
    if shape.n == 2:
        return _grid_max_two_site(state.amps.reshape(2, 2), cand_conj)
    return _grid_max_three_site(state.tensor(), cand_conj)
