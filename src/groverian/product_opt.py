"""Maximal squared overlap between a state and the set of product states.

The maximizer is alternating single-site optimization (best rank-one tensor
approximation by power-type iteration): holding all factors but one fixed,
the optimal remaining factor is the normalized environment contraction for
pure states, or the top eigenvector of a small Hermitian environment matrix
for density operators.  Each update is the exact single-site optimum, so the
objective never decreases; random restarts guard against local maxima.

A sweep visits sites 1..n in order and carries the left environment (the
target with the already-updated factors contracted in) from site to site,
so one sweep costs O(N) for a state of N amplitudes and O(N^2) for an
N x N density matrix.  Pure and mixed input share one sweep engine.

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
        if not 0 < self.tol < math.inf:
            raise OutOfRange("tol must be finite and > 0")
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


def _pure_site(left, factors, j):
    """Site j of the pure objective |<e_1..e_n|psi>|^2.

    ``left`` is the state tensor with conj(e_1..e_{j-1}) contracted in, of
    shape (d_j, ..., d_n).  Returns the normalized environment contraction,
    its objective and the left environment of site j+1, or None when the
    contraction vanishes.
    """
    v = _contract_all_but(left, factors[j:], 0)
    nv = float(np.linalg.norm(v))
    if nv < CONTRACTION_EPS:
        return None
    e = v / nv
    return e, nv * nv, (np.conj(e) @ left.reshape(e.size, -1)).reshape(left.shape[1:])


def _mixed_site(left, factors, j):
    """Site j of the mixed objective <e_1..e_n|rho|e_1..e_n>.

    ``left`` is rho with conj(e_1..e_{j-1}) contracted onto the ket axes and
    e_1..e_{j-1} onto the bra axes, an (M, M) matrix with M = d_j...d_n.  The
    site environment is (I (x) w^H) left (I (x) w) with w the product of the
    factors right of j; its top eigenvector is the new factor.  Returns the
    factor, its objective and the left environment of site j+1, or None when
    the environment vanishes.
    """
    d = factors[j].size
    r = left.shape[0] // d
    if j + 1 < len(factors):
        w = product_amps(factors[j + 1 :])
    else:
        w = np.ones(1, dtype=np.complex128)
    env = np.matmul(w.conj(), (left.reshape(-1, r) @ w).reshape(d, r, d))
    if float(np.trace(env).real) < CONTRACTION_EPS:
        return None
    vals, vecs = np.linalg.eigh(env)
    e = np.ascontiguousarray(vecs[:, -1])
    ket = (np.conj(e) @ left.reshape(d, -1)).reshape(r, d, r)
    return e, float(vals[-1]), np.matmul(e, ket)


def _sweep(site, target, factors) -> list[float] | None:
    """One left-to-right sweep of exact single-site updates over ``factors``.

    The left environment starts as ``target`` and ``site`` absorbs each
    updated factor into it.  Replaces factors in place and returns the
    objective after each site, or None at the first degenerate contraction.
    """
    left = target
    objectives = []
    for j in range(len(factors)):
        step = site(left, factors, j)
        if step is None:
            return None
        factors[j], objective, left = step
        objectives.append(objective)
    return objectives


def _climb(site, target, initial_factors, dims, cfg, restart) -> _Climb:
    """Run alternating single-site sweeps from one starting point."""
    factors = [f.copy() for f in initial_factors]
    prev = -math.inf
    sweeps = 0
    attempt = 0
    while sweeps < cfg.max_sweeps:
        sweeps += 1
        objectives = _sweep(site, target, factors)
        if objectives is None:
            # Degenerate contraction: reseed this restart a bounded number
            # of times before declaring it failed.
            attempt += 1
            if attempt > 3:
                return _Climb(0.0, factors, sweeps, False, True)
            factors = _random_factors(dims, seed_sequence(cfg.seed, restart, attempt))
            prev = -math.inf
            continue
        obj = objectives[-1]
        if obj - prev < cfg.tol:
            return _Climb(obj, factors, sweeps, True, False)
        prev = obj
    return _Climb(prev, factors, sweeps, False, False)


def _optimize(site, target, shape, cfg, basis_floor_value, basis_floor_index):
    """Shared restart loop for the pure and mixed objectives."""
    dims = shape.dims
    starts: list[list[np.ndarray]] = [[uniform_factor(d) for d in dims]]
    for r in range(2, cfg.restarts + 1):
        starts.append(_random_factors(dims, seed_sequence(cfg.seed, r, 0)))

    best: _Climb | None = None
    per_restart: list[float] = []
    for r, init in enumerate(starts, start=1):
        climb = _climb(site, target, init, dims, cfg, r)
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
        climb = _climb(site, target, init, dims, cfg, restarts_used + 1)
        restarts_used += 1
        per_restart.append(0.0 if climb.degenerate else climb.objective)
        if not climb.degenerate and climb.objective > best.objective:
            best = climb

    if best is None:
        raise ZeroContraction("every restart produced a degenerate contraction")
    return best, restarts_used, tuple(per_restart)


def pmax_overlap(state: StateVector, cfg: OptimizerConfig | None = None) -> PmaxResult:
    """Maximize |<e_1,...,e_n|state>|^2 over product states.

    Restart 1 starts from the per-site uniform product; the remaining
    restarts start from Haar-random products drawn from seeds derived from
    ``cfg.seed``.  Ties across restarts resolve to the lowest restart index.
    """
    cfg = cfg or OptimizerConfig()
    probs = state.probabilities()
    floor_index = int(np.argmax(probs))
    best, restarts_used, per_restart = _optimize(
        _pure_site, state.tensor(), state.shape, cfg,
        float(probs[floor_index]), floor_index,
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
    matrix = rho.entries
    diag = np.real(np.diagonal(matrix))
    floor_index = int(np.argmax(diag))
    best, restarts_used, per_restart = _optimize(
        _mixed_site, matrix, shape, cfg, float(diag[floor_index]), floor_index
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
