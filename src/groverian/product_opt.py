"""Maximal squared overlap between a state and the set of product states.

The maximizer is alternating single-site optimization (best rank-one tensor
approximation by power-type iteration).  Both objectives are written over a
(K, N) block of rows b_k: sum_k |<e|b_k>|^2.  A state is one row; a density
matrix is the factor of rho = sum_k |b_k><b_k| it holds from construction
(``DensityMatrix``: pivoted Cholesky of given entries, K the numerical rank,
or a factor built directly), so no call factors it again.  Holding all
factors but one fixed, the optimal remaining factor is the normalized
environment contraction for one row, or the top eigenvector of the
d_j x d_j Gram matrix of the (K, d_j) contraction for several.  Each update
is the exact single-site optimum, so the objective never decreases; random
restarts guard against local maxima.

A sweep visits sites 1..n in order, by halves: it splits the sites at the
middle one, contracts the right half's factors out of the target for the
left half, sweeps the left half, contracts the left half's updated factors
out for the right half, and sweeps that, each half splitting again down to
one site.  So a sweep reads the target twice, whatever n is, and the
partial contractions are reused across site updates (as Phan, Tichavsky
and Cichocki do for CP alternating least squares, IEEE TSP 61, 4834
(2013)).  Restarts climb together (``_climb_rows``): each site's factors
for a batch of rows are stacked into an (R, d_j) array, and one sweep
updates every row still climbing with batched contractions.  A batch holds
the restarts of inputs of equal dims, K, ``tol`` and ``max_sweeps``, so
its rows climb under one config; it runs in chunks (``_chunks``), and an
input's starts (``_climb_all``) do not depend on them.  Pure and mixed
input share one sweep engine, and ``pmax_overlap`` and ``pmax_mixed`` are
the one-input calls of ``pmax_overlap_many``.  Every basis product is a
feasible point, and a climb from the best one (``_basis_start``) can
neither end below its weight nor vanish on nonzero input: it is where a
vanished row climbs again, and the floor of every input's value.  At most
MAX_RESTARTS restarts are accepted.

Two independent references are provided: a Bloch-angle grid over site 1
with the other sites exact (a lower bound), for up to three qubits, and the
exact bipartite closed form (largest squared Schmidt coefficient).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange, TooLarge, WrongShape
from .statevector import (
    MAX_TOTAL_DIM,
    DensityMatrix,
    ProductState,
    StateVector,
    _contract_all_but,
    _index,
    _unit_stacks,
    product_amps,
    schmidt,
    seed_sequence,
    uniform_factor,
)

# A contraction below this norm carries no gradient information, so its row
# climbs again (``_climb_rows``) rather than divide by noise.
CONTRACTION_EPS = 1e-14

# The amplitudes a chunk of restarts may hold (``_chunks``).  A sweep's
# temporaries take about 1 KiB per three-qubit row, so 2^15 keeps the 4,096
# rows of such a chunk within about 4 MiB, also when ``verify`` climbs every
# check's three-qubit inputs in one batch.
CHUNK_AMPLITUDES = 2**15

# The restart schedule, and the report that lists every restart, grow with
# the count: 2^20 restarts of a two-qubit state take about half a minute.
MAX_RESTARTS = 2**20


@dataclass(frozen=True)
class OptimizerConfig:
    """Restart count, per-sweep convergence threshold, and sweep budget."""

    restarts: int = 20
    tol: float = 1e-12
    max_sweeps: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_sweeps", "seed"):
            object.__setattr__(self, name, _index(getattr(self, name), name, OutOfRange))
        if not isinstance(self.tol, numbers.Real):
            raise OutOfRange(f"tol must be a real number, got {self.tol!r}")
        if self.restarts < 1:
            raise OutOfRange("restarts must be >= 1")
        if self.restarts > MAX_RESTARTS:
            raise OutOfRange(f"restarts must be <= 2^20, got {self.restarts}")
        if not 0 < self.tol < math.inf:
            raise OutOfRange("tol must be finite and > 0")
        if self.max_sweeps < 1:
            raise OutOfRange("max_sweeps must be >= 1")


@dataclass(frozen=True, eq=False)
class PmaxResult:
    """Optimized overlap value with the maximizing product state and metadata.

    ``value`` is sum_k |<argmax|b_k>|^2 over the (K, N) block the restarts
    climbed, recomputed from ``argmax`` and capped at 1 (as is every
    ``best_per_restart`` entry), since P_max <= 1; it stays a valid lower
    bound on the true maximum, also when ``converged`` is False.
    """

    value: float
    argmax: ProductState
    restarts_used: int
    sweeps: int
    converged: bool
    best_per_restart: tuple[float, ...]


@dataclass
class _Climbs:
    """Per-restart outcome of a batch of climbs, one row per restart.

    A row that vanished on its last sweep has objective 0.0.  Every other
    row's is positive: at least CONTRACTION_EPS^2 for one column, the top
    eigenvalue of a nonzero Gram matrix for several.  So the first argmax
    of ``objective`` is the best row."""

    objective: np.ndarray
    sweeps: np.ndarray
    converged: np.ndarray
    factors: list[np.ndarray]  # (R, d_j) final factors per site, the last field

    def __getitem__(self, rows: slice) -> _Climbs:
        *arrays, factors = vars(self).values()
        return _Climbs(*(a[rows] for a in arrays), [f[rows] for f in factors])


def _join(climbs: list[_Climbs]) -> _Climbs:
    *arrays, factors = zip(*(vars(c).values() for c in climbs))
    return _Climbs(*map(np.concatenate, arrays), [np.concatenate(fs) for fs in zip(*factors)])


def _sweep_rows(target, factors):
    """One sweep of exact single-site updates, sites 1..n in order, over R rows.

    ``target`` is the (K, d_1, ..., d_n) block of K columns b_k whose
    objective sum_k |<e|b_k>|^2 is maximized, shared by every row, or an
    (R, K, d_1, ..., d_n) stack of such blocks, one per row; K is read from
    axis -(n + 1) either way.  ``factors[j]`` is the (R, d_j) stack of
    site-j factors, one row per restart, and is replaced in place.  The
    sweep runs by halves (``_sweep_block``), so it reads the target twice,
    not once per site.  With one column the normalized contraction is the new
    factor; with several, the top eigenvector of the d_j x d_j Gram matrix
    of the (K, d_j) contraction.  A row's contraction vanishes when its
    norm is below CONTRACTION_EPS, whatever K is.  Every row's arithmetic
    is the same whether its target is shared or its own, and whatever the
    other rows are.

    Returns the (R, n) objectives after each site and the rows whose
    contraction vanished at some site; those rows hold finite values that
    mean nothing.
    """
    objectives = np.empty((len(factors[0]), len(factors)))
    degenerate = np.zeros(len(objectives), dtype=bool)
    _sweep_block(target, factors, 0, len(factors), objectives, degenerate)
    return objectives, degenerate


def _sweep_block(env, factors, lo, hi, objectives, degenerate):
    """Update sites lo..hi-1 in order from ``env``, the (R, K, d_lo, ...,
    d_{hi-1}) target, or (K, ...) shared, with every other site contracted
    in: the sites before lo at their updated factors, those from hi on at
    their old ones.  A block of several sites splits at its middle site.
    The left half's environment is ``env`` with the right half's old
    factors contracted in; once the left half is updated, the right half's
    is ``env`` with the left half's new factors contracted in.  A one-site
    block is the site update.
    """
    if hi - lo > 1:
        mid = (lo + hi) // 2
        for keep, a, b in ((slice(0, mid - lo), lo, mid), (slice(mid - lo, None), mid, hi)):
            half = _contract_all_but(env, factors[lo:hi], keep)
            _sweep_block(half, factors, a, b, objectives, degenerate)
        return
    # Only a one-site register's shared target reaches here without rows.
    v = env if env.ndim == 3 else np.broadcast_to(env, (len(objectives), *env.shape))
    norm = np.linalg.norm(v, axis=(1, 2))
    bad = norm < CONTRACTION_EPS
    if v.shape[1] == 1:
        factors[lo] = v[:, 0] / np.where(bad, 1.0, norm)[:, None]
        objectives[:, lo] = norm * norm
    else:
        gram = np.matmul(v.transpose(0, 2, 1), np.conj(v))
        vals, vecs = np.linalg.eigh(gram)
        factors[lo] = np.ascontiguousarray(vecs[:, :, -1])
        objectives[:, lo] = vals[:, -1]
    degenerate |= bad


def _basis_start(block):
    """The largest basis weight max_x sum_k |b_k(x)|^2 of the (K, d_1, ...,
    d_n) block, and its basis product x as one-hot (1, d_j) stacks."""
    weights = (np.abs(block) ** 2).sum(axis=0)
    top = np.unravel_index(int(np.argmax(weights)), weights.shape)
    return weights[top], [np.eye(d, dtype=np.complex128)[[k]] for d, k in zip(weights.shape, top)]


def _climb_rows(target, factors, cfg) -> _Climbs:
    """Alternating sweeps from R starting points at once, under one config.

    ``target`` is shared by every row or holds one block per row, as in
    ``_sweep_rows``, and ``factors`` holds the (R, d_j) starting stacks.  A
    row leaves the batch, with its factors and its block of a per-row
    target, when its last-site objective gains less than ``cfg.tol`` over
    the previous sweep, or at sweep ``cfg.max_sweeps``.  A row whose
    contraction vanishes climbs again from its next sweep from the
    ``_basis_start`` of its block, which cannot vanish; on the last sweep
    it reports objective 0.0.
    """
    rows = len(factors[0])
    out = _Climbs(
        np.zeros(rows),
        np.zeros(rows, dtype=int),
        np.zeros(rows, dtype=bool),
        [np.empty_like(f) for f in factors],
    )
    live = np.arange(rows)
    per_row = target.ndim > len(factors) + 1
    current = [f.copy() for f in factors]
    prev = np.full(rows, -math.inf)
    for sweep in range(1, cfg.max_sweeps + 1):
        objectives, bad = _sweep_rows(target, current)
        obj = objectives[:, -1]
        converged = ~bad & (obj - prev < cfg.tol)
        done = converged | (sweep == cfg.max_sweeps)
        if not (bad | done).any():
            prev = obj
            continue
        rows_done = live[done]
        out.objective[rows_done] = np.where(bad, 0.0, obj)[done]
        out.sweeps[rows_done] = sweep
        out.converged[rows_done] = converged[done]
        for j, f in enumerate(current):
            out.factors[j][rows_done] = f[done]
        if done.all():
            break
        for k in np.flatnonzero(bad):
            basis = _basis_start(target[k] if per_row else target)[1]
            for f, g in zip(current, basis):
                f[k] = g[0]
        keep = ~done
        live, prev = live[keep], np.where(bad, -math.inf, obj)[keep]
        current = [f[keep] for f in current]
        if per_row:
            target = target[keep]
    return out


def _climb_all(targets, cfgs) -> list[_Climbs]:
    """Climb restarts 1..R of every input, R its config's ``restarts``, with
    the inputs of one target shape (dims and K), ``tol`` and ``max_sweeps``
    as rows of one batch, in the chunks of ``_chunks``.

    Restart 1 starts from the uniform product, restart r > 1 from row r of
    the (R, 2 * sum(d_j)) standard normals that the input's one stream, the
    generator keyed (seed, 0, 0), yields in restart order.  The chunks visit
    an input's restarts in order and draw their rows from its stream, and
    rows drawn in pieces from one generator equal one draw, so its starts
    do not depend on the chunk size or its batch.  Returns each input's
    climbs, in restart order.
    """
    found: list[list[_Climbs]] = [[] for _ in targets]
    groups: dict[tuple, list[int]] = {}
    for i, (target, cfg) in enumerate(zip(targets, cfgs)):
        groups.setdefault((target.shape, cfg.tol, cfg.max_sweeps), []).append(i)
    for (shape, *_), members in groups.items():
        dims, cfg = shape[1:], cfgs[members[0]]
        streams = {i: np.random.default_rng(seed_sequence(cfgs[i].seed, 0, 0)) for i in members}
        inputs = np.repeat(members, [cfgs[i].restarts for i in members])
        restarts = np.concatenate([np.arange(1, cfgs[i].restarts + 1) for i in members])
        for at, stop in _chunks(inputs, shape):
            ins, rs = inputs[at:stop], restarts[at:stop]
            normals = [streams[ins[a]].standard_normal((b - a, 2 * sum(dims))) for a, b in _runs(ins)]
            starts = _unit_stacks(np.concatenate(normals), dims)
            for f, d in zip(starts, dims):
                f[rs == 1] = uniform_factor(d)
            target = targets[ins[0]] if ins[0] == ins[-1] else np.stack([targets[i] for i in ins])
            climbs = _climb_rows(target, starts, cfg)
            for a, b in _runs(ins):
                found[ins[a]].append(climbs[a:b])
    return [_join(c) for c in found]


def _chunks(inputs, shape):
    """(start, stop) of each chunk of the batch rows ``inputs``, on targets
    of ``shape`` (K, d_1, ..., d_n).  A chunk holds at most about
    CHUNK_AMPLITUDES amplitudes.  A target of K * N <= CHUNK_AMPLITUDES
    amplitudes runs CHUNK_AMPLITUDES // (K * N) rows per chunk, whatever
    their inputs, on a per-row stack of targets.  A larger one is never
    stacked: a chunk takes one input's rows, on its shared target,
    CHUNK_AMPLITUDES // (K * H) at a time and at least one, H the larger
    half environment of a sweep's top split (``_sweep_block``).
    """
    size, dims = math.prod(shape), shape[1:]
    if size <= CHUNK_AMPLITUDES:
        step, spans = CHUNK_AMPLITUDES // size, [(0, len(inputs))]
    else:
        mid = len(dims) // 2
        half = max(math.prod(dims[:mid]), math.prod(dims[mid:]))
        step, spans = max(1, CHUNK_AMPLITUDES // (shape[0] * half)), _runs(inputs)
    for a, b in spans:
        for at in range(a, b, step):
            yield at, min(at + step, b)


def _runs(inputs):
    """(start, stop) of each run of equal entries in the chunk's ``inputs``."""
    edges = [0, *(np.flatnonzero(np.diff(inputs)) + 1), len(inputs)]
    return zip(edges, edges[1:])


def _result(climbs: _Climbs, shape, block) -> PmaxResult:
    """The best restart as the result for the (K, N) ``block`` the restarts
    climbed; the value is sum_k |<argmax|b_k>|^2, recomputed from the joint
    amplitudes of the argmax, and it and every restart's are capped at 1."""
    best = int(np.argmax(climbs.objective))
    argmax = ProductState(shape, tuple(f[best] for f in climbs.factors))
    e = product_amps(argmax.factors)
    return PmaxResult(
        value=min(sum(abs(complex(np.vdot(e, b))) ** 2 for b in block), 1.0),
        argmax=argmax,
        restarts_used=len(climbs.objective),
        sweeps=int(climbs.sweeps[best]),
        converged=bool(climbs.converged[best]),
        best_per_restart=tuple(np.minimum(climbs.objective, 1.0).tolist()),
    )


def pmax_overlap_many(inputs, cfgs) -> list[PmaxResult]:
    """``pmax_overlap`` of every state and ``pmax_mixed`` of every density
    in ``inputs``, in input order, with one config (or None) each in ``cfgs``.

    Inputs of equal dims, K, ``tol`` and ``max_sweeps`` climb as rows of one
    batch, and a row's arithmetic does not depend on its batch: each result
    equals the input's own one-input call bit for bit, at a fraction of the
    per-call overhead.  An input whose restarts all end below its best
    basis product (``_basis_start``; a row that vanished on its last sweep
    reports 0.0) climbs once more from it, as restart R + 1, alone on its
    own target, so its value is at least that product's weight.  The
    many-input caller is ``verify``, whose suite makes one call for the
    requests of all its checks.
    """
    inputs, cfgs = list(inputs), [cfg or OptimizerConfig() for cfg in cfgs]
    if len(inputs) != len(cfgs):
        raise DimensionMismatch(f"{len(inputs)} inputs but {len(cfgs)} configs")
    blocks = [x.factor if isinstance(x, DensityMatrix) else x.amps[None] for x in inputs]
    targets = [b.reshape((len(b),) + x.shape.dims) for b, x in zip(blocks, inputs)]
    climbs = _climb_all(targets, cfgs)
    groups: dict[tuple, list[int]] = {}
    for i, target in enumerate(targets):
        groups.setdefault(target.shape, []).append(i)
    for members in groups.values():
        group = [targets[i] for i in members]
        stack = np.stack(group) if len(group) > 1 else group[0][None]
        # each block's largest basis weight, summed over k as _basis_start sums it
        weights = (np.abs(stack) ** 2).sum(axis=1).reshape(len(group), -1).max(axis=1)
        for i, target, weight in zip(members, group, weights):
            if climbs[i].objective.max() < weight - 1e-15:
                floor = _climb_rows(target, _basis_start(target)[1], cfgs[i])
                climbs[i] = _join([climbs[i], floor])
    return [_result(c, x.shape, b) for c, x, b in zip(climbs, inputs, blocks)]


def pmax_overlap(state: StateVector, cfg: OptimizerConfig | None = None) -> PmaxResult:
    """Maximize |<e_1,...,e_n|state>|^2 over product states.

    Restart 1 starts from the per-site uniform product; the remaining
    restarts start from Haar-random products drawn from one generator
    seeded by ``cfg.seed``.  Ties across restarts resolve to the lowest
    restart index.
    """
    return pmax_overlap_many([state], [cfg])[0]


def pmax_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> PmaxResult:
    """Maximize <e_1,...,e_n|rho|e_1,...,e_n> over product states.

    rho is held as its factor, the (K, N) rows b_k (factored once at
    construction), and the restarts climb sum_k |<e|b_k>|^2 in the sweep
    engine of ``pmax_overlap`` at O(chunk * N * K) per sweep; the basis
    floor is the diagonal sum_k |b_k|^2.  For K > 1 the single-site update
    is the top eigenvector of a d_j x d_j Gram matrix; within a degenerate
    top eigenspace the eigensolver's vector is kept as returned (canonical
    phase applied).  ``value`` is recomputed as <e|rho|e> = sum_k |<e|b_k>|^2
    of the factor, so for a one-row factor equal to a state the result is
    that of ``pmax_overlap`` on the state.
    """
    return pmax_overlap_many([rho], [cfg])[0]


def pmax_bipartite(state: StateVector, split) -> float:
    """Exact product-overlap maximum across a bipartition: (top Schmidt coeff)^2."""
    return schmidt(state, split).p_max


# Bloch-angle grids: theta_k = k*pi/R and phi_k = 2*pi*k/R for k = 0..R-1.
# Doubling R refines each grid in place (the coarse grid is a subset), which
# makes the oracle value monotone under power-of-two refinement.
MIN_GRID_RESOLUTION = 32
_GRID_BLOCK = 1 << 11  # candidates per block: at most 128 KiB of complex remainder


def _grid_candidates(resolution: int) -> np.ndarray:
    theta = np.arange(resolution) * math.pi / resolution
    phi = np.arange(resolution) * 2.0 * math.pi / resolution
    e = np.empty((resolution * resolution, 2), dtype=np.complex128)
    e[:, 0] = np.repeat(np.cos(theta / 2.0), resolution)
    e[:, 1] = (np.exp(1j * phi)[None, :] * np.sin(theta / 2.0)[:, None]).reshape(-1)
    return e


def _top_sigma_sq_2x2(m: np.ndarray) -> np.ndarray:
    """Largest squared singular value of the 2x2 matrices m[:, :, k]: the top
    eigenvalue of m m^+ = [[p, q], [q*, r]], (p + r)/2 + sqrt(((p - r)/2)^2
    + |q|^2), which keeps full precision for nearly equal singular values.
    conj(q) is built from views, not as x * y.conj(), which numpy computes
    in place when large, rounding unlike a small batch."""
    p, r = (np.abs(m) ** 2).sum(axis=1)
    top = m[0].conj()
    q = top[0] * m[1, 0] + top[1] * m[1, 1]
    return (p + r) / 2.0 + np.sqrt(((p - r) / 2.0) ** 2 + np.abs(q) ** 2)


def pmax_grid_oracle(state: StateVector, resolution: int) -> float:
    """Grid maximum over site 1 with the other sites exact (<= 3 qubits).

    Site 1's factor runs over cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> on
    a grid of ``resolution`` points per angle; the best product over the
    remaining sites is exact: the remainder's squared norm, or its top
    squared singular value for two sites.  The value is attained by a
    product state, so it is a lower bound on P_max independent of the
    sweeps, and at least the full-grid maximum at the same resolution.
    Resolutions past 2^14 are refused: their (2, 2, R^2) remainder would
    pass MAX_TOTAL_DIM entries.  Site 1 is contracted without BLAS, which
    threads this skinny product at a CPU cost far above its gain, in blocks
    of 2^11 candidates, so the arrays stay cache-warm instead of touching
    fresh pages; every candidate's value is the same in any block.
    """
    shape = state.shape
    if any(d != 2 for d in shape.dims):
        raise WrongShape("grid oracle supports qubit sites only")
    if shape.n > 3:
        raise TooLarge("grid oracle supports at most 3 sites")
    resolution = _index(resolution, "resolution", OutOfRange)
    if resolution < MIN_GRID_RESOLUTION or 4 * resolution**2 > MAX_TOTAL_DIM:
        raise OutOfRange(f"resolution must be in [{MIN_GRID_RESOLUTION}, 2^14]")
    c, t = np.conj(_grid_candidates(resolution).T, order="C"), state.amps.reshape(2, -1, 1)
    best = []
    for at in range(0, resolution**2, _GRID_BLOCK):
        rest = t[0] * c[0, at : at + _GRID_BLOCK]
        rest += t[1] * c[1, at : at + _GRID_BLOCK]
        if shape.n == 3:
            best.append(_top_sigma_sq_2x2(rest.reshape(2, 2, -1)).max())
        else:
            best.append((np.abs(rest) ** 2).sum(axis=0).max())
    return float(max(best))
