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
(2013)).  Restarts climb together: each site's factors for a batch of rows
are stacked into an (R, d_j) array, and one sweep updates every row still
climbing with batched contractions.  The target is shared by every row,
or is an (R, K, d_1, ..., d_n) stack with one block per row, which lets
``pmax_overlap_many`` stack the restarts of many inputs of equal dims and
K into one batch.  A row leaves the batch when it converges or runs out of
sweeps.  Rows run in chunks of at most CHUNK_AMPLITUDES / (N * K), and at
least one, so one sweep costs O(chunk * N * K).  Pure and
mixed input share one sweep engine, and ``pmax_overlap`` and
``pmax_mixed`` are its one-input calls.  An input's random starts are read
in restart order from one generator keyed (its seed, 0, 0), so they do not
depend on the chunks; a vanished row is reseeded from its own key (its
input's seed, its restart, the attempt).  An input whose R restarts all end
below its best basis product climbs once more, alone on its own target,
from that basis state as restart R + 1.  At most MAX_RESTARTS restarts are
accepted.

Two independent references are provided: a Bloch-angle grid over site 1
with the other sites exact (a lower bound), for up to three qubits, and the
exact bipartite closed form (largest squared Schmidt coefficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange, TooLarge, WrongShape
from .statevector import (
    MAX_TOTAL_DIM,
    DensityMatrix,
    ProductState,
    StateVector,
    _contract_all_but,
    _random_factors,
    _unit_stacks,
    product_amps,
    schmidt,
    seed_sequence,
    uniform_factor,
)

# A contraction below this norm carries no gradient information; the restart
# is reseeded rather than divided by noise.
CONTRACTION_EPS = 1e-14

# Restarts run together in chunks whose stacked per-row targets hold at most
# this many amplitudes: chunk * N * K for N amplitudes in K columns.  The half
# environments a sweep holds at once are smaller than that.  Larger inputs
# run one restart at a time.
CHUNK_AMPLITUDES = 2**16

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
class _Climbs:
    """Per-restart outcome of a batch of climbs, one row per restart.

    A degenerate restart has objective 0.0 and is never chosen as best."""

    objective: np.ndarray
    sweeps: np.ndarray
    converged: np.ndarray
    degenerate: np.ndarray
    factors: list[np.ndarray]  # (R, d_j) final factors per site, the last field

    def best(self) -> int:
        """The first row of largest objective among non-degenerate rows."""
        return int(np.argmax(np.where(self.degenerate, -math.inf, self.objective)))

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


def _starts(keys, dims) -> list[np.ndarray]:
    """(R, d_j) reseed stacks, one row per (seed, restart, attempt) key."""
    return _random_factors(dims, (seed_sequence(s, r, a) for s, r, a in keys))


def _climb_rows(target, factors, restarts, cfgs) -> _Climbs:
    """Alternating sweeps from R starting points at once.

    ``target`` is shared by every row or holds one block per row, as in
    ``_sweep_rows``.  ``factors`` holds the (R, d_j) starting stacks,
    ``restarts`` the restart index of each row and ``cfgs`` the config of
    each row's input.  A row leaves the batch, with its factors and its
    block of a per-row target, when its last-site objective gains less than
    its ``tol`` over the previous sweep, or when its sweep budget runs out.
    A row whose contraction vanishes is reseeded from the key (its config's
    seed, its restart, the next attempt) a bounded number of times, and
    counts as degenerate when that fails or leaves no sweep.
    """
    rows, dims = len(restarts), [f.shape[1] for f in factors]
    out = _Climbs(
        np.zeros(rows),
        np.zeros(rows, dtype=int),
        np.zeros(rows, dtype=bool),
        np.zeros(rows, dtype=bool),
        [np.empty_like(f) for f in factors],
    )
    live, restarts = np.arange(rows), np.asarray(restarts)
    tol = np.array([c.tol for c in cfgs])
    budget = np.array([c.max_sweeps for c in cfgs])
    per_row = target.ndim > len(dims) + 1
    current = [f.copy() for f in factors]
    prev = np.full(rows, -math.inf)
    attempt = np.zeros(rows, dtype=int)
    for sweep in range(1, int(budget.max()) + 1):
        objectives, bad = _sweep_rows(target, current)
        obj = objectives[:, -1]
        converged = ~bad & (obj - prev < tol)
        last = sweep == budget
        if not (last | bad | converged).any():
            prev = obj
            continue
        attempt += bad
        prev = np.where(bad, -math.inf, obj)
        failed = bad & ((attempt > 3) | last)
        done = converged | failed | (last & ~bad)
        rows_done = live[done]
        out.objective[rows_done] = np.where(failed, 0.0, obj)[done]
        out.sweeps[rows_done] = sweep
        out.converged[rows_done] = converged[done]
        out.degenerate[rows_done] = failed[done]
        for j, f in enumerate(current):
            out.factors[j][rows_done] = f[done]
        redo = np.flatnonzero(bad & ~failed)
        if redo.size:  # degenerate contractions restart from fresh seeds
            keys = [(cfgs[i].seed, restarts[i], a) for i, a in zip(live[redo], attempt[redo])]
            for f, g in zip(current, _starts(keys, dims)):
                f[redo] = g
        keep = ~done
        if not keep.any():
            break
        live, prev, attempt = live[keep], prev[keep], attempt[keep]
        tol, budget = tol[keep], budget[keep]
        current = [f[keep] for f in current]
        if per_row:
            target = target[keep]
    return out


def _climb_all(targets, cfgs) -> list[_Climbs]:
    """Climb restarts 1..R of every input, R its config's ``restarts``, with
    the inputs of one target shape (dims and K) stacked as rows of a batch,
    in chunks of at most CHUNK_AMPLITUDES // (K * N) rows and at least one.
    A chunk of one input's rows climbs on its shared target, so no restart
    copies it; a chunk spanning inputs, on the per-row stack of targets.

    Restart 1 starts from the uniform product, restart r > 1 from row r of
    the (R, 2 * sum(d_j)) standard normals that the input's one stream, the
    generator keyed (seed, 0, 0), yields in restart order; the stream is
    dropped after the last.  No reseed uses that key, since restarts count
    from 1, or draws from the stream, which would tie it to the chunks.  The
    chunks visit an input's restarts in order, so its starts do not depend
    on the chunk size or its batch.  Returns each input's climbs, in
    restart order.
    """
    found: list[list[_Climbs]] = [[] for _ in targets]
    groups: dict[tuple, list[int]] = {}
    for i, target in enumerate(targets):
        groups.setdefault(target.shape, []).append(i)
    streams = {}
    for shape, members in groups.items():
        dims = shape[1:]
        inputs = np.repeat(members, [cfgs[i].restarts for i in members])
        restarts = np.concatenate([np.arange(1, cfgs[i].restarts + 1) for i in members])
        chunk = max(1, CHUNK_AMPLITUDES // math.prod(shape))
        for at in range(0, len(inputs), chunk):
            ins, rs = inputs[at : at + chunk], restarts[at : at + chunk]
            normals = []
            for a, b in _runs(ins):
                i = ins[a]
                if rs[a] == 1:
                    rng = np.random.default_rng(seed_sequence(cfgs[i].seed, 0, 0))
                else:
                    rng = streams.pop(i)
                normals.append(rng.standard_normal((b - a, 2 * sum(dims))))
                if rs[b - 1] < cfgs[i].restarts:
                    streams[i] = rng
            starts = _unit_stacks(np.concatenate(normals), dims)
            for f, d in zip(starts, dims):
                f[rs == 1] = uniform_factor(d)
            target = targets[ins[0]] if ins[0] == ins[-1] else np.stack([targets[i] for i in ins])
            climbs = _climb_rows(target, starts, rs, [cfgs[i] for i in ins])
            for a, b in _runs(ins):
                found[ins[a]].append(climbs[a:b])
    return [_join(c) for c in found]


def _runs(inputs):
    """(start, stop) of each run of equal entries in the chunk's ``inputs``."""
    edges = [0, *(np.flatnonzero(np.diff(inputs)) + 1), len(inputs)]
    return zip(edges, edges[1:])


def _result(climbs: _Climbs, x) -> PmaxResult:
    """The best restart as the result for the state or density ``x``; the
    value is recomputed from the joint amplitudes of the argmax."""
    best = climbs.best()
    argmax = ProductState(x.shape, tuple(f[best] for f in climbs.factors))
    e = product_amps(argmax.factors)
    value = x.expectation(e) if isinstance(x, DensityMatrix) else abs(complex(np.vdot(e, x.amps))) ** 2
    return PmaxResult(
        value=value,
        argmax=argmax,
        restarts_used=len(climbs.objective),
        sweeps=int(climbs.sweeps[best]),
        converged=bool(climbs.converged[best]),
        best_per_restart=tuple(float(v) for v in climbs.objective),
    )


def pmax_overlap_many(inputs, cfgs) -> list[PmaxResult]:
    """``pmax_overlap`` of every state and ``pmax_mixed`` of every density
    in ``inputs``, in input order, with one config (or None) each in ``cfgs``.

    Inputs of equal dims and K climb as rows of one batch, and a row's
    arithmetic does not depend on its batch: each result equals the input's
    own one-input call bit for bit, at a fraction of the per-call overhead.
    An input whose restarts all undershoot its best basis product climbs
    once more, as one row on its own target, from that basis state's one-hot
    product; as restart R + 1 its reseed keys are (seed, R + 1, attempt).
    """
    inputs, cfgs = list(inputs), [cfg or OptimizerConfig() for cfg in cfgs]
    if len(inputs) != len(cfgs):
        raise DimensionMismatch(f"{len(inputs)} inputs but {len(cfgs)} configs")
    blocks = [x.factor if isinstance(x, DensityMatrix) else x.amps[None] for x in inputs]
    targets = [b.reshape((len(b),) + x.shape.dims) for b, x in zip(blocks, inputs)]
    climbs = _climb_all(targets, cfgs)
    for i, (block, x) in enumerate(zip(blocks, inputs)):
        diag = (np.abs(block) ** 2).sum(axis=0)
        top = int(np.argmax(diag))
        if climbs[i].objective[climbs[i].best()] < diag[top] - 1e-15:
            # Every restart undershot the best basis product (a degenerate one
            # reports 0.0): a climb from it cannot descend below it or vanish
            # on nonzero input, so value >= max_x diag_x unconditionally.
            digits = x.shape.digits_of(top)
            basis = [np.eye(d, dtype=np.complex128)[[k]] for d, k in zip(x.shape.dims, digits)]
            floor = _climb_rows(targets[i], basis, [cfgs[i].restarts + 1], [cfgs[i]])
            climbs[i] = _join([climbs[i], floor])
    return [_result(c, x) for c, x in zip(climbs, inputs)]


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
    phase applied).  ``value`` is recomputed as <e|rho|e> of rho as it was
    given (``DensityMatrix.expectation``), so for a one-row factor equal to
    a state the result is that of ``pmax_overlap`` on the state.
    """
    return pmax_overlap_many([rho], [cfg])[0]


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
    """Largest squared singular value of a batch of 2x2 matrices: the top
    eigenvalue of m m^+ = [[p, q], [q*, r]], (p + r)/2 + sqrt(((p - r)/2)^2
    + |q|^2), which keeps full precision for nearly equal singular values."""
    rows = (np.abs(m) ** 2).sum(axis=-1)
    p, r = rows[..., 0], rows[..., 1]
    q = (m[..., 0, :] * m[..., 1, :].conj()).sum(axis=-1)
    return (p + r) / 2.0 + np.sqrt(((p - r) / 2.0) ** 2 + np.abs(q) ** 2)


def pmax_grid_oracle(state: StateVector, resolution: int) -> float:
    """Grid maximum over site 1 with the other sites exact (<= 3 qubits).

    Site 1's factor runs over cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> on
    a grid of ``resolution`` points per angle; the best product over the
    remaining sites is exact: the remainder's squared norm, or its top
    squared singular value for two sites.  The value is attained by a
    product state, so it is a lower bound on P_max independent of the
    sweeps, and at least the full-grid maximum at the same resolution.
    Resolutions past 2^14 are refused: their (R^2, 2, 2) remainder would
    pass MAX_TOTAL_DIM entries.
    """
    shape = state.shape
    if any(d != 2 for d in shape.dims):
        raise WrongShape("grid oracle supports qubit sites only")
    if shape.n > 3:
        raise TooLarge("grid oracle supports at most 3 sites")
    if resolution < MIN_GRID_RESOLUTION or 4 * resolution**2 > MAX_TOTAL_DIM:
        raise OutOfRange(f"resolution must be in [{MIN_GRID_RESOLUTION}, 2^14]")
    rest = np.tensordot(_grid_candidates(resolution).conj(), state.tensor(), axes=([1], [0]))
    if shape.n == 3:
        return float(_top_sigma_sq_2x2(rest).max())
    return float((np.abs(rest.reshape(len(rest), -1)) ** 2).sum(axis=1).max())
