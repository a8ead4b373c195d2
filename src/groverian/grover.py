"""The search iterate for qudit registers and success-probability accounting.

One iterate is the composition of two reflections on the register: a phase
flip of the marked basis states, then the reflection I - 2|eta><eta| about
the uniform state.  The latter equals the layered form V (I - 2|0><0|) V+
for any local layer V with V_j|0> the uniform single-site state (the
discrete Fourier gate is the canonical choice, reducing to the Hadamard for
qubits); the rank-one form used here is that composition evaluated exactly,
global sign included.

With r marked positions the iterate moves the marked amplitudes k_j and the
sum L of the unmarked ones by one small linear map (Biham, Biham, Biron,
Grassl and Lidar, PRA 60, 2742 (1999)): with mean = (L - sum_j k_j)/N,
k_j -> -k_j - 2 mean and L -> L - 2(N-r) mean; each unmarked amplitude only
loses 2 mean.  ``run_grover`` and ``optimal_iterations`` run this map; with
one marked position s it does not depend on s, so ``pmax_simulated``
averages over every target in O(N + m).  ``oracle_phase`` and ``diffusion``
are the dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .product_opt import PmaxResult
from .statevector import (
    LocalUnitaryLayer,
    StateVector,
    SystemShape,
    _check_same_shape,
    _readonly,
    apply_local,
    fourier_gate,
)


@dataclass(frozen=True)
class OracleSpec:
    """Marked basis indices; the oracle flips their amplitude sign."""

    shape: SystemShape
    marked: tuple[int, ...]

    def __init__(self, shape: SystemShape, marked):
        marked = tuple(sorted(int(x) for x in marked))
        if not marked:
            raise DimensionMismatch("oracle needs at least one marked index")
        if len(set(marked)) != len(marked):
            raise DimensionMismatch("duplicate marked indices")
        if marked[0] < 0 or marked[-1] >= shape.total:
            raise DimensionMismatch(
                f"marked indices must lie in 0..{shape.total - 1}"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "marked", marked)

    @property
    def count(self) -> int:
        return len(self.marked)


@dataclass(frozen=True, eq=False)
class GroverRun:
    """Iteration count, success probability after each step, final state.

    The final state is built from the two-mode result when first read."""

    iterations: int
    prob_curve: tuple[float, ...]  # P(k) for k = 0..iterations
    _initial: StateVector = field(repr=False)
    _oracle: OracleSpec = field(repr=False)
    _final_marked: np.ndarray = field(repr=False)
    _shift: complex = field(repr=False)

    @cached_property
    def final_state(self) -> StateVector:
        amps = self._initial.amps - self._shift
        amps[list(self._oracle.marked)] = self._final_marked
        return StateVector(self._initial.shape, _readonly(amps))


def _flip_marked(amps: np.ndarray, marked) -> None:
    amps[marked] *= -1.0


def _reflect_uniform(amps: np.ndarray) -> None:
    mean = np.sum(amps) / amps.size  # <eta|psi> / sqrt(N)
    amps -= 2.0 * mean


def oracle_phase(oracle: OracleSpec, state: StateVector) -> StateVector:
    """Negate the amplitude of every marked basis state."""
    _check_same_shape(oracle, state)
    amps = state.amps.copy()
    _flip_marked(amps, list(oracle.marked))
    return StateVector(state.shape, _readonly(amps))


def diffusion(state: StateVector) -> StateVector:
    """Reflection about the uniform state: psi -> psi - 2<eta|psi> eta.

    Exactly the layered composition V (I - 2|0><0|) V+ with Fourier gates,
    including its global sign (eta maps to -eta).
    """
    amps = state.amps.copy()
    _reflect_uniform(amps)
    return StateVector(state.shape, _readonly(amps))


def diffusion_layer(shape: SystemShape) -> LocalUnitaryLayer:
    """The Fourier layer whose conjugation of I - 2|0><0| is the diffusion."""
    return LocalUnitaryLayer(shape, tuple(fourier_gate(d) for d in shape.dims))


def grover_iterate(oracle: OracleSpec, state: StateVector) -> StateVector:
    """One search step: oracle phase flip, then diffusion."""
    return run_grover(state, oracle, 1).final_state


def iteration_bound(total: int, r: int) -> int:
    """Upper bound ceil(pi/4 * sqrt(N/r)) on the optimal iteration count."""
    return math.ceil(math.pi / 4.0 * math.sqrt(total / r))


def _two_mode(marked_amps, rest_sum, total: int, iterations: int):
    """P(k) for k = 0..iterations, the final marked amplitudes, and the shift
    2 sum_t mean_t every unmarked amplitude has lost; O(r) per step."""
    k, rest = np.array(marked_amps), rest_sum
    unmarked = total - k.size
    curve = np.empty(iterations + 1)
    curve[0] = np.vdot(k, k).real
    mean_sum = 0.0
    for t in range(1, iterations + 1):
        mean = (rest - k.sum()) / total  # the oracle negates k, then reflect
        k, rest = -k - 2.0 * mean, rest - 2.0 * unmarked * mean
        mean_sum += mean
        curve[t] = np.vdot(k, k).real
    return curve, k, 2.0 * mean_sum


def optimal_iterations(shape: SystemShape, oracle: OracleSpec) -> int:
    """Iteration count maximizing success probability from the uniform state.

    Runs the two-mode map from marked amplitudes 1/sqrt(N) and unmarked sum
    (N - r)/sqrt(N) up to the ceil(pi/4 sqrt(N/r)) bound: O(sqrt(rN)), with
    nothing N-sized.  Returns the smallest k whose P(k) is within 1e-12 of
    the maximum, so exact ties (P(k) = 1/2 for all k when r = N/2) give 0.
    """
    total, r = shape.total, oracle.count
    amp = 1.0 / math.sqrt(total)
    bound = iteration_bound(total, r)
    curve = _two_mode(np.full(r, amp), (total - r) * amp, total, bound)[0]
    return int(np.argmax(curve >= curve.max() - 1e-12))


def run_grover(initial: StateVector, oracle: OracleSpec, iterations: int) -> GroverRun:
    """Apply the iterate ``iterations`` times, recording P(k) at every step.

    One pass over the amplitudes gives the unmarked sum; the steps then run
    the two-mode map, O(N + r m) for r marked indices and m iterations.  The
    N-sized final state is built only when ``final_state`` is first read.
    """
    _check_same_shape(oracle, initial)
    if iterations < 0:
        raise DimensionMismatch("iteration count must be >= 0")
    marked = initial.amps[list(oracle.marked)]
    rest = np.sum(initial.amps) - np.sum(marked)
    curve, final, shift = _two_mode(marked, rest, initial.shape.total, iterations)
    return GroverRun(iterations, tuple(curve.tolist()), initial, oracle, final, shift)


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
    for factor, d in zip(product.factors, shape.dims):
        gates.append(fourier_gate(d) @ _basis_completion(factor).conj().T)
    return LocalUnitaryLayer(shape, tuple(gates))


def pmax_simulated(initial: StateVector, best: PmaxResult) -> float:
    """Best achievable search success probability, averaged over the target.

    The preprocessing layer rotates each factor of the maximizing product
    state ``best.argmax`` onto the uniform site state.  For every single
    marked position s the prepared amplitudes p start the two-mode map at
    (p_s, sum(p) - p_s), so the final marked amplitude is
    a p_s + b (sum(p) - p_s) with one (a, b) for all s; the mean of its
    squared modulus over s is the target average, in O(N + m).
    """
    shape, total = initial.shape, initial.shape.total
    prepared = apply_local(alignment_layer(best.argmax, shape), initial).amps
    iterations = optimal_iterations(shape, OracleSpec(shape, (0,)))
    # (a, b): the final marked amplitude from (k, L) = (1, 0) and (0, 1)
    a = _two_mode([1.0], 0.0, total, iterations)[1][0]
    b = _two_mode([0.0], 1.0, total, iterations)[1][0]
    final = a * prepared + b * (np.sum(prepared) - prepared)
    return float(np.mean(np.abs(final) ** 2))
