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
one marked position s it does not depend on s, so the success averaged over
every target after the best local preprocessing is an exact affine function
of P_max (``pmax_simulated``), found from the uniform start's curve alone in
O(sqrt(N)).  ``oracle_phase`` and ``diffusion`` are the dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .statevector import (
    LocalUnitaryLayer,
    StateVector,
    SystemShape,
    _check_same_shape,
    _readonly,
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


def _uniform_curve(total: int, r: int):
    """P(k) from the uniform state up to the iteration bound, and the
    optimal count m; O(sqrt(rN)) with nothing N-sized."""
    amp = 1.0 / math.sqrt(total)
    bound = iteration_bound(total, r)
    curve = _two_mode(np.full(r, amp), (total - r) * amp, total, bound)[0]
    return curve, int(np.argmax(curve >= curve.max() - 1e-12))


def optimal_iterations(shape: SystemShape, oracle: OracleSpec) -> int:
    """Iteration count maximizing success probability from the uniform state.

    Runs the two-mode map from marked amplitudes 1/sqrt(N) and unmarked sum
    (N - r)/sqrt(N) up to the ceil(pi/4 sqrt(N/r)) bound: O(sqrt(rN)), with
    nothing N-sized.  Returns the smallest k whose P(k) is within 1e-12 of
    the maximum, so exact ties (P(k) = 1/2 for all k when r = N/2) give 0.
    """
    return _uniform_curve(shape.total, oracle.count)[1]


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


def pmax_simulated(shape: SystemShape, pmax: float) -> float:
    """Best achievable search success probability, averaged over the target.

    A local layer rotating the maximizing product state onto the uniform
    state prepares amplitudes p with |sum(p)|^2 = N pmax.  For one marked
    position s the two-mode map sends (p_s, sum(p) - p_s) to a final marked
    amplitude a p_s + b (sum(p) - p_s), with one (a, b) for all s, so the
    mean of its squared modulus over s is affine in pmax.  Unitarity
    (|a|^2 + (N-1)|b|^2 = 1) fixes the value 1/N at pmax = 1/N, and a product
    input is the uniform start, whose success P_N fixes the value at 1:
    f(pmax) = 1/N + (pmax - 1/N)(P_N - 1/N)/(1 - 1/N), in O(sqrt(N)).
    """
    curve, m = _uniform_curve(shape.total, 1)
    floor = 1.0 / shape.total
    return float(floor + (pmax - floor) * (curve[m] - floor) / (1.0 - floor))
