"""The search iterate for qudit registers and success-probability accounting.

One iterate is the composition of two reflections on the register: a phase
flip of the marked basis states, then the reflection I - 2|eta><eta| about
the uniform state.  The latter equals the layered form V (I - 2|0><0|) V+
for any local layer V with V_j|0> the uniform single-site state (the
discrete Fourier gate is the canonical choice, reducing to the Hadamard for
qubits); the map below is that composition evaluated exactly, global sign
included.

With r marked positions the iterate is a two-mode map (Biham, Biham, Biron,
Grassl and Lidar, PRA 60, 2742 (1999)) on the sums K and L of the marked and
unmarked amplitudes: mean = (L - K)/N, K -> -K - 2r mean, L -> L - 2(N-r) mean,
as each marked k_j -> -k_j - 2 mean and each unmarked amplitude loses 2 mean.
So k_j - K/r only flips sign, and P = |K|^2/r + D with D = sum_j |k_j - K/r|^2
fixed at the start.  With one marked position s the map does not depend on s,
so the target-averaged success after the best local preprocessing is an exact
affine function of P_max (``pmax_simulated``), found from the uniform start's
curve in O(sqrt(N)); ``verify`` holds the dense reflections it is checked against.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .statevector import (
    MAX_TOTAL_DIM,
    StateVector,
    SystemShape,
    _check_same_shape,
    _readonly,
)


def _index(value, what: str) -> int:
    """A Python or numpy integer as an int; ``int`` would truncate floats and parse strings."""
    try:
        return operator.index(value)
    except TypeError:
        raise DimensionMismatch(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class OracleSpec:
    """Marked basis indices; the oracle flips their amplitude sign."""

    shape: SystemShape
    marked: tuple[int, ...]

    def __init__(self, shape: SystemShape, marked):
        marked = tuple(sorted(_index(x, "marked index") for x in marked))
        if not marked:
            raise DimensionMismatch("oracle needs at least one marked index")
        if len(set(marked)) != len(marked):
            raise DimensionMismatch("duplicate marked indices")
        if marked[0] < 0 or marked[-1] >= shape.total:
            raise DimensionMismatch(f"marked indices must lie in 0..{shape.total - 1}")
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


def grover_iterate(oracle: OracleSpec, state: StateVector) -> StateVector:
    """One search step, kept for the benchmark's tracer; ROADMAP items 6 and 7 remove it."""
    return run_grover(state, oracle, 1).final_state


def iteration_bound(total: int, r: int) -> int:
    """Upper bound ceil(pi/4 * sqrt(N/r)) on the optimal iteration count."""
    return math.ceil(math.pi / 4.0 * math.sqrt(total / r))


def _two_mode(k_sum: complex, rest: complex, spread: float, r: int, total: int, iterations: int):
    """P(k) for k = 0..iterations, the final K, and the shift 2 sum_t mean_t
    every unmarked amplitude has lost; O(1) per step on Python scalars."""
    unmarked = total - r
    curve = array("d", [0.0]) * (iterations + 1)
    curve[0] = (k_sum.real * k_sum.real + k_sum.imag * k_sum.imag) / r + spread
    mean_sum = 0.0
    for t in range(1, iterations + 1):
        mean = (rest - k_sum) / total  # the oracle negates K, then reflect
        k_sum, rest = -k_sum - 2.0 * r * mean, rest - 2.0 * unmarked * mean
        mean_sum += mean
        curve[t] = (k_sum.real * k_sum.real + k_sum.imag * k_sum.imag) / r + spread
    return curve, k_sum, 2.0 * mean_sum


def _uniform_curve(total: int, r: int):
    """P(k) from the uniform state up to the iteration bound, and the
    optimal count m; O(sqrt(N/r)) with nothing N- or r-sized."""
    amp = 1.0 / math.sqrt(total)
    curve = _two_mode(r * amp, (total - r) * amp, 0.0, r, total, iteration_bound(total, r))[0]
    p = np.frombuffer(curve)
    return curve, int(np.argmax(p >= p.max() - 1e-12))


def optimal_iterations(shape: SystemShape, oracle: OracleSpec) -> int:
    """Iteration count maximizing success probability from the uniform state.

    Runs the two-mode map from K = r/sqrt(N), L = (N - r)/sqrt(N), D = 0 up
    to the ceil(pi/4 sqrt(N/r)) bound: O(sqrt(N/r)), with nothing N- or
    r-sized.  Returns the smallest k whose P(k) is within 1e-12 of the
    maximum, so exact ties (P(k) = 1/2 for all k when r = N/2) give 0.
    """
    return _uniform_curve(shape.total, oracle.count)[1]


def run_grover(initial: StateVector, oracle: OracleSpec, iterations: int) -> GroverRun:
    """Apply the iterate ``iterations`` times, recording P(k) at every step.

    One pass over the amplitudes gives K, L and D; the steps then run the
    two-mode map on scalars, O(N + r + m) for r marked indices and m
    iterations.  The N-sized final state is built only when ``final_state``
    is first read.
    """
    _check_same_shape(oracle, initial)
    iterations = _index(iterations, "iteration count")
    if not 0 <= iterations < MAX_TOTAL_DIM:  # the curve holds m + 1 entries
        raise DimensionMismatch(f"iteration count {iterations} outside 0..2^30 - 1 (cap of 2^30)")
    r = oracle.count
    marked = initial.amps[list(oracle.marked)]
    k_sum = np.sum(marked)
    deviation = marked - k_sum / r
    curve, k_final, shift = _two_mode(
        complex(k_sum), complex(np.sum(initial.amps) - k_sum),
        float(np.vdot(deviation, deviation).real), r, initial.shape.total, iterations,
    )
    final_marked = (deviation if iterations % 2 == 0 else -deviation) + k_final / r
    return GroverRun(iterations, tuple(curve), initial, oracle, final_marked, shift)


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
