import sys
import tracemalloc
from dataclasses import dataclass
from functools import reduce

import numpy as np
import pytest

from groverian import SystemShape


@pytest.fixture
def two_qubits():
    return SystemShape([2, 2])


@pytest.fixture
def three_qubits():
    return SystemShape([2, 2, 2])


def dense_environment(state, factors, j):
    """Site j's environment (0-based), written out densely and independent of
    the optimizer's contraction: v[k] = <e_1..e_{j-1}, k, e_{j+1}..e_n|state>.

    Site j moves to the front, the other axes are flattened, and the result
    is multiplied by the kron of the other conjugated factors.
    """
    rows = np.moveaxis(state.tensor(), j, 0).reshape(state.shape.dims[j], -1)
    others = [np.conj(f) for i, f in enumerate(factors) if i != j]
    return rows @ reduce(np.kron, others, np.ones(1, dtype=complex))


def same_bits(a, b):
    """Equal bit for bit: -0.0 differs from 0.0, and a NaN equals itself."""
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def traced_peak(fn):
    """``fn()``'s result and the peak bytes ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def optimizer_calls(monkeypatch):
    """Total dimensions of the inputs optimized, one entry per input,
    counted at ``pmax_overlap_many`` (which ``pmax_overlap`` calls) through
    every groverian module that binds the name."""
    from groverian import product_opt

    real = product_opt.pmax_overlap_many
    calls = []

    def counted(inputs, cfgs):
        inputs = list(inputs)
        calls.extend(x.shape.total for x in inputs)
        return real(inputs, cfgs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "groverian" and hasattr(module, "pmax_overlap_many"):
            monkeypatch.setattr(module, "pmax_overlap_many", counted)
    return calls


@dataclass
class ClimbCall:
    """One ``product_opt._climb_rows`` call: its target, a copy of its
    starting stacks and its config."""

    target: np.ndarray
    starts: list
    cfg: object

    @property
    def rows(self):
        return len(self.starts[0])

    @property
    def per_row(self):
        """Whether the target is a stack with one block per row."""
        return self.target.ndim > len(self.starts) + 1


class ClimbCalls(list):
    """The ``ClimbCall`` of every climb so far.  ``climbing`` is true while a
    call runs, and ``edit(call, climbs)``, when set, may change each call's
    returned climbs in place."""

    climbing = False
    edit = None


@pytest.fixture
def climb_calls(monkeypatch):
    """Records every ``product_opt._climb_rows`` call in a ``ClimbCalls``."""
    from groverian import product_opt

    real, calls = product_opt._climb_rows, ClimbCalls()

    def recorded(target, factors, cfg):
        call = ClimbCall(target, [f.copy() for f in factors], cfg)
        calls.append(call)
        calls.climbing = True
        try:
            climbs = real(target, factors, cfg)
        finally:
            calls.climbing = False
        if calls.edit is not None:
            calls.edit(call, climbs)
        return climbs

    monkeypatch.setattr(product_opt, "_climb_rows", recorded)
    return calls
