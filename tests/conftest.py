import sys

import numpy as np
import pytest

from groverian import SystemShape, random_state


@pytest.fixture
def two_qubits():
    return SystemShape([2, 2])


@pytest.fixture
def three_qubits():
    return SystemShape([2, 2, 2])


def seeded_states(dims, count, base_seed):
    """Deterministic batch of Haar-random states for loop-style checks."""
    shape = SystemShape(dims)
    return [
        random_state(shape, np.random.SeedSequence((base_seed, i)))
        for i in range(count)
    ]


@pytest.fixture
def optimizer_calls(monkeypatch):
    """Total dimensions of the states passed to ``pmax_overlap``, counted
    through every groverian module that binds the name."""
    from groverian import product_opt

    real = product_opt.pmax_overlap
    calls = []

    def counted(state, cfg=None):
        calls.append(state.shape.total)
        return real(state, cfg)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "groverian" and hasattr(module, "pmax_overlap"):
            monkeypatch.setattr(module, "pmax_overlap", counted)
    return calls
