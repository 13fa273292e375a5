"""Shared fixtures-in-spirit: canonical qubit operators and model builders."""

from __future__ import annotations

import functools
import sys

import numpy as np

from histq.core import SystemModel, TimeGrid
from histq.decoherence import DecoherenceState

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
MINUS = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
H_ZERO = np.zeros((2, 2), dtype=complex)


def qubit_state(rho, hamiltonian=None, times=(0.0, 1.0), t0=0.0) -> DecoherenceState:
    model = SystemModel.from_matrices(
        H_ZERO if hamiltonian is None else hamiltonian, rho)
    return DecoherenceState(model=model, grid=TimeGrid(times=times, t0=t0))


def state_for(model: SystemModel, times=(0.0, 1.0), t0=0.0) -> DecoherenceState:
    return DecoherenceState(model=model, grid=TimeGrid(times=times, t0=t0))


def count_calls(monkeypatch, name: str) -> list:
    """Wrap ``name`` in every loaded ``histq`` module that binds it; the
    returned list gains the positional arguments of each call."""
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("histq") and hasattr(module, name):
            original = getattr(module, name)

            @functools.wraps(original)
            def counting(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return calls
