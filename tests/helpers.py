"""Shared fixtures-in-spirit: canonical qubit operators and model builders."""

from __future__ import annotations

import functools
import sys

import numpy as np

from histq.core import SystemModel, TimeGrid, heisenberg
from histq.decoherence import DecoherenceState, chain_gram
from histq.histories import chains

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


def chain_of(ds, h):
    """The chain of one history by the program's kernels: its projectors moved by
    one ``heisenberg`` call, then ``chains``; the identity for the unit history."""
    dim = ds.model.dim
    stack = np.reshape([p for _, p in h.items], (1, len(h.items), dim, dim))
    return chains(heisenberg(ds.model, stack, h.times, ds.grid.t0))[0]


def chain_form(ds, h, k):
    """d(h, k) of two histories, on any times of the grid: one ``chain_gram`` of their chains."""
    return complex(chain_gram(ds, np.array([chain_of(ds, h), chain_of(ds, k)]))[0, 1])


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
