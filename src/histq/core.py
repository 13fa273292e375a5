"""Dense complex linear algebra and single-time quantum models.

Conventions used throughout the package: hbar = 1, all operators are dense
``numpy`` arrays with ``complex`` dtype, and in every tensor product the
leftmost factor belongs to the earliest time.  Every residual threshold is a
field of the one fixed record ``TOLERANCES``; nothing at run time changes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "TOLERANCES",
    "as_operator",
    "max_abs",
    "is_hermitian",
    "is_projector",
    "projector_onto",
    "named_basis",
    "tensor_product",
    "SystemModel",
    "TimeGrid",
    "evolve",
    "heisenberg",
]


@dataclass(frozen=True)
class Tolerances:
    """Central numeric policy; every residual threshold lives here.

    ``hermitian`` and ``equality`` are relative to the largest matrix entry,
    the rest are absolute.  The values are fixed: the program reads them
    from the one record ``TOLERANCES``.
    """

    equality: float = 1e-10
    hermitian: float = 1e-12
    projector: float = 1e-10
    trace_one: float = 1e-12
    orthonormal: float = 1e-12
    reconstruction: float = 1e-10
    agreement: float = 1e-9
    consistency: float = 1e-9
    strict_positive: float = 1e-12


TOLERANCES = Tolerances()


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_abs(a) -> np.ndarray:
    """The largest |entry| of a matrix, or of each matrix of a stack; 0 when empty."""
    return np.abs(np.asarray(a)).max(axis=(-2, -1), initial=0.0)


def _as_stack(a) -> np.ndarray:
    """Coerce to a complex square matrix or stack of them (..., d, d)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_hermitian(a) -> np.ndarray:
    """Hermitian within ``TOLERANCES.hermitian`` times the largest entry (at
    least 1): one verdict per matrix of a stack (..., d, d)."""
    a = _as_stack(a)
    scale = np.maximum(max_abs(a), 1.0)
    return max_abs(a - a.conj().swapaxes(-1, -2)) <= TOLERANCES.hermitian * scale


def is_projector(p) -> np.ndarray:
    """Hermitian and idempotent within ``TOLERANCES.projector``, per matrix of a stack."""
    p = np.asarray(p, dtype=complex)
    return is_hermitian(p) & (max_abs(p @ p - p) <= TOLERANCES.projector)


def projector_onto(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given orthonormal columns."""
    v = np.asarray(vectors, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    return v @ v.conj().T


def named_basis(name: str, dim: int) -> np.ndarray:
    """Unitary whose columns form a named basis of C^dim.

    ``computational`` is the standard basis; ``hadamard`` is the discrete
    Fourier basis, which for dim 2 is the usual {|+>, |->} pair.
    """
    if name == "computational":
        return np.eye(dim, dtype=complex)
    if name == "hadamard":
        j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        return np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)
    raise ValueError(f"unknown basis name: {name!r}")


def tensor_product(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the operators in listed (time) order, or of stacks (..., d, d)
    whose leading axes broadcast: one broadcast outer product per factor, so each
    entry is ``np.kron``'s product."""
    if len(ops) == 0:
        raise ValueError("empty tensor factor list")
    out, *rest = map(_as_stack, ops)
    for b in rest:
        out = out[..., :, None, :, None] * b[..., None, :, None, :]
        out = out.reshape(*out.shape[:-4], *[out.shape[-4] * out.shape[-3]] * 2)
    return out


@dataclass(frozen=True)
class SystemModel:
    """Single-time Hilbert space: dimension, Hamiltonian and initial state.

    ``weights``/``vectors`` hold a spectral resolution of ``rho``: the columns
    of ``vectors`` are an orthonormal basis extending rho's eigenvectors, and
    ``rho = sum_i weights[i] |v_i><v_i|``.  ``energies``/``energy_basis``
    hold the Hermitian eigendecomposition of the Hamiltonian, computed once
    at construction.
    """

    dim: int
    hamiltonian: np.ndarray
    rho: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray
    energies: np.ndarray = field(init=False, repr=False, compare=False)
    energy_basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        h = as_operator(self.hamiltonian)
        if h.shape[0] != self.dim:
            raise ValueError("hamiltonian dimension mismatch")
        if not is_hermitian(h):
            raise ValueError("hamiltonian must be Hermitian")
        energies, basis = np.linalg.eigh(self.hamiltonian)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "energy_basis", basis)
        r = as_operator(self.rho)
        if r.shape[0] != self.dim:
            raise ValueError("rho dimension mismatch")
        if not is_hermitian(r):
            raise ValueError("rho must be Hermitian")
        trace = np.trace(r)
        if (abs(trace.real - 1.0) > TOLERANCES.trace_one
                or abs(trace.imag) > TOLERANCES.trace_one):
            raise ValueError(f"rho must have unit trace, got {trace.real!r}")
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        if w.shape != (self.dim,) or v.shape != (self.dim, self.dim):
            raise ValueError("spectral resolution must cover the full basis")
        if np.any(w < -TOLERANCES.orthonormal):
            raise ValueError("spectral weights must be nonnegative")
        if abs(w.sum() - 1.0) > TOLERANCES.trace_one:
            raise ValueError(f"spectral weights must sum to 1, got {w.sum()!r}")
        if max_abs(v.conj().T @ v - np.eye(self.dim)) > 10 * TOLERANCES.orthonormal:
            raise ValueError("spectral vectors must be orthonormal")
        if max_abs((v * w) @ v.conj().T - r) > TOLERANCES.reconstruction:
            raise ValueError("spectral resolution does not reconstruct rho")

    @classmethod
    def from_matrices(cls, hamiltonian, rho) -> "SystemModel":
        """Build a model from H and rho, diagonalizing rho for the resolution."""
        r = as_operator(rho)
        w, v = np.linalg.eigh(0.5 * (r + r.conj().T))
        w = np.clip(w, 0.0, None)
        return cls(dim=r.shape[0], hamiltonian=as_operator(hamiltonian),
                   rho=r, weights=w, vectors=v)

    @classmethod
    def from_spectral(cls, hamiltonian, weights, vectors) -> "SystemModel":
        """Build a model from an explicit spectral resolution of rho."""
        w = np.asarray(weights, dtype=float)
        v = np.asarray(vectors, dtype=complex)
        rho = (v * w) @ v.conj().T
        return cls(dim=v.shape[0], hamiltonian=as_operator(hamiltonian),
                   rho=rho, weights=w, vectors=v)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite time points with an evolution origin t0."""

    times: tuple[float, ...]
    t0: float = 0.0

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", ts)
        if not all(np.isfinite(ts)) or not np.isfinite(self.t0):
            raise ValueError("times must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be strictly increasing")

    def require(self, t: float) -> float:
        """``t`` when it is one of the grid times by exact float equality, else
        ``ValueError`` naming the grid; no tolerance is applied."""
        if t not in self.times:
            raise ValueError(f"time {t!r} is not on the grid {self.times!r}")
        return t


def evolve(model: SystemModel, t, t0: float = 0.0) -> np.ndarray:
    """Unitary U(t, t0) = exp(-i H (t - t0)) from the model's eigendecomposition of H:
    (dim, dim) for one time ``t``, (len(t), dim, dim) for a 1-D sequence of times."""
    phases = np.exp(-1j * model.energies * np.subtract(t, t0)[..., None])
    return (model.energy_basis * phases[..., None, :]) @ model.energy_basis.conj().T


def heisenberg(model: SystemModel, a: np.ndarray, t, t0: float = 0.0) -> np.ndarray:
    """Heisenberg-picture transport U(t,t0)^dag A U(t,t0) of any operator A.

    ``a`` is one operator or a stack (..., dim, dim), ``t`` one time or times that broadcast
    against its leading axes (one per time slot of a history stack (count, n, dim, dim)):
    one :func:`evolve` call on its distinct times, if any.  Checks nothing.
    """
    times = np.ravel(t).tolist()
    slot = {s: j for j, s in enumerate(dict.fromkeys(times))}
    u = evolve(model, list(slot), t0) if slot else np.zeros((0, model.dim, model.dim))
    u = u[np.fromiter(map(slot.get, times), int).reshape(np.shape(t))]
    return u.conj().swapaxes(-1, -2) @ np.asarray(a, dtype=complex) @ u
