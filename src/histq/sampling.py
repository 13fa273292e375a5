"""Seeded random models and operators for property verification."""

from __future__ import annotations

import numpy as np

from .core import SystemModel, projector_onto

__all__ = [
    "random_hermitian",
    "random_density",
    "random_unitary",
    "random_projector",
    "random_pvm",
    "random_model",
    "random_operator",
]


def random_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = random_operator(rng, dim)
    return 0.5 * (a + a.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(random_operator(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix: a Wishart draw shifted away from singular."""
    a = random_operator(rng, dim)
    rho = a @ a.conj().T + 0.1 * np.eye(dim)
    return rho / np.trace(rho).real


def random_projector(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    u = random_unitary(rng, dim)
    return projector_onto(u[:, :rank])


def random_pvm(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    """Rank-1 projector decomposition from a Haar-random basis."""
    u = random_unitary(rng, dim)
    return [projector_onto(u[:, [i]]) for i in range(dim)]


def random_model(rng: np.random.Generator, dim: int) -> SystemModel:
    return SystemModel.from_matrices(random_hermitian(rng, dim), random_density(rng, dim))
