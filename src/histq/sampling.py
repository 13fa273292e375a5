"""Seeded random models and operators for property verification.

Haar-random unitaries use the QR-plus-phase method of Mezzadri (Notices AMS
54, 2007): the Q factor of a complex Gaussian matrix, each column multiplied
by the phase of the matching diagonal entry of R.  One kernel resolves a
whole stack of Gaussian matrices with one stacked QR; the single draws call
it on a stack of one.
"""

from __future__ import annotations

import numpy as np

from .core import SystemModel

__all__ = [
    "random_hermitian",
    "random_density",
    "random_unitary",
    "draw_projectors",
    "resolve_projectors",
    "random_projectors",
    "random_pvm",
    "random_model",
    "random_operator",
    "random_operators",
]


def random_operators(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` complex Gaussian matrices (real, then imaginary part) by one draw."""
    z = rng.standard_normal((count, 2, dim, dim))
    return z[:, 0] + 1j * z[:, 1]


def random_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    return random_operators(rng, dim, 1)[0]


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = random_operator(rng, dim)
    return 0.5 * (a + a.conj().T)


def _haar(z: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a stack of complex Gaussian matrices, by one QR."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _haar(random_operator(rng, dim)[None])[0]


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix: a Wishart draw shifted away from singular."""
    a = random_operator(rng, dim)
    rho = a @ a.conj().T + 0.1 * np.eye(dim)
    return rho / np.trace(rho).real


def draw_projectors(rng: np.random.Generator, dim: int,
                    count: int) -> tuple[list[int], np.ndarray]:
    """The ranks and Gaussian matrices of ``count`` projectors, drawn in the
    order of one draw per projector: its rank (``rng.integers``), then its two
    Gaussian matrices by one call.  Drawing the ranks as one batch would move the Gaussian
    stream, since bounded integers consume buffered half-words of the bit
    generator."""
    ranks = []
    z = np.empty((count, 2, dim, dim))
    for i in range(count):
        ranks.append(int(rng.integers(1, dim + 1)))
        z[i] = rng.standard_normal((2, dim, dim))
    return ranks, z[:, 0] + 1j * z[:, 1]


def resolve_projectors(ranks: list[int], z: np.ndarray) -> list[np.ndarray]:
    """The projectors onto the first rank columns of the Haar unitaries of
    ``z``, by one stacked QR, whichever draws ``z`` joins, and one batched
    product v v^dag per distinct rank."""
    us, out = _haar(z), np.empty(z.shape, dtype=complex)
    for rank in set(ranks):  # not np.unique, which imports numpy.ma
        at = [i for i, r in enumerate(ranks) if r == rank]
        v = us[at, :, :rank]
        out[at] = v @ v.conj().swapaxes(-1, -2)
    return list(out)


def random_projectors(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """``count`` projectors of random rank: one draw, resolved by one stacked QR."""
    return resolve_projectors(*draw_projectors(rng, dim, count))


def random_pvm(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    """Rank-1 projector decomposition from a Haar-random basis."""
    v = random_unitary(rng, dim).T[:, :, None]  # the columns, as a stack of dim x 1
    return list(v @ v.conj().swapaxes(-1, -2))


def random_model(rng: np.random.Generator, dim: int) -> SystemModel:
    return SystemModel.from_matrices(random_hermitian(rng, dim), random_density(rng, dim))
