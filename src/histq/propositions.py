"""The inner product and the state of one support sector.

The propositions of a sector (``histories.Proposition``) carry the normalized
Hilbert-Schmidt inner product <x, y> = tr(x^dag y) / tr(1).  The unit
proposition e is the identity, and <b, b> grows with how coarse grained b is
(rank / tr(1) for projectors).

A state on the sector is a Wright operator: a self-adjoint operator T with
<e, T e> = 1 whose quadratic form <x, T x> yields the probabilities, read
for a whole stack of operators by one call (:func:`probabilities`).  For
the standard functional it is T = tr(1) * pi^adj (rho . pi(b)), represented
here as a matrix acting on column-major vectorized operators.  One T exists
per sector and records the decoherence state it was built from; no global
cross-sector operator is represented.  Only this module reads T's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TOLERANCES, tensor_product
from .decoherence import DecoherenceState, require_sector
from .histories import Proposition, PropositionSpace, chain_map

__all__ = [
    "hs_inner",
    "WrightOperator",
    "wright_operator",
    "probabilities",
    "chain_matrix",
]


def hs_inner(x: Proposition, y: Proposition) -> complex:
    """Normalized Hilbert-Schmidt inner product tr(x^dag y) / tr(1)."""
    space = x.space.require(y)
    return complex(np.trace(x.op.conj().T @ y.op) / space.op_dim)


def chain_matrix(dim: int, n_times: int) -> np.ndarray:
    """Matrix of the chain map on column-major vectorized operators.

    Column m is the image of the matrix unit E[m % k, m // k], the m-th
    column-major basis operator; all k^2 units go through one chain map call.
    """
    k = dim ** n_times
    units = np.eye(k * k, dtype=complex).reshape(k * k, k, k).transpose(0, 2, 1)
    chains = chain_map(units, dim, n_times)
    return chains.transpose(0, 2, 1).reshape(k * k, dim * dim).T


@dataclass(frozen=True, eq=False)
class WrightOperator:
    """Sector state: matrix on vectorized operators, self-adjoint, <e,Te> = 1."""

    space: PropositionSpace
    matrix: np.ndarray
    state: DecoherenceState  # the functional T reproduces on this sector

    def gram(self, base: np.ndarray) -> np.ndarray:
        """``G[a, b] = <base_a, T base_b>``.

        ``base`` stacks the N operators along axis 0.  Row a of ``vecs`` is
        the column-major vectorisation of ``base[a]``, on which T acts.
        """
        n, k, _ = base.shape
        vecs = base.transpose(0, 2, 1).reshape(n, k * k)
        return vecs.conj() @ self.matrix @ vecs.T / k

    def self_adjoint_residual(self) -> float:
        """Largest entry of |T - T^dag|, over op_dim like the quadratic form."""
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T))) / self.space.op_dim


def wright_operator(ds: DecoherenceState, support: Sequence[float]) -> WrightOperator:
    """Construct the sector state reproducing the decoherence functional.

    T = tr(1) * P^dag (I (x) rho) P with P the chain-map matrix, so that
    <b1, T b2> = tr(pi(b1)^dag rho pi(b2)) for all same-sector b1, b2.
    """
    space = require_sector(ds, support, "Wright construction")
    pmat = chain_matrix(space.dim_single, space.n_times)
    left_mult_rho = tensor_product([np.eye(space.dim_single), ds.model.rho])
    matrix = space.op_dim * (pmat.conj().T @ left_mult_rho @ pmat)
    return WrightOperator(space=space, matrix=matrix, state=ds)


def probabilities(t: WrightOperator, ops: np.ndarray) -> np.ndarray:
    """Quadratic forms <x, T x> of a stack ``ops`` (count, k, k) of operators on
    t's sector, the diagonal of :meth:`WrightOperator.gram` without the rest;
    they may leave [0, 1] for inconsistent propositions."""
    count, k, _ = ops.shape
    vecs = ops.transpose(0, 2, 1).reshape(count, k * k)
    values = np.einsum("ai,ai->a", vecs.conj() @ t.matrix, vecs) / k
    if np.any(np.abs(values.imag) > TOLERANCES.agreement):
        raise ValueError("non-real quadratic form")
    return values.real
