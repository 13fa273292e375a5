"""The standard decoherence functional in three equivalent representations.

For histories h ~ {P_t1, ..., P_tn} and k ~ {Q_t1, ..., Q_tn} (Heisenberg
picture, earliest time leftmost) the functional is

    d(h, k) = tr( C(h)^dag rho C(k) ),     C(h) = P_t1 P_t2 ... P_tn,

conjugate linear in the first slot.  The chain form is one kernel,
:func:`chain_gram`, every pair of a stack of chains by one GEMM; :func:`d_trace`
reads it on two histories, and :func:`d_gram` (so the reconstruction) on the
chain-map images of a stack of one sector's operators.
Computed apart from it: the expansion over products of the rho eigenbasis,
:func:`d_basis_sum` on two :class:`~histq.histories.Proposition` operands and
:func:`d_basis_sums` on stacks of transported product histories; and
tr((p (x) q) X) for one operator X on the doubled tensor space, read off the
functional's Gram matrix on the matrix units (:meth:`IlsOperator.pair_values`).
That trace is bilinear, so it is d(p^dag, q) for any operands and d(p, q) on
self-adjoint ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SystemModel, TimeGrid, tensor_product
from .histories import (HomogeneousHistory, Proposition, PropositionSpace, chain_map,
                        class_operator, support_reduce)

__all__ = [
    "DecoherenceState",
    "SECTOR_CAP",
    "CapacityError",
    "sector_fits",
    "require_sector",
    "chain_gram",
    "d_trace",
    "d_gram",
    "d_basis_sum",
    "d_basis_sums",
    "IlsOperator",
    "ils_reconstruct",
]

# Largest admitted operator-space dimension dim^(2n) for the X / T solvers.
SECTOR_CAP = 81


class CapacityError(ValueError):
    """A support sector over ``SECTOR_CAP``, the one cap of the dense constructions."""


def sector_fits(dim: int, n_times: int) -> bool:
    """True when the sector's operator space dim^(2n) is within ``SECTOR_CAP``."""
    return dim ** (2 * n_times) <= SECTOR_CAP


def require_sector(ds: DecoherenceState, support: Sequence[float],
                   construction: str) -> PropositionSpace:
    """The sector of grid times ``support``; :class:`CapacityError` when over the cap."""
    space = PropositionSpace(support=support, dim_single=ds.model.dim)
    for t in space.support:
        ds.grid.require(t)
    if not sector_fits(space.dim_single, space.n_times):
        raise CapacityError(f"support too large for {construction}")
    return space


@dataclass(frozen=True)
class DecoherenceState:
    """An initial state rho together with the admissible time grid."""

    model: SystemModel
    grid: TimeGrid


def _chain(ds: DecoherenceState, h: HomogeneousHistory) -> np.ndarray:
    h = support_reduce(h)
    for t in h.times:
        ds.grid.require(t)
    return class_operator(ds.model, h, ds.grid.t0)


def chain_gram(ds: DecoherenceState, chains: np.ndarray) -> np.ndarray:
    """``D[a, b] = tr(chains_a^dag rho chains_b)`` for a stack (m, dim, dim):
    one batched matmul by rho, then one GEMM over the flattened chains."""
    m, dim, _ = chains.shape
    left = chains.conj().transpose(0, 2, 1) @ ds.model.rho  # chains_a^dag rho
    return left.reshape(m, dim * dim) @ chains.transpose(0, 2, 1).reshape(m, dim * dim).T


def d_trace(ds: DecoherenceState, h: HomogeneousHistory, k: HomogeneousHistory) -> complex:
    """Chain form on two homogeneous histories, canonicalized first (identity
    padding never changes a chain, so supports may differ): one :func:`chain_gram`."""
    return complex(chain_gram(ds, np.array([_chain(ds, h), _chain(ds, k)], dtype=complex))[0, 1])


def d_gram(ds: DecoherenceState, ops: np.ndarray, n_times: int) -> np.ndarray:
    """``G[a, b] = tr(pi(ops_a)^dag rho pi(ops_b))`` for a stack ``ops`` of
    operators on one n-time sector: :func:`chain_gram` on their chain-map images."""
    return chain_gram(ds, chain_map(ops, ds.model.dim, n_times))


def _join(parts) -> np.ndarray:
    """The slice S[..., a, b, J] of partial diagonals F[..., a, J_f, b] in time order,
    each joined to the last by an outer product on their shared (now inner) index."""
    out = parts[0]
    for part in parts[1:]:
        out = (out[..., None, None] * part[..., None, None, :, :, :]).reshape(
            out.shape[:-2] + (-1, out.shape[-1]))
    return np.ascontiguousarray(out.swapaxes(-1, -2))


def _diagonals(psi: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """The partial diagonals psi^dag f psi (..., dim, 1, dim) of a stack of one-time factors."""
    return (psi.conj().T @ fs @ psi)[..., None, :]


def _slice(x: Proposition, psi: np.ndarray) -> np.ndarray:
    """S(x): :func:`_join` of the partial diagonals of Psi_f^dag f Psi_f, Psi_f = psi^(x m_f)
    for the factors f of x on m_f times, one stacked product for all one-time factors."""
    dim = len(psi)
    single = iter(_diagonals(psi, np.reshape([f for f in x.factors if len(f) == dim],
                                             (-1, dim, dim))))
    parts = []
    for f in x.factors:
        inner = len(f) // dim
        big = tensor_product([psi] * round(math.log(len(f), dim))) if inner > 1 else None
        parts.append(next(single) if inner == 1 else np.einsum(
            "ajjb->ajb", (big.conj().T @ f @ big).reshape(dim, inner, inner, dim)))
    return _join(parts)


def _contract(ds: DecoherenceState, sp: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """sum_{a, b, J, K} w[a] conj(sp)[..., a, b, K] sq[..., a, b, J], one value per pair of
    slices: one matmul over (a, b) forms all dim^(2n) terms as (..., K, J), then one sum."""
    left = sp.conj() * np.asarray(ds.model.weights)[:, None, None]
    flat = (*sp.shape[:-3], sp.shape[-3] * sp.shape[-2], sp.shape[-1])
    return (left.reshape(flat).swapaxes(-1, -2) @ sq.reshape(flat)).sum(axis=(-2, -1))


def d_basis_sum(ds: DecoherenceState, p: Proposition, q: Proposition) -> complex:
    """Basis-expansion form of the functional on an n-time support.

    It sums over 2n basis indices: j_1 over the spectral resolution of rho
    (weights w), the others over auxiliary orthonormal bases, on which the
    value does not depend (Isham, Linden and Schreckenberg, J. Math. Phys.
    35, 1994).  With the rho eigenbasis psi in every slot it reads of each
    operand x only the slice S(x)[a, b, J] = E(x)[(a, J), (J, b)] of its form
    E(x) in the basis psi^(x n), a and b the first and last index and J the
    n - 1 inner ones; for an embedded history F_1[a, J_1] ... F_n[J_(n-1), b]
    with F_t = psi^dag P_t psi.  p enters as p^dag: one :func:`_contract`,
    conjugate linear in the first slot like :func:`chain_gram`.  S(x) is memoised
    on x (``Proposition.eigen_forms``); the weights enter per pair.
    """
    if p.space != q.space:
        raise ValueError("mixed temporal support")
    if p.space.dim_single != ds.model.dim:
        raise ValueError("sector mismatch")
    psi = np.asarray(ds.model.vectors, dtype=complex)
    key = psi.tobytes()  # a proposition read in two eigenbases keeps both slices
    for x in (p, q):
        if key not in x.eigen_forms:
            x.eigen_forms[key] = _slice(x, psi)
    return complex(_contract(ds, p.eigen_forms[key], q.eigen_forms[key]))


def d_basis_sums(ds: DecoherenceState, hs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """:func:`d_basis_sum` of each pair (hs[i], ks[i]) of two stacks (count, n,
    dim, dim) of transported projectors, one per time: all slices from one
    stacked product psi^dag P_t psi each, and one contraction."""
    psi = np.asarray(ds.model.vectors, dtype=complex)
    sp, sq = (_join(list(_diagonals(psi, x).swapaxes(0, 1))) for x in (hs, ks))
    return _contract(ds, sp, sq)


@dataclass(frozen=True)
class IlsOperator:
    """Operator X on the doubled tensor space with tr((p (x) q) X) = d(p^dag, q)."""

    space: PropositionSpace
    xd: np.ndarray

    def pair_values(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """tr((p (x) q) X) of each pair (ps[i], qs[i]) of two stacks (count, k, k),
        contracted on X's four k-dimensional slots X[(i, k), (j, l)] by one
        einsum, without forming the k^2 x k^2 products p (x) q."""
        k = self.space.op_dim
        return np.einsum("...ji,...lk,ikjl->...", ps, qs, self.xd.reshape((k,) * 4))

    def pair_value(self, p: Proposition, q: Proposition) -> complex:
        """Reconstructed d(p^dag, q): one pair of :meth:`pair_values`."""
        self.space.require(p, q)
        return complex(self.pair_values(p.op, q.op))


def ils_reconstruct(ds: DecoherenceState, support: Sequence[float]) -> IlsOperator:
    """Solve for the doubled-space operator reproducing the functional.

    X[(i, m), (j, l)] = d(E_ij, E_lm) on the matrix units E_ij of the support
    sector: one :func:`d_gram` call on the k^2 units and one index reordering.
    Then tr((p (x) q) X) = d(p^dag, q) for all operators p, q on the sector,
    which fixes X uniquely.  Its trace is d(1, 1) = 1.
    """
    space = require_sector(ds, support, "ILS reconstruction")
    k = space.op_dim
    units = np.eye(k * k).reshape(k * k, k, k)  # units[i k + j] = E_ij
    gram = d_gram(ds, units, space.n_times)  # gram[i k + j, l k + m] = d(E_ij, E_lm)
    xd = gram.reshape((k,) * 4).transpose(0, 3, 1, 2).reshape(k * k, k * k)
    return IlsOperator(space=space, xd=xd)
