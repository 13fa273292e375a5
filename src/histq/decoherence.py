"""The standard decoherence functional in three equivalent representations.

For histories h ~ {P_t1, ..., P_tn} and k ~ {Q_t1, ..., Q_tn} (Heisenberg
picture, earliest time leftmost) the functional is

    d(h, k) = tr( C(h)^dag rho C(k) ),     C(h) = P_t1 P_t2 ... P_tn,

conjugate linear in the first slot.  One kernel, :func:`chain_gram`, reads
every pair of a stack of chains with one GEMM.  The chain form reads it:
:func:`d_trace` on the chains of two histories, ``verify`` and
``decohere`` on chains multiplied out from transported factors.  So does
:func:`d_gram`, the sesquilinear extension on a stack of operators of one
support sector via the chain map, which :func:`d_form` and the
reconstruction read.  Computed apart from it: :func:`d_basis_sum`, the
expansion over products of the rho eigenbasis, and :meth:`IlsOperator.pair_value`,
d(p, q) = tr((p (x) q) X) for one operator X on the doubled tensor space.
These three take two :class:`~histq.histories.Proposition` arguments of one
sector of the state's dimension; ``embed`` turns a history into one.

X is read off the functional's Gram matrix on the matrix units, and
tr((p (x) q) X) is bilinear, so ``pair_value(p, q)`` is d(p^dag, q) for any
operands; on self-adjoint ones it is d(p, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SystemModel, TimeGrid
from .histories import (
    HomogeneousHistory,
    Proposition,
    PropositionSpace,
    chain_map,
    class_operator,
    support_reduce,
)

__all__ = [
    "DecoherenceState",
    "SECTOR_CAP",
    "CapacityError",
    "sector_fits",
    "require_sector",
    "chain_gram",
    "d_trace",
    "d_form",
    "d_gram",
    "d_basis_sum",
    "IlsOperator",
    "ils_reconstruct",
]

# Largest admitted operator-space dimension dim^(2n) for the X / T solvers.
SECTOR_CAP = 81


class CapacityError(ValueError):
    """A support sector whose operator space exceeds ``SECTOR_CAP``."""


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
    """Chain form of the decoherence functional on two homogeneous histories.

    Histories are canonicalized first; distinct supports are fine because
    identity padding never changes the chains.  One :func:`chain_gram` call
    on the two chains.
    """
    return complex(chain_gram(ds, np.array([_chain(ds, h), _chain(ds, k)], dtype=complex))[0, 1])


def _pair_sector(ds: DecoherenceState, p: Proposition, q: Proposition) -> PropositionSpace:
    """The common sector of ``p`` and ``q``; ``ValueError`` on two supports, and
    "sector mismatch" when its single-time dimension is not the state's."""
    if p.space != q.space:
        raise ValueError("mixed temporal support")
    return PropositionSpace(support=p.space.support, dim_single=ds.model.dim).require(p)


def d_gram(ds: DecoherenceState, ops: np.ndarray, n_times: int) -> np.ndarray:
    """``G[a, b] = tr(pi(ops_a)^dag rho pi(ops_b))`` for a stack ``ops`` of
    operators on one n-time sector: :func:`chain_gram` on their chain-map images."""
    return chain_gram(ds, chain_map(ops, ds.model.dim, n_times))


def d_form(ds: DecoherenceState, b1: Proposition, b2: Proposition) -> complex:
    """Sesquilinear extension tr(pi(b1)^dag rho pi(b2)) on a common support."""
    space = _pair_sector(ds, b1, b2)
    return complex(d_gram(ds, np.stack((b1.op, b2.op)), space.n_times)[0, 1])


def _slice(x: Proposition, psi: np.ndarray) -> np.ndarray:
    """S(x)[a, b, J] = E(x)[(a, J), (J, b)], the entries of x's eigenbasis form
    E(x) = (x)_f Psi_f^dag f Psi_f (Psi_f = psi^(x m_f) for a factor f on m_f
    times) that :func:`d_basis_sum` reads.

    Each factor contributes its partial diagonal F[a, J_f, b]; consecutive
    factors join on their shared boundary index by an outer product, which
    becomes one more inner index.  For a one-time factor F is psi^dag f psi,
    formed for all of them in one stacked product.
    """
    dim = len(psi)
    ones = [f for f in x.factors if len(f) == dim]
    single = iter(psi.conj().T @ np.reshape(ones, (len(ones), dim, dim)) @ psi)
    out = None
    for f in x.factors:
        big = psi
        while len(big) < len(f):
            big = np.kron(big, psi)
        inner = len(f) // dim
        form = next(single) if inner == 1 else big.conj().T @ f @ big
        part = np.einsum("ajjb->ajb", form.reshape(dim, inner, inner, dim))
        out = part if out is None else (out[..., None, None] * part).reshape(dim, -1, dim)
    return np.ascontiguousarray(out.transpose(0, 2, 1))


def d_basis_sum(ds: DecoherenceState, p: Proposition, q: Proposition) -> complex:
    """Basis-expansion form of the functional on an n-time support.

    Sums over 2n basis indices j_1..j_2n: j_1 runs over the spectral
    resolution of rho (weights w), j_2..j_2n over auxiliary orthonormal
    bases.  The value does not depend on the auxiliary bases (Isham, Linden
    and Schreckenberg, J. Math. Phys. 35, 1994), so every slot uses the rho
    eigenbasis psi and each operand x is read through its form E(x), x
    written in the basis psi^(x n), one axis per time.  The sum reads only
    the entries E(x)[(a, J), (J, b)], a and b the first and last index and
    J the n - 1 inner ones, so each operand enters as its slice
    S(x)[a, b, J], built from the operand's factors: for an embedded history
    S(q)[a, b, J] = F_1[a, J_1] F_2[J_1, J_2] ... F_n[J_(n-1), b] with
    F_t = psi^dag P_t psi, and for a one-factor operand the partial diagonal
    of Psi^dag x Psi with Psi = psi^(x n).  The first operand enters as
    p^dag, whose form is conj(E(p)) with its row and column indices swapped,
    so the sum is the single contraction

        sum_{a, b, J, K} w[a] conj(S(p))[a, b, K] S(q)[a, b, J]

    over all dim^(2n) index tuples, conjugate linear in the first slot like
    :func:`d_form`.  S(x) is memoised on ``x`` (``Proposition.eigen_forms``),
    so a history paired with many others is written in the eigenbasis once;
    each operand holds dim^(n+1) entries per eigenbasis while it lives.  The
    weights enter per pair, so states that share psi share the memo.
    """
    _pair_sector(ds, p, q)
    psi = np.asarray(ds.model.vectors, dtype=complex)
    key = psi.tobytes()  # a proposition read in two eigenbases keeps both slices
    for x in (p, q):
        if key not in x.eigen_forms:
            x.eigen_forms[key] = _slice(x, psi)
    left = p.eigen_forms[key].conj() * np.asarray(ds.model.weights)[:, None, None]
    return complex(np.einsum("abj,abk->", left, q.eigen_forms[key]))


@dataclass(frozen=True)
class IlsOperator:
    """Operator X on the doubled tensor space with tr((p (x) q) X) = d(p^dag, q)."""

    space: PropositionSpace
    xd: np.ndarray

    def pair_value(self, p: Proposition, q: Proposition) -> complex:
        """Reconstructed d(p^dag, q), which is d(p, q) for self-adjoint p.

        tr((p (x) q) X) contracted on X's four k-dimensional slots
        X[(i, k), (j, l)], without forming the k^2 x k^2 product p (x) q.
        """
        k = self.space.require(p, q).op_dim
        return complex(np.einsum("ji,lk,ikjl->", p.op, q.op, self.xd.reshape((k,) * 4)))


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
