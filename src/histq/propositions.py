"""The propositions Hilbert space of one support sector.

Operators on the tensor space over a fixed temporal support, equipped with
the normalized Hilbert-Schmidt inner product <x, y> = tr(x^dag y) / tr(1).
The unit proposition e is the identity, and <b, b> grows with how coarse
grained b is (rank / tr(1) for projectors).

A state on the sector is a Wright operator: a self-adjoint operator T with
<e, T e> = 1 whose quadratic form <x, T x> yields the probabilities.  For
the standard functional it is T = tr(1) * pi^adj (rho . pi(b)), represented
here as a matrix acting on column-major vectorized operators.  One T exists
per sector; no global cross-sector operator is represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TOLERANCES, as_operator
from .decoherence import DecoherenceState, require_sector
from .histories import HistoryOperator, chain_map

__all__ = [
    "PropositionSpace",
    "Proposition",
    "proposition",
    "unit_proposition",
    "hs_inner",
    "p_norm",
    "WrightOperator",
    "wright_operator",
    "probability",
    "chain_matrix",
]


@dataclass(frozen=True)
class PropositionSpace:
    """One support sector: operators on (C^dim)^(x n) for fixed times."""

    support: tuple[float, ...]
    dim_single: int

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(float(t) for t in self.support))
        if self.dim_single < 1:
            raise ValueError("dim_single must be positive")
        if len(self.support) == 0:
            raise ValueError("support must be nonempty")

    @property
    def n_times(self) -> int:
        return len(self.support)

    @property
    def op_dim(self) -> int:
        """Dimension of the tensor space the propositions act on."""
        return self.dim_single ** self.n_times

    @property
    def sector_dim(self) -> int:
        """Dimension of the sector as an operator space."""
        return self.dim_single ** (2 * self.n_times)


@dataclass(frozen=True, eq=False)
class Proposition:
    """An element of one sector; not necessarily a projection."""

    space: PropositionSpace
    op: np.ndarray

    def as_history_operator(self) -> HistoryOperator:
        return HistoryOperator(support=self.space.support,
                               dim=self.space.dim_single, op=self.op)


def proposition(space: PropositionSpace, op) -> Proposition:
    m = as_operator(op)
    if m.shape[0] != space.op_dim:
        raise ValueError(f"operator dimension {m.shape[0]} does not match "
                         f"sector dimension {space.op_dim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("proposition entries must be finite")
    return Proposition(space=space, op=m)


def unit_proposition(space: PropositionSpace) -> Proposition:
    """The always-true proposition e (identity on the sector's tensor space)."""
    return Proposition(space=space, op=np.eye(space.op_dim, dtype=complex))


def _same_sector(x: Proposition, y: Proposition | WrightOperator) -> PropositionSpace:
    if x.space != y.space:
        raise ValueError("sector mismatch")
    return x.space


def hs_inner(x: Proposition, y: Proposition) -> complex:
    """Normalized Hilbert-Schmidt inner product tr(x^dag y) / tr(1)."""
    space = _same_sector(x, y)
    return complex(np.trace(x.op.conj().T @ y.op) / space.op_dim)


def p_norm(x: Proposition, p: float) -> float:
    """(tr((x^dag x)^(p/2)) / tr(1))^(1/p), computed from singular values."""
    if p < 1:
        raise ValueError("p must be >= 1")
    sv = np.linalg.svd(x.op, compute_uv=False)
    return float((np.sum(sv ** p) / x.space.op_dim) ** (1.0 / p))


def chain_matrix(dim: int, n_times: int) -> np.ndarray:
    """Matrix of the chain map on column-major vectorized operators."""
    k = dim ** n_times
    cols = np.empty((dim * dim, k * k), dtype=complex)
    for m in range(k * k):
        i, j = m % k, m // k
        unit = np.zeros((k, k), dtype=complex)
        unit[i, j] = 1.0
        cols[:, m] = chain_map(unit, dim, n_times).flatten(order="F")
    return cols


@dataclass(frozen=True, eq=False)
class WrightOperator:
    """Sector state: matrix on vectorized operators, self-adjoint, <e,Te> = 1."""

    space: PropositionSpace
    matrix: np.ndarray

    def apply(self, x: Proposition) -> Proposition:
        _same_sector(x, self)
        k = self.space.op_dim
        vec = self.matrix @ x.op.flatten(order="F")
        return Proposition(space=self.space, op=vec.reshape((k, k), order="F"))


def wright_operator(ds: DecoherenceState, support: Sequence[float]) -> WrightOperator:
    """Construct the sector state reproducing the decoherence functional.

    T = tr(1) * P^dag (I (x) rho) P with P the chain-map matrix, so that
    <b1, T b2> = tr(pi(b1)^dag rho pi(b2)) for all same-sector b1, b2.
    """
    support = require_sector(ds, support, "Wright construction")
    dim = ds.model.dim
    n = len(support)
    space = PropositionSpace(support=support, dim_single=dim)
    pmat = chain_matrix(dim, n)
    left_mult_rho = np.kron(np.eye(dim, dtype=complex), ds.model.rho)
    matrix = space.op_dim * (pmat.conj().T @ left_mult_rho @ pmat)
    return WrightOperator(space=space, matrix=matrix)


def probability(t: WrightOperator, x: Proposition) -> float:
    """Quadratic form <x, T x>; may leave [0, 1] for inconsistent propositions."""
    _same_sector(x, t)
    vec = x.op.flatten(order="F")
    value = complex(vec.conj() @ t.matrix @ vec) / t.space.op_dim
    if abs(value.imag) > TOLERANCES.agreement:
        raise ValueError("non-real quadratic form")
    return float(value.real)
