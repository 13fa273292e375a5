"""Support sectors, their one operator type, and the maps from histories to operators.

A homogeneous history assigns one projector to each time of a support; a
stack (count, n, dim, dim) holds one history per row, its projectors in time
order.  A :class:`PropositionSpace` is one support sector, validated once
when it is built, and a :class:`Proposition` an operator on its tensor space:
the one operator type that the decoherence forms, the sector state, the
windows and the entropies take.  A stack's rows, each projector transported
to the Heisenberg picture, are the factors of propositions on their support.

:func:`chains` takes a stack of transported histories to the time-ordered
products of their projectors on the single-time space (earliest factor
leftmost), and :func:`chain_map` is the linear extension of that map to
arbitrary operators on the tensor space, obtained by expanding in
matrix-unit dyads and multiplying the slots out in time order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import as_operator, tensor_product

__all__ = [
    "PropositionSpace",
    "Proposition",
    "proposition",
    "chains",
    "chain_map",
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
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support times must be strictly increasing")

    @property
    def n_times(self) -> int:
        return len(self.support)

    @property
    def op_dim(self) -> int:
        """Dimension of the tensor space the propositions act on."""
        return self.dim_single ** self.n_times

    def require(self, *operands) -> PropositionSpace:
        """This sector; ``ValueError`` unless every operand lies in it."""
        for x in operands:
            if x.space != self:
                raise ValueError("sector mismatch")
        return self


@dataclass(frozen=True, eq=False)
class Proposition:
    """An element of one sector; not necessarily a projection.

    ``factors`` are operators on consecutive groups of the support's times
    whose Kronecker product, in time order, is the operator ``op``: a transported
    history keeps one dim x dim factor per time, :func:`proposition` one factor,
    the whole operator.  ``op`` is built the first time it is read (for one
    factor it is that array); neither is written after construction, and the
    public constructors copy what they are given.  ``eigen_forms`` maps the
    bytes of a state's eigenbasis psi to the dim^(n+1) entries of the
    operator's form E(op) there that ``decoherence.d_basis_sum`` sums over,
    which it reads and writes.
    """

    space: PropositionSpace
    factors: tuple[np.ndarray, ...]
    eigen_forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_times(self) -> int:
        return self.space.n_times

    @functools.cached_property
    def op(self) -> np.ndarray:
        return tensor_product(self.factors)


def proposition(space: PropositionSpace, op) -> Proposition:
    """``op`` as an element of ``space``, copied so that the caller's buffer
    cannot change it later; ``ValueError`` on a dimension mismatch or a
    non-finite entry."""
    m = as_operator(op).copy()
    if m.shape[0] != space.op_dim:
        raise ValueError(f"operator dimension {m.shape[0]} does not match "
                         f"sector dimension {space.op_dim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("proposition entries must be finite")
    return Proposition(space=space, factors=(m,))


def chains(stack: np.ndarray) -> np.ndarray:
    """The one chain kernel: the time-ordered products P_1 ... P_n of a stack (count,
    n, dim, dim) of histories by n - 1 batched matmuls, the identity for n = 0."""
    count, n, dim, _ = np.shape(stack)
    if n == 0:
        return np.tile(np.eye(dim, dtype=complex), (count, 1, 1))
    return functools.reduce(np.matmul, np.swapaxes(stack, 0, 1))


def chain_map(op: np.ndarray, dim: int, n_times: int) -> np.ndarray:
    """Collapse operators on dim^n tensor space to ordered single-time products.

    ``op`` is one operator or a stack of them along leading axes.  On a
    homogeneous element b_1 (x) ... (x) b_n the result is b_1 b_2 ... b_n;
    general operators are handled by linearity over matrix-unit dyads, which
    here reduces to one tensor contraction for the whole stack.
    """
    op = np.asarray(op, dtype=complex)
    k = dim ** n_times
    if op.ndim < 2 or op.shape[-2:] != (k, k):
        raise ValueError("operator dimension is not dim ** n_times")
    if n_times == 1:
        return op.copy()
    tensor = op.reshape(op.shape[:-2] + (dim,) * (2 * n_times))
    # row slots i_1..i_n, column slots j_1..j_n; the dyad product forces
    # j_k = i_{k+1}, leaving indices (i_1, j_n).
    subscripts = [..., *range(n_times), *range(1, n_times + 1)]
    return np.einsum(tensor, subscripts, [..., 0, n_times])
