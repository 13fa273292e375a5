"""Homogeneous histories, support sectors, and the maps from histories to operators.

A homogeneous history assigns one projector to each of finitely many times.
Its canonical representative drops every identity entry (inserting or removing
identities does not change the physics), and the remaining times form the
history's support.  A :class:`PropositionSpace` is one support sector,
validated once when it is built, and a :class:`Proposition` an operator on
its tensor space: the one operator type that the decoherence forms, the
sector state, the windows and the entropies take.  Two maps take histories to
operators:

* :func:`embed_stack` produces the projector of each of a list of histories on
  the tensor-product space over one support, with each factor transported to
  the Heisenberg picture, as a :class:`Proposition` that keeps its n factors;
* :func:`class_operator` produces the time-ordered product of the transported
  projectors on the single-time space (earliest factor leftmost), by :func:`chains`.

:func:`chain_map` is the linear extension of the second map to arbitrary
operators on the tensor space, obtained by expanding in matrix-unit dyads and
multiplying the slots out in time order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    TOLERANCES,
    SystemModel,
    as_operator,
    heisenberg,
    is_projector,
    max_abs,
    tensor_product,
)

__all__ = [
    "HomogeneousHistory",
    "PropositionSpace",
    "Proposition",
    "proposition",
    "history",
    "support_reduce",
    "embed_stack",
    "class_operator",
    "chains",
    "chain_map",
]


@dataclass(frozen=True)
class HomogeneousHistory:
    """Ordered (time, projector) pairs; empty items mean the unit proposition.

    The projectors come checked, by :func:`history` or by the scenario parser.
    """

    items: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if any(b <= a for (a, _), (b, _) in zip(self.items, self.items[1:])):
            raise ValueError("history times must be strictly increasing")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.items)


def history(entries: Mapping[float, np.ndarray]) -> HomogeneousHistory:
    """Build a history from a time -> projector mapping, copying each projector;
    ``ValueError`` on a non-projector."""
    items = tuple(sorted(((float(t), as_operator(p).copy()) for t, p in entries.items()),
                         key=lambda tp: tp[0]))
    verdicts = is_projector(np.array([p for _, p in items])) if items else ()
    for (t, _), ok in zip(items, verdicts):
        if not ok:
            raise ValueError(f"history entry at time {t!r} is not a projector")
    return HomogeneousHistory(items)


def support_reduce(h: HomogeneousHistory) -> HomogeneousHistory:
    """Canonical representative: drop every time whose entry is the identity.

    Returns ``h`` itself when no entry is dropped.
    """
    kept = []
    for t, p in h.items:
        eye = np.eye(p.shape[0])
        if max_abs(p - eye) > TOLERANCES.equality * max(max_abs(p), 1.0):
            kept.append((t, p))
    return h if len(kept) == len(h.items) else HomogeneousHistory(tuple(kept))


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
    whose Kronecker product, in time order, is the operator ``op``: :func:`embed_stack`
    keeps one dim x dim factor per time, the other constructors one factor,
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


def embed_stack(model: SystemModel, histories: Sequence[HomogeneousHistory],
                support: Sequence[float], t0: float = 0.0) -> list[Proposition]:
    """Each history's Heisenberg projectors as the factors of a proposition on ``support``,
    which must hold its times, in one shared sector: one :func:`heisenberg` call moves the
    present entries of a grid (count, n, dim, dim) whose missing ones are exact identities."""
    space = PropositionSpace(support=support, dim_single=model.dim)
    slot = {t: j for j, t in enumerate(space.support)}
    if not all(set(h.times) <= slot.keys() for h in histories):
        raise ValueError("support does not contain the history's times")
    at = np.array([(row, slot[t]) for row, h in enumerate(histories) for t in h.times],
                  dtype=int).reshape(-1, 2)
    stack = np.reshape([p for h in histories for _, p in h.items], (-1, model.dim, model.dim))
    grid = np.tile(np.eye(model.dim, dtype=complex), (len(histories), space.n_times, 1, 1))
    grid[at[:, 0], at[:, 1]] = heisenberg(model, stack, [t for h in histories for t in h.times], t0)
    return [Proposition(space=space, factors=tuple(row)) for row in grid]


def class_operator(model: SystemModel, h: HomogeneousHistory, t0: float = 0.0) -> np.ndarray:
    """Time-ordered product of the Heisenberg projectors on the single-time space.

    The map is not injective: repeating a projector at a second time yields
    the same operator by idempotence.  The result has operator norm <= 1.  The
    projectors are transported by one :func:`heisenberg` call.
    """
    stack = np.reshape([p for _, p in h.items], (len(h.items), model.dim, model.dim))
    return chains(heisenberg(model, stack, h.times, t0)[None])[0]


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
