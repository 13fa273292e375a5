"""Consistent windows in both pictures, refinement, and window search.

A window is a finite family of propositions on one sector.  In the sector
picture it is consistent for a state T when the members are mutually
orthogonal, sum to e, carry strictly positive probabilities <= 1, and the
probabilities add up to 1.  In the operator picture a projector family is
consistent when the projections are mutually orthogonal, complete, and all
off-diagonal decoherence values have vanishing real part.

The search enumerates coarse grainings of product-history families built from
per-time projective decompositions.  Set partitions are generated as
restricted-growth strings, so the ordering is deterministic.  Every quantity
``check_window`` tests on a coarse graining is a block sum of two N x N
matrices of the base family (the Gram matrix of the state and the
Hilbert-Schmidt Gram matrix), so the strings are scored in fixed-size
vectorised chunks first; only the partitions that pass this screen become
windows, and ``Window.decide`` alone decides them, once.  Both checks write
nothing and return a report holding the verdict and the member probabilities
their picture certifies; ``Window`` is frozen and carries the two reports, so
consumers read the verdicts instead of checking again.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .core import Tolerances, active_tolerances, as_operator, heisenberg, is_projector, max_abs
from .decoherence import DecoherenceState, d_form
from .propositions import (
    Proposition,
    PropositionSpace,
    WrightOperator,
    hs_inner,
    probability,
    proposition,
    unit_proposition,
)

__all__ = [
    "ConsistencyReport",
    "Window",
    "window",
    "check_window",
    "check_window_operators",
    "is_refinement",
    "strict_refinements",
    "search_windows",
    "is_maximally_refined",
    "restricted_growth_strings",
    "set_partitions",
    "MAX_BASE_FAMILY",
]

MAX_BASE_FAMILY = 12
# Restricted-growth strings scored per vectorised screen batch; bounds the
# screen's memory independently of the Bell number of the family.
_SCREEN_CHUNK = 256
# Multiple of the summation-order rounding bound by which the screen widens
# the check_window thresholds (see _rounding_slack).
_ROUNDING_ULPS = 16


@dataclass(frozen=True)
class ConsistencyReport:
    verdict: str  # "consistent" | "inconsistent"
    violated: tuple[str, ...]
    max_residual: float
    probabilities: tuple[float, ...]  # per member, as this picture certifies them

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


@dataclass(frozen=True, eq=False)
class Window:
    """Finite family of propositions; a decided window carries its verdicts."""

    space: PropositionSpace
    members: tuple[Proposition, ...]
    kreport: ConsistencyReport | None = None  # sector picture
    opreport: ConsistencyReport | None = None  # operator picture

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("window must have at least one member")
        for x in self.members:
            if x.space != self.space:
                raise ValueError("sector mismatch")

    def decide(self, ds: DecoherenceState, t: WrightOperator) -> Window:
        """A copy with the verdicts of ``check_window`` for ``t`` and, when every
        member is a projector, ``check_window_operators`` for ``ds``."""
        kreport = check_window(self, t)
        opreport = None
        if all(is_projector(x.op) for x in self.members):
            opreport = check_window_operators(ds, self)
        return replace(self, kreport=kreport, opreport=opreport)


def window(space: PropositionSpace, ops: Sequence[np.ndarray]) -> Window:
    members = tuple(proposition(space, op) for op in ops)
    return Window(space=space, members=members)


def _bound(name: str, residual: float, tol: Tolerances,
           violated: list[str], residuals: list[float]) -> None:
    residuals.append(residual)
    if residual > tol.consistency:
        violated.append(name)


def _pair_max(measure, items: Sequence, floor: float = 0.0) -> float:
    """Largest ``measure(a, b)`` over the pairs a before b of ``items``, at least ``floor``."""
    pairs = itertools.combinations(items, 2)
    return max(itertools.chain([floor], itertools.starmap(measure, pairs)))


def _structure(w: Window, overlap, tol: Tolerances) -> tuple[list[str], list[float]]:
    """The conditions both pictures share: pairwise orthogonality under
    ``overlap`` and completeness (the members sum to e)."""
    violated: list[str] = []
    residuals: list[float] = []
    _bound("orthogonality", _pair_max(overlap, w.members), tol, violated, residuals)
    _bound("completeness", max_abs(sum(x.op for x in w.members) - np.eye(w.space.op_dim)),
           tol, violated, residuals)
    return violated, residuals


def _verdict(violated: list[str], residuals: list[float], probs: tuple) -> ConsistencyReport:
    return ConsistencyReport(
        verdict="consistent" if not violated else "inconsistent",
        violated=tuple(violated),
        max_residual=max(residuals) if residuals else 0.0,
        probabilities=probs,
    )


def check_window(w: Window, t: WrightOperator) -> ConsistencyReport:
    """Sector-picture consistency of ``w`` for the state ``t``.

    Conditions: pairwise orthogonality, completeness (sum = e), strict
    positivity 0 < p <= 1, and additivity of the probabilities as a measure
    on the Boolean algebra the members generate, i.e. Re <x_i, T x_j> = 0 for
    i != j together with sum p = 1.  (The total sum alone is too weak: for a
    complete product family it equals 1 identically even with interference
    between the members.)  The report's probabilities are <x_i, T x_i>.
    """
    tol = active_tolerances()
    if w.space != t.space:
        raise ValueError("sector mismatch")
    violated, residuals = _structure(w, lambda x, y: abs(hs_inner(x, y)), tol)

    probs = tuple(probability(t, x) for x in w.members)
    if any(p <= tol.strict_positive or p > 1.0 + tol.consistency for p in probs):
        violated.append("positivity")
    residuals.append(max([p - 1.0 for p in probs if p > 1.0], default=0.0))

    pairs = [(x, t.apply(x)) for x in w.members]  # (x_i, T x_i)
    add = _pair_max(lambda a, b: abs(hs_inner(a[0], b[1]).real), pairs, abs(sum(probs) - 1.0))
    _bound("additivity", add, tol, violated, residuals)

    return _verdict(violated, residuals, probs)


def check_window_operators(ds: DecoherenceState, w: Window) -> ConsistencyReport:
    """Operator-picture consistency: orthogonal complete projections with
    vanishing real off-diagonal decoherence values.  The report's
    probabilities are the diagonal values Re d(x_i, x_i)."""
    tol = active_tolerances()
    for x in w.members:
        if not is_projector(x.op):
            raise ValueError("non-projector member")
    violated, residuals = _structure(w, lambda x, y: max_abs(x.op @ y.op), tol)

    hops = [x.as_history_operator() for x in w.members]
    cross = _pair_max(lambda a, b: abs(d_form(ds, a, b).real), hops)
    _bound("re-cross-term", cross, tol, violated, residuals)
    probs = tuple(d_form(ds, b, b).real for b in hops)
    return _verdict(violated, residuals, probs)


def is_refinement(fine: Window, coarse: Window) -> bool:
    """True when every coarse member is the sum of a block of fine members,
    the blocks partitioning ``fine``.

    Assignment uses the overlap <y, x>/<y, y>, which determines the owning
    block for orthogonal families; the explicit sum check makes the answer
    sound either way.
    """
    tol = active_tolerances()
    if fine.space != coarse.space:
        raise ValueError("sector mismatch")
    blocks: dict[int, list[Proposition]] = {i: [] for i in range(len(coarse.members))}
    for y in fine.members:
        normsq = hs_inner(y, y).real
        if normsq <= tol.strict_positive:
            return False
        scores = [hs_inner(y, x).real / normsq for x in coarse.members]
        owner = int(np.argmax(scores))
        if scores[owner] < 0.5:
            return False
        blocks[owner].append(y)
    for i, x in enumerate(coarse.members):
        total = sum((y.op for y in blocks[i]), np.zeros_like(x.op))
        if max_abs(total - x.op) > tol.consistency:
            return False
    return True


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted-growth strings of length n in lexicographic order.

    String a encodes the set partition with blocks {i : a[i] = v}.
    """
    if n == 0:
        yield ()
        return
    a = [0] * n
    b = [0] + [1] * (n - 1)  # b[j] = 1 + max(a[:j]); position 0 never increments
    while True:
        yield tuple(a)
        j = n - 1
        while j >= 0 and a[j] == b[j]:
            j -= 1
        if j < 1:
            return
        a[j] += 1
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = max(b[j], a[j] + 1)


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """Set partitions of ``items`` in restricted-growth-string order."""
    items = list(items)
    for rgs in restricted_growth_strings(len(items)):
        nblocks = max(rgs) + 1 if rgs else 0
        blocks: list[list] = [[] for _ in range(nblocks)]
        for idx, value in enumerate(rgs):
            blocks[value].append(items[idx])
        yield blocks


def _member_key(op: np.ndarray) -> bytes:
    rounded = np.round(np.asarray(op, dtype=complex), 9) + 0.0
    return rounded.tobytes()


def _window_key(w: Window) -> tuple[bytes, ...]:
    return tuple(sorted(_member_key(x.op) for x in w.members))


def _gram_matrices(t: WrightOperator, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``G[a, b] = <base_a, T base_b>`` and ``S[a, b] = <base_a, base_b>``.

    ``base`` stacks the N family operators along axis 0.  Row a of ``vecs``
    is the column-major vectorisation of ``base[a]``, as in ``probability``.
    """
    n, k, _ = base.shape
    vecs = base.transpose(0, 2, 1).reshape(n, k * k)
    conj = vecs.conj()
    return conj @ t.matrix @ vecs.T / k, conj @ vecs.T / k


def _rounding_slack(g: np.ndarray, s: np.ndarray, op_dim: int) -> float:
    """How far a screened block sum may differ from ``check_window``'s value.

    Both compute the same exact numbers in different summation orders: the
    screen adds up to N^2 entries of G or S, and each entry and each value of
    ``check_window`` is itself a sum over the op_dim^2 vector entries.
    """
    n = g.shape[0]
    scale = max(1.0, max_abs(g), max_abs(s))
    return _ROUNDING_ULPS * (n * n + op_dim * op_dim) * np.finfo(float).eps * scale


def _screen(g: np.ndarray, s: np.ndarray, rgs: np.ndarray, tol: Tolerances,
            slack: float) -> np.ndarray:
    """Mask of the partitions (rows of ``rgs``) that ``check_window`` may accept.

    With the one-hot block matrix O[a, i] = [rgs[a] == i] of a partition,
    O^T G O holds <x_i, T x_j> and O^T S O holds <x_i, x_j> for its coarse
    members x_i.  Orthogonality, positivity and additivity are tested on
    these block sums with every threshold widened by ``slack``, so no
    partition that ``check_window`` accepts is dropped.  Completeness is the
    same for every partition of a family and is left to ``check_window``.
    """
    n = g.shape[0]
    onehot = (rgs[:, :, None] == np.arange(n)).astype(float)
    onehot_t = onehot.transpose(0, 2, 1)
    # O is real, so Re(O^T G O) = O^T Re(G) O; real matmuls are cheaper
    greal = onehot_t @ g.real @ onehot
    overlap = np.hypot(onehot_t @ s.real @ onehot, onehot_t @ s.imag @ onehot)
    used = np.arange(n) < rgs.max(axis=1, keepdims=True) + 1
    probs = np.diagonal(greal, axis1=1, axis2=2)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    bound = tol.consistency + slack
    orth = np.max(overlap[:, upper], axis=1, initial=0.0)
    cross = np.max(np.abs(greal[:, upper]), axis=1, initial=0.0)
    total = probs.sum(axis=1)  # empty blocks add exact zeros
    positive = np.all(~used | ((probs > tol.strict_positive - slack) & (probs <= 1.0 + bound)),
                      axis=1)
    return positive & (orth <= bound) & (np.maximum(cross, np.abs(total - 1.0)) <= bound)


def _rgs_chunks(n: int) -> Iterator[np.ndarray]:
    """The restricted-growth strings of length n, as integer arrays of at
    most ``_SCREEN_CHUNK`` rows."""
    strings = restricted_growth_strings(n)
    while chunk := list(itertools.islice(strings, _SCREEN_CHUNK)):
        yield np.array(chunk, dtype=np.intp)


def search_windows(ds: DecoherenceState, t: WrightOperator,
                   pvms: Sequence[Sequence[Sequence[np.ndarray]]]) -> list[Window]:
    """Enumerate consistent coarse grainings of product-history families.

    ``pvms[k]`` lists the alternative projective decompositions offered at
    the k-th support time of ``t``.  For every choice of one decomposition
    per time, the Cartesian product of their elements (transported to the
    Heisenberg picture and tensored in time order) forms a base family of at
    most ``MAX_BASE_FAMILY`` orthogonal projectors.  The set partitions of
    the base family are its restricted-growth strings.  Every decomposition
    must consist of projectors summing to the identity, else ``ValueError``
    naming it.

    The strings are streamed in chunks of ``_SCREEN_CHUNK``, so memory does
    not grow with the Bell number.  Each chunk is scored at once from two
    N x N matrices built once per family, ``G[a, b] = <base_a, T base_b>``
    and ``S[a, b] = <base_a, base_b>``: every block probability, cross term
    and overlap of a coarse graining is a block sum of them.  The screen
    keeps every partition that ``check_window`` could accept; only those
    become windows, and ``Window.decide`` alone attaches their verdicts.

    Returns the consistent windows, deduplicated, largest first, with ties
    broken by a canonical byte key, so the output does not depend on the
    ordering of the supplied decomposition elements.
    """
    tol = active_tolerances()
    space = t.space
    results: dict[tuple[bytes, ...], Window] = {}

    if len(pvms) == 0:
        return [Window(space=space, members=(unit_proposition(space),)).decide(ds, t)]

    if len(pvms) != space.n_times:
        raise ValueError("need one decomposition list per support time")
    for klists in pvms:
        if len(klists) == 0:
            raise ValueError("each time needs at least one decomposition")

    eye = np.eye(ds.model.dim)
    transported: list[list[list[np.ndarray]]] = []
    for k, (time, klists) in enumerate(zip(space.support, pvms)):
        per_time = []
        for j, pvm in enumerate(klists):
            elements = [as_operator(p) for p in pvm]
            if not all(is_projector(p) for p in elements):
                raise ValueError(f"decomposition pvms[{k}][{j}]: elements must be projectors")
            if max_abs(sum(elements) - eye) > tol.consistency:
                raise ValueError(f"decomposition pvms[{k}][{j}]: "
                                 "elements must sum to the identity")
            per_time.append([heisenberg(ds.model, p, time, ds.grid.t0) for p in elements])
        transported.append(per_time)

    for choice in itertools.product(*transported):
        combos = list(itertools.product(*choice))
        if len(combos) > MAX_BASE_FAMILY:
            raise ValueError(
                f"base family too large: {len(combos)} > {MAX_BASE_FAMILY}")
        base = np.array([functools.reduce(np.kron, combo) for combo in combos])
        g, s = _gram_matrices(t, base)
        slack = _rounding_slack(g, s, space.op_dim)
        for rgs in _rgs_chunks(len(base)):
            for row in rgs[_screen(g, s, rgs, tol, slack)]:
                ops = [np.sum(base[row == v], axis=0) for v in range(row.max() + 1)]
                # a sum drifting past the projector bound gets no operator verdict
                cand = window(space, ops).decide(ds, t)
                if not cand.kreport.consistent:
                    continue
                key = _window_key(cand)
                if key not in results:
                    results[key] = cand

    ordered = sorted(results.items(), key=lambda kv: (-len(kv[1].members), kv[0]))
    return [w for _, w in ordered]


def strict_refinements(w: Window, candidates: Sequence[Window]) -> Iterator[Window]:
    """The candidates with more members than ``w`` that refine it, in order.  A
    refinement with no more members matches a consistent ``w`` member for member."""
    return (cand for cand in candidates
            if len(cand.members) > len(w.members) and is_refinement(cand, w))


def is_maximally_refined(w: Window, candidates: Sequence[Window]) -> bool:
    """True when no candidate is a strictly finer consistent refinement."""
    return next(strict_refinements(w, candidates), None) is None
