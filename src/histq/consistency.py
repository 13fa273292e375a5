"""Consistent windows in both pictures, refinement, and window search.

Every window is a coarse graining of a base family: the Kronecker products
of one projector decomposition per support time of a Wright operator T.
Each decomposition is checked once, where the first family containing it is
built (projectors summing to the identity; rank-0 elements dropped), so the
family's members are nonzero orthogonal projectors summing to e, as is every coarse graining.
A window is its family together with a label string that assigns each base
element to a member, and its members are the block sums of the base, which
one kernel forms for a stack of strings.

A window is consistent in the sector picture when its probabilities
<x_i, T x_i> are strictly positive, at most 1, and additive as a measure on
the Boolean algebra the members generate: Re <x_i, T x_j> vanishes for
i != j and the probabilities sum to 1.  (The total alone is too weak: for a
complete product family it is 1 even when the members interfere.)  It is
consistent in the operator picture when every Re d(x_i, x_j) with i != j
vanishes.  These values and the squared norms <x_i, x_i> are sesquilinear in
the members, so a family builds three Gram matrices once, G_T[a, b] =
<base_a, T base_b> from T, G_d[a, b] = d(base_a, base_b) from the chain form
and G_e[a, b] = <base_a, base_b>, and a window reads its numbers as the block
sums O^T G O of its one-hot block matrix O.  One decision kernel reads a
stack of label strings with one block-sum call per Gram matrix; ``window``
is its one-row view, while ``check_window`` and the screen of the search
read the G_T block sums only.  G_d never reads T, so the two verdicts still
cross-check two representations.
``Window`` is frozen and carries both reports, each holding the verdict and
the member probabilities its picture certifies, and the squared norms, so
consumers read them instead of checking again.  ``refinements`` decides which
windows of a list refine which, whatever their families, by projector
containment read off the overlaps of their members.

The screen prunes by coarse graining, which keeps a consistent set
consistent (Gell-Mann and Hartle, 1990).  If Q refines P, each block sum of
P is a sum of block sums of Q: S_P[I, J] = sum of S_Q[i, j] over i in I,
j in J.  When Q is additive (|S_Q[i, j]| <= tol for i != j and the diagonal
sums to 1 within tol, tol = ``TOLERANCES.consistency``), P's cross terms and
the distance of its total from 1 are each at most N²·tol.  So the screen
walks the refinement tree of the strings, from the one-block window e down,
and skips every refinement of a string whose additivity residual exceeds
2·N²·tol, the factor 2 covering rounding; it loses no string that passes.
Positivity never prunes: a refinement can pass it where its coarsening
fails.  The walk scores pieces of at most ``_SCREEN_CHUNK`` strings, so its
memory does not grow with the Bell number (a cached table of the 3^N - 2^N
nonempty submasks of N-bit masks, 19 171 at the largest N = 9, numbers the children);
when every string is additive it scores all Bell(N) of them.  The same walk
with nothing pruned is the one enumerator of the strings:
``partition_windows`` decides every coarse graining of a family from it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import TOLERANCES, as_operator, heisenberg, is_projector, max_abs, tensor_product
from .decoherence import DecoherenceState, d_gram
from .histories import Proposition, PropositionSpace
from .propositions import WrightOperator, wright_operator
from .scenario import Scenario, ScenarioError

__all__ = [
    "ConsistencyReport",
    "BaseFamily",
    "base_family",
    "Window",
    "window",
    "check_window",
    "partition_windows",
    "refinements",
    "search_windows",
]

# Strings per piece of the refinement walk: bounds the memory of the screen
# and of ``partition_windows`` independently of the Bell number.
_SCREEN_CHUNK = 256


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
class BaseFamily:
    """Orthogonal projectors summing to e on the sector of ``t``, stacked along
    axis 0 of ``ops``, with the three Gram matrices of its windows."""

    t: WrightOperator
    ops: np.ndarray
    gram_t: np.ndarray  # <base_a, T base_b>
    gram_d: np.ndarray  # d(base_a, base_b), from the chain form
    gram_e: np.ndarray  # <base_a, base_b>

    @property
    def space(self) -> PropositionSpace:
        return self.t.space


def _decomposition(elements, name: str, dim: int) -> np.ndarray:
    """The elements of rank at least 1, at most dim, in order, as one stack;
    ``ValueError`` naming the decomposition unless all are dim x dim projectors
    summing to the identity.  A checked projector's eigenvalues lie within
    about dim·1e-10 of 0 or 1, so a trace of at least 1/2 tells rank >= 1."""
    ops = [as_operator(p) for p in elements]
    if any(op.shape != (dim, dim) for op in ops):
        raise ValueError(f"decomposition {name}: sector mismatch: elements must be {dim}x{dim}")
    ops = np.reshape(ops, (-1, dim, dim))
    if not np.all(is_projector(ops)):
        raise ValueError(f"decomposition {name}: elements must be projectors")
    if max_abs(sum(ops) - np.eye(dim)) > TOLERANCES.consistency:
        raise ValueError(f"decomposition {name}: elements must sum to the identity")
    return ops[np.trace(ops, axis1=1, axis2=2).real >= 0.5]


def base_family(t: WrightOperator, decompositions: Sequence[Sequence[np.ndarray]]) -> BaseFamily:
    """The Kronecker products of ``decompositions[k]``, the projector
    decomposition offered at the k-th support time of ``t`` (operators on
    the single-time space, already in the picture the sector uses), in
    row-major order over the times.

    Each decomposition is checked here: ``ValueError`` naming it
    (``decompositions[k]``) unless its elements are projectors summing to
    the identity.  Its rank-0 elements are dropped, so the family has at
    most dim^n elements, at most 9 in a sector under ``SECTOR_CAP``.
    :func:`search_windows`, which builds many families from few
    decompositions, runs the same check once per decomposition instead.
    """
    space = t.space
    if len(decompositions) != space.n_times:
        raise ValueError("need one decomposition per support time")
    return _build_family(t, [_decomposition(elements, f"decompositions[{k}]", space.dim_single)
                             for k, elements in enumerate(decompositions)])


def _build_family(t: WrightOperator, factors: Sequence[np.ndarray]) -> BaseFamily:
    """:func:`base_family` of decompositions already checked by ``_decomposition``:
    decomposition k's elements on axis k of one broadcast product, first factor slowest."""
    ops = tensor_product([f[i] for f, i in zip(factors, np.ix_(*(range(len(f)) for f in factors)))])
    ops = ops.reshape(-1, *ops.shape[-2:])
    vecs = ops.reshape(len(ops), -1)
    return BaseFamily(t=t, ops=ops, gram_t=t.gram(ops),
                      gram_d=d_gram(t.state, ops, t.space.n_times),
                      gram_e=vecs.conj() @ vecs.T / t.space.op_dim)


@dataclass(frozen=True, eq=False)
class Window:
    """A coarse graining of a base family with its verdicts in both pictures.

    ``labels[a]`` is the member that base element a belongs to; every member
    index below ``max(labels) + 1`` is used.
    """

    family: BaseFamily
    labels: tuple[int, ...]
    kreport: ConsistencyReport  # sector picture
    opreport: ConsistencyReport  # operator picture
    squared_norms: tuple[float, ...]  # <x_i, x_i> per member, block sums of G_e

    @property
    def space(self) -> PropositionSpace:
        return self.family.space

    @functools.cached_property
    def members(self) -> tuple[Proposition, ...]:
        """The block sums of the base, in member order (a search fills them from its stack)."""
        stack, _ = _member_stack(self.family.ops, np.array([self.labels]))
        return tuple(Proposition(space=self.space, factors=(x,)) for x in stack)


def _member_stack(ops: np.ndarray, rgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one kernel of window members: those of every string of ``rgs``,
    stacked string by string, and the ``np.split`` cuts between strings.
    Member v of row r adds the ``ops[a]`` with ``rgs[r, a] == v`` to 0 in
    increasing a, as ``np.sum`` reduces axis 0, so the two are bit-equal."""
    counts = rgs.max(axis=1) + 1
    starts = np.cumsum(counts) - counts
    out = np.zeros((int(counts.sum()), *ops.shape[1:]), dtype=ops.dtype)
    for a, op in enumerate(ops):
        out[starts + rgs[:, a]] += op
    return out, starts[1:]


def _labels(family: BaseFamily, labels) -> np.ndarray:
    """``labels`` as one string of block indices; ``ValueError`` unless they are
    integers, not bools, label every base element and use every block up to their maximum."""
    n = len(family.ops)
    rgs = np.asarray(labels)
    if (rgs.shape != (n,) or rgs.dtype.kind not in "iu"
            or any(isinstance(v, (bool, np.bool_)) for v in labels)
            or rgs.min() < 0 or len(set(rgs.tolist())) != rgs.max() + 1):
        raise ValueError(f"labels must give each of the {n} base elements "
                         "a block, using every block from 0 up")
    return rgs.astype(np.intp, copy=False)


def _block_sums(g: np.ndarray, rgs: np.ndarray) -> np.ndarray:
    """Re(O^T G O) for the one-hot block matrix O[a, i] = [rgs[r, a] == i] of
    each string r: entry [r, i, j] sums Re G over block i x block j.

    The one kernel of every window value.  O is real, so Re(O^T G O) is
    O^T Re(G) O, and real matmuls are cheaper.
    """
    onehot = np.take(np.eye(g.shape[0]), rgs, axis=0)
    return onehot.transpose(0, 2, 1) @ g.real @ onehot


def _cross(sums: np.ndarray) -> np.ndarray:
    """Largest |off-diagonal block sum| per string (0 for one block); G is
    Hermitian, so Re G is symmetric and the upper triangle suffices."""
    rows, cols = _upper(sums.shape[1])
    return np.abs(sums[:, rows, cols]).max(axis=1, initial=0.0)


_upper = functools.cache(functools.partial(np.triu_indices, k=1))  # n -> strict upper triangle


def _sector_terms(sums: np.ndarray, rgs: np.ndarray):
    """Per string of the G_T block sums: the probabilities, whether every used
    block has 0 < p <= 1, and the additivity residual (the largest cross
    term or the distance of the total from 1)."""
    probs = np.diagonal(sums, axis1=1, axis2=2)
    used = np.arange(rgs.shape[1]) <= rgs.max(axis=1, keepdims=True)
    positive = np.all(~used | ((probs > TOLERANCES.strict_positive)
                               & (probs <= 1.0 + TOLERANCES.consistency)), axis=1)
    total = probs.sum(axis=1)  # empty blocks add exact zeros
    return probs, positive, np.maximum(_cross(sums), np.abs(total - 1.0))


def _report(violated: list[str], residual: float, probs: list[float]) -> ConsistencyReport:
    return ConsistencyReport(
        verdict="consistent" if not violated else "inconsistent",
        violated=tuple(violated),
        max_residual=float(residual),
        probabilities=tuple(probs),
    )


def _sector_reports(family: BaseFamily, rgs: np.ndarray) -> list[ConsistencyReport]:
    """The sector report of each string of ``rgs``, from one block-sum call
    on G_T: the probabilities <x_i, T x_i>, positivity and additivity."""
    probs, positive, additivity = _sector_terms(_block_sums(family.gram_t, rgs), rgs)
    reports = []
    for p, used, pos, add in zip(probs.tolist(), (rgs.max(axis=1) + 1).tolist(),
                                 positive.tolist(), additivity.tolist()):
        p = p[:used]
        violated = ([] if pos else ["positivity"]) + (
            ["additivity"] if add > TOLERANCES.consistency else [])
        reports.append(_report(violated, max(max(p) - 1.0, add, 0.0), p))
    return reports


def _decide(family: BaseFamily, rgs: np.ndarray) -> list[Window]:
    """The coarse grainings of ``family`` by the rows of ``rgs``, strings that
    pass ``_labels``, decided in both pictures (see the module docstring) with
    one block-sum call per Gram matrix for the whole stack.  The sector report
    holds <x_i, T x_i>, the operator report Re d(x_i, x_i)."""
    d_sums = _block_sums(family.gram_d, rgs)
    cross = _cross(d_sums)
    norms = np.diagonal(_block_sums(family.gram_e, rgs), axis1=1, axis2=2)
    rows = zip(_sector_reports(family, rgs), rgs.tolist(),
               np.diagonal(d_sums, axis1=1, axis2=2).tolist(), cross.tolist(), norms.tolist())
    windows = []
    for kreport, labels, diag, cr, norm in rows:
        used = len(kreport.probabilities)
        opreport = _report(["re-cross-term"] if cr > TOLERANCES.consistency else [], cr,
                           diag[:used])
        windows.append(Window(family=family, labels=tuple(labels), kreport=kreport,
                              opreport=opreport, squared_norms=tuple(norm[:used])))
    return windows


def window(family: BaseFamily, labels) -> Window:
    """The coarse graining ``labels`` of ``family``, decided in both pictures
    (see :func:`_decide`)."""
    return _decide(family, _labels(family, labels)[None])[0]


def check_window(family: BaseFamily, labels) -> ConsistencyReport:
    """``window(family, labels).kreport``, the sector-picture verdict on the
    probabilities <x_i, T x_i>, read from the G_T block sums alone."""
    return _sector_reports(family, _labels(family, labels)[None])[0]


def refinements(windows: Sequence[Window]) -> np.ndarray:
    """The refinement order of ``windows``, which share a sector (else
    ``ValueError``, "sector mismatch"): [i, j] is True when ``windows[j]`` has
    more members than ``windows[i]`` (else it would match a consistent i one
    to one) and each member of i is a sum of members of j.  Members are
    nonzero orthogonal projectors summing to e, so it is when the largest
    overlap of every member y of j with a member of i reaches <y, y>, their
    sum.  A family's windows share their members (at most 2^N - 1), and each
    enters the overlaps once, formed for a block of coarse windows at a time.
    """
    if not windows:
        return np.zeros((0, 0), dtype=bool)
    space = windows[0].space.require(*windows)
    counts = np.array([len(w.members) for w in windows])
    starts = np.cumsum(counts) - counts  # each window's first member
    ids = {}  # the bytes of each distinct member, numbered as they first appear
    index = np.array([ids.setdefault(x.op.tobytes(), len(ids)) for w in windows for x in w.members])
    vecs = np.frombuffer(b"".join(ids), dtype=complex).reshape(len(ids), -1)
    out = np.empty((len(windows), len(windows)), dtype=bool)
    pieces = min(len(windows), -(-len(index) * (len(vecs) + len(windows)) // (1 << 22)))
    for block in np.array_split(np.arange(len(windows)), pieces):  # coarse windows i
        lo, hi = starts[block[0]], starts[block[-1]] + counts[block[-1]]
        overlaps = (vecs.conj() @ vecs[index[lo:hi]].T).real / space.op_dim
        norms = np.add.reduceat(overlaps, starts[block] - lo, axis=1)  # [y, i]: <y, y>
        nearest = np.maximum.reduceat(overlaps, starts[block] - lo, axis=1)
        under = norms - nearest <= TOLERANCES.consistency
        out[block] = (np.logical_and.reduceat(under[index], starts, axis=0).T
                      & (counts[block, None] < counts))
    return out


@functools.cache
def _submasks(n: int) -> tuple[np.ndarray, ...]:
    """The nonempty submasks S of every n-bit mask F, 3^n - 2^n entries in
    all: mask F has ``count[F]`` of them, from ``table[start[F]]`` on, and the
    k-th keeps the set bits of F whose rank among them is a set bit of k.
    ``after[j]`` masks the bits above the lowest bit of ``table[j]`` that it
    leaves clear, and ``bits[S]`` is the mask S as n booleans."""
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1 == 1
    count = (1 << bits.sum(axis=1)) - 1
    start = np.cumsum(count) - count
    owner = np.repeat(masks, count)
    k = np.arange(len(owner)) - start[owner] + 1
    table = np.zeros_like(owner)
    rank = np.zeros_like(owner)
    for i in range(n):
        bit = (owner >> i) & 1
        table |= ((k >> rank) & bit) << i
        rank += bit
    out = count, start, table, ~table & -(table & -table), bits
    for a in out:  # shared by every later call
        a.flags.writeable = False
    return out


class _Children:
    """The children of a batch of parents in the refinement tree, handed out
    in pieces.

    A parent string a with b blocks, whose label b - 1 first appears at
    position m, has one child per nonempty subset S of its free positions
    {i > m : a[i] = 0}: a with S relabelled b, whose own free positions are
    those of a after min(S) and outside S.  A row of the walk is a string
    followed by its free positions as a bit mask and by b, so a batch needs
    no scan of its strings: its children are numbered consecutively, and any
    range of them is generated in numpy from the table of :func:`_submasks`.
    """

    def __init__(self, parents: np.ndarray):
        self.n = parents.shape[1] - 2
        count, start, self.table, self.after, self.bits = _submasks(self.n)
        counts = count[parents[:, -2]]
        self.ends = np.cumsum(counts)
        # table index of each parent's child 0, minus that child's number
        self.first = start[parents[:, -2]] - self.ends + counts
        self.parents, self.taken, self.total = parents, 0, int(self.ends[-1])

    @property
    def left(self) -> int:
        return self.total - self.taken

    def take(self, k: int) -> np.ndarray:
        """The rows of the next (at most) k children."""
        index = np.arange(self.taken, min(self.taken + k, self.total))
        self.taken += len(index)
        owner = np.searchsorted(self.ends, index, side="right")
        entry = self.first[owner] + index
        rows = self.parents[owner]
        np.copyto(rows[:, :-2], rows[:, -1:], where=self.bits[self.table[entry]])
        rows[:, -2] &= self.after[entry]
        rows[:, -1] += 1
        return rows


def _walk(n: int, score: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
          ) -> Iterator[np.ndarray]:
    """Walk the refinement tree of the restricted-growth strings of length n
    and yield ``piece[keep]`` for every piece of strings it scores,
    where ``keep, expand = score(piece)`` are row masks; only the rows
    ``expand`` selects have their children visited.

    The root is the one-block string 0...0, and every other string is the
    child (:class:`_Children`) of the string that relabels its largest block
    0, a coarsening of it, so an unpruned walk visits each string once.
    Children are packed into pieces of ``_SCREEN_CHUNK`` strings, drawn from
    the newest batch of parents first.  The stack of batches holds fewer than
    n of them, each of at most ``_SCREEN_CHUNK`` parents, because the fewest
    blocks of any parent in a batch exceed those of every batch below it;
    so memory does not grow with the Bell number.
    """
    stack: list[_Children] = []
    piece = np.array([[0] * n + [((1 << n) - 1) & ~1, 1]])  # the root, free after position 0
    while len(piece):
        keep, expand = score(piece[:, :n])
        yield piece[keep, :n]
        if expand.any():
            children = _Children(piece[expand])
            if children.left:
                stack.append(children)
        parts, room = [], _SCREEN_CHUNK
        while stack and room:
            parts.append(stack[-1].take(room))
            room -= len(parts[-1])
            if not stack[-1].left:
                stack.pop()
        piece = np.concatenate(parts) if parts else piece[:0]


def partition_windows(family: BaseFamily) -> Iterator[Window]:
    """Every coarse graining of ``family``, decided in both pictures, in the
    order of the refinement walk with nothing pruned (each string once), in
    stacks of at least ``_SCREEN_CHUNK`` strings but the last."""
    stack: list[np.ndarray] = []
    for piece in _walk(len(family.ops), lambda rgs: (np.ones(len(rgs), dtype=bool),) * 2):
        stack.append(piece)
        if sum(map(len, stack)) >= _SCREEN_CHUNK:
            yield from _decide(family, np.concatenate(stack))
            stack = []
    if stack:
        yield from _decide(family, np.concatenate(stack))


def _screen(g: np.ndarray) -> Iterator[np.ndarray]:
    """The strings that pass the sector picture on the Gram matrix ``g`` (the
    tests of ``check_window``), a piece at a time, from a walk of the
    refinement tree that expands a string only while its additivity residual
    is at most 2·N²·tol: above that bound no refinement is additive (see the
    module docstring)."""
    n = len(g)
    margin = 2 * n * n * TOLERANCES.consistency

    def score(rgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, positive, additivity = _sector_terms(_block_sums(g, rgs), rgs)
        return positive & (additivity <= TOLERANCES.consistency), additivity <= margin

    return _walk(n, score)


def search_windows(t: WrightOperator,
                   pvms: Sequence[Sequence[Sequence[np.ndarray]]]) -> list[Window]:
    """Enumerate consistent coarse grainings of product-history families.

    ``pvms[k]`` lists the alternative projector decompositions offered at
    the k-th support time of ``t``.  Every choice of one decomposition per
    time, transported to the Heisenberg picture, builds one base family.
    Each decomposition ``pvms[k][j]`` is checked once, when the first family
    containing it is built, and refused, named, unless its elements are
    projectors summing to the identity.

    The screen (see the module docstring) walks the restricted-growth
    strings of each family on its G_T.  ``check_window`` reads the G_T sums
    of every string it keeps, in lexicographic order, so deduplication keeps
    the window an exhaustive screen in string order would.  The consistent
    ones are decided, and their members formed, in stacks of at most
    ``_SCREEN_CHUNK``, and each key is read from one rounded copy of a stack.

    Returns the consistent windows, deduplicated, largest first, with ties
    broken by a canonical byte key, so the output does not depend on the
    ordering of the supplied decomposition elements.
    """
    space, ds = t.space, t.state
    if len(pvms) != space.n_times:
        raise ValueError("need one decomposition list per support time")
    if any(len(klists) == 0 for klists in pvms):
        raise ValueError("each time needs at least one decomposition")

    @functools.cache
    def checked(k: int, j: int) -> np.ndarray:
        """``pvms[k][j]``, checked once per search, then transported."""
        ops = _decomposition(pvms[k][j], f"pvms[{k}][{j}]", space.dim_single)
        return heisenberg(ds.model, ops, space.support[k], ds.grid.t0)

    results: dict[tuple[bytes, ...], Window] = {}
    for choice in itertools.product(*(range(len(klists)) for klists in pvms)):
        family = _build_family(t, [checked(k, j) for k, j in enumerate(choice)])
        consistent = []
        for labels in sorted(tuple(row.tolist()) for kept in _screen(family.gram_t)
                             for row in kept):
            if check_window(family, labels).consistent:  # the screen's sums may round apart
                consistent.append(labels)
        rgs = np.array(consistent, dtype=np.intp).reshape(-1, len(family.ops))
        for piece in np.split(rgs, range(_SCREEN_CHUNK, len(rgs), _SCREEN_CHUNK)):
            stack, cuts = _member_stack(family.ops, piece)
            rounded = np.round(stack, 9) + 0.0  # the key: members to 1e-9, no -0.0
            for cand, members, keyed in zip(_decide(family, piece), np.split(stack, cuts),
                                            np.split(rounded, cuts)):
                key = tuple(sorted(x.tobytes() for x in keyed))
                if key not in results:  # fill the cached property from the stack
                    cand.__dict__["members"] = tuple(
                        Proposition(space=space, factors=(x,)) for x in members)
                    results[key] = cand

    return [results[key] for key in sorted(results, key=lambda key: (-len(key), key))]


def scenario_windows(scn: Scenario) -> list[Window]:
    """Decided windows of the scenario's decompositions; the one path of
    ``verify``, ``windows`` and ``entropy``.  ``ScenarioError`` without
    decompositions, ``CapacityError`` over ``SECTOR_CAP`` (the families' cap too)."""
    if not scn.pvms:
        raise ScenarioError("pvms", "scenario defines no decompositions to search")
    ds = DecoherenceState(model=scn.model, grid=scn.grid)
    t = wright_operator(ds, scn.grid.times[:len(scn.pvms)])
    return search_windows(t, scn.pvms)
