"""Slow reference implementations that the program's fast paths are tested against.

* :func:`check_window` and :func:`check_operator_picture` decide a window from
  its member matrices, measuring every condition again (orthogonality,
  completeness, projectivity and every pairwise overlap), where the program
  reads block sums of its base family's two Gram matrices.
* :func:`restricted_growth_strings` is the loop that generates the set
  partitions one string at a time in lexicographic order, where the program
  walks the refinement tree in numpy.
* :func:`screen_exhaustive` scores every restricted-growth string of a Gram
  matrix in lexicographic chunks of that loop, where the program's screen
  walks the refinement tree and skips the refinements of strings far from
  additive.
* :func:`is_refinement` decides one pair: it assigns each fine member to the
  coarse member it overlaps most and sums the blocks, where the program
  decides every pair of a window list by projector containment, from one
  overlap matrix of all their members (``consistency.refinements``).
* :func:`apply` is T x from the Wright operator's matrix on vectorised
  operators, which the program only reads through quadratic forms.
* :func:`p_norm` is the normalised Schatten p-norm of any operator from its
  singular values, where the program reads ||x||_p^2 = <x, x>^(2/p) of a
  projector from its squared norm.
* :func:`eigen_form` writes a proposition's dense operator in the state's
  eigenbasis with one Kronecker power, where the program writes each factor
  in the eigenbasis of its own times.
* :func:`basis_sum_dense` is the basis-expansion sum as one 2n-index
  contraction of two dense dim^n x dim^n eigenbasis forms, each the Kronecker
  product of its factors' forms, where the program reads dim^(n+1) entries
  of each form.
* :func:`kron_family` builds a base family's elements one Kronecker product
  at a time, where the program multiplies the factor stacks out in one
  broadcast per time.
* :func:`haar_unitary`, :func:`random_projector` and :func:`random_pvm` draw
  and resolve one Haar unitary per call, each with its own QR, where the
  program resolves a stack of Gaussian matrices with one stacked QR.
* :func:`kron_product` is the Kronecker product by ``np.kron``, one factor at
  a time, where the program forms one broadcast outer product per factor.
* :class:`History` is a homogeneous history as (time, projector) pairs,
  built by :func:`history`, which checks each projector on its own, where
  the program holds a scenario's histories as one stack (count, n, dim, dim)
  on the grid times.
* :func:`d_trace` is the chain form of one pair of histories: each history
  reduced to its support (its entries that are not the identity), its chain
  built by :func:`chain` from one ``heisenberg`` call per projector, then the
  scalar trace, where the program transports history stacks once per time,
  multiplies their chains out by batched matmuls (``histories.chains``) and
  reads every pair from one chain Gram matrix.
* :func:`is_hermitian` and :func:`is_projector` decide one matrix at a time, where the program
  decides a stack of them with one call.
* :func:`eigen_slice` forms each factor's eigenbasis form by its own
  product, where the program forms those of all one-time factors in one
  stacked product.
* :func:`members` forms each member of a window by its own ``np.sum`` and
  :func:`window_key` rounds and serialises them one at a time, where the
  program builds and keys the members of a stack of strings at once.
* :func:`hermitian_basis` and :func:`ils_expansion` build the doubled-space
  operator as sum_ab d(G_a, G_b) G_a (x) G_b over a Hermitian basis {G_a}
  orthonormal under tr(A B), where the program reorders the functional's
  Gram matrix on the matrix units.
* :func:`ils_pair_value` contracts tr((p (x) q) X) for one pair of
  operators, where the program contracts a stack of pairs in one einsum.
* :func:`reals`, :func:`complex_array` and :func:`projector_specs` check and
  convert a scenario's arrays and projector specs one list and one spec at a
  time, where the parser flattens nested lists and converts the matrix specs
  of a list together.  :func:`parse_histories` reads a scenario's histories
  one at a time, each history's specs before the next history's structure,
  where the parser checks every history's structure first and then reads all
  their specs as one list into one stack.
* :func:`evolve` and :func:`heisenberg` form the unitary of one time and move
  one operator by it, where the program evolves to all distinct times of a
  stack by one call and moves the stack by one batched product.
* :func:`embed` transports one history, each projector by its own
  :func:`heisenberg`, where ``decohere`` moves a scenario's stack of
  histories with one evolution call.
* :func:`unit_proposition` is the identity on a sector's tensor space, which
  no program path builds.
* :func:`contract` is the basis-sum contraction of two slices as one
  unoptimised ``einsum``, where the program forms the terms by one matmul
  over the first and last indices.
* :func:`d_form` and :func:`probability` evaluate the chain form and the
  quadratic form on one pair or one proposition, which no program path needs.
* :func:`random_operator` draws the real and the imaginary part of a Gaussian
  matrix by two calls, where the program draws a stack of them by one.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from histq.consistency import ConsistencyReport, Window, _block_sums, _sector_terms
from histq.core import (TOLERANCES, SystemModel, max_abs, named_basis, projector_onto,
                        tensor_product)
from histq.decoherence import DecoherenceState, IlsOperator, d_gram
from histq.histories import Proposition, PropositionSpace, proposition
from histq.propositions import WrightOperator, hs_inner, probabilities
from histq.scenario import ScenarioError, _is_int


@dataclass(frozen=True)
class History:
    """Ordered (time, projector) pairs; no pairs is the unit history."""

    items: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if any(b <= a for (a, _), (b, _) in zip(self.items, self.items[1:])):
            raise ValueError("history times must be strictly increasing")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.items)


def history(entries: Mapping[float, np.ndarray]) -> History:
    """A history from a time -> projector mapping, each projector copied and
    checked by :func:`is_projector`; ``ValueError`` on a non-projector."""
    items = tuple(sorted(((float(t), np.array(p, dtype=complex)) for t, p in entries.items()),
                         key=lambda tp: tp[0]))
    for t, p in items:
        if not is_projector(p):
            raise ValueError(f"history entry at time {t!r} is not a projector")
    return History(items)


def random_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A complex Gaussian matrix from two draws: the real part, then the imaginary part."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def evolve(model: SystemModel, t: float, t0: float = 0.0) -> np.ndarray:
    """U(t, t0) = exp(-i H (t - t0)) at one time, from the eigendecomposition of H."""
    phases = np.exp(-1j * model.energies * (t - t0))
    return (model.energy_basis * phases) @ model.energy_basis.conj().T


def heisenberg(model: SystemModel, a: np.ndarray, t: float, t0: float = 0.0) -> np.ndarray:
    """U(t, t0)^dag A U(t, t0) of one operator at one time, by its own :func:`evolve`."""
    u = evolve(model, t, t0)
    return u.conj().T @ np.asarray(a, dtype=complex) @ u


def embed(model: SystemModel, h: History,
          support: Sequence[float] | None = None, t0: float = 0.0) -> Proposition:
    """One history's Heisenberg-transported projectors, each by its own
    :func:`heisenberg`, as the factors of a proposition on ``support``
    (default: its own times); each missing time an exact identity."""
    space = PropositionSpace(support=h.times if support is None else support,
                             dim_single=model.dim)
    if not set(h.times) <= set(space.support):
        raise ValueError("support does not contain the history's times")
    moved = {t: heisenberg(model, p, t, t0) for t, p in h.items}
    eye = np.eye(model.dim, dtype=complex)
    return Proposition(space=space, factors=tuple(moved.get(t, eye) for t in space.support))


def unit_proposition(space: PropositionSpace) -> Proposition:
    """The always-true proposition e: the identity on the sector's tensor space."""
    return Proposition(space=space, factors=(np.eye(space.op_dim, dtype=complex),))


def contract(ds: DecoherenceState, sp: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """sum_{a, b, J, K} w[a] conj(sp)[..., a, b, K] sq[..., a, b, J], one value per
    pair of slices, by one unoptimised ``einsum``."""
    left = sp.conj() * np.asarray(ds.model.weights)[:, None, None]
    return np.einsum("...abj,...abk->...", left, sq)


def reals(node) -> bool:
    """True for a finite JSON number or nested lists of them, one list at a time."""
    if isinstance(node, list):
        return all(map(reals, node))
    return (_is_int(node) or isinstance(node, float)) and abs(node) <= sys.float_info.max


def complex_array(node, shape: tuple[int, ...], path: str) -> np.ndarray:
    """One object of 'real' (and optional 'imag') arrays as a complex array of
    ``shape``; ``ScenarioError`` under ``path`` naming the first failed check."""
    if not isinstance(node, dict) or "real" not in node:
        raise ScenarioError(path, "expected an object with 'real' (and optional 'imag') arrays")
    if not (reals(node["real"]) and reals(node.get("imag", []))):
        raise ScenarioError(path, "entries must be finite JSON numbers")
    try:
        real = np.asarray(node["real"], dtype=float)
        imag = np.asarray(node["imag"], dtype=float) if "imag" in node else np.zeros_like(real)
    except ValueError as exc:  # ragged lists
        raise ScenarioError(path, f"not numeric arrays: {exc}") from None
    if real.shape != imag.shape:
        raise ScenarioError(path, "'real' and 'imag' shapes differ")
    m = real + 1j * imag
    if m.shape != shape:
        raise ScenarioError(path, f"expected shape {shape}, got {m.shape}")
    return m


def projector_specs(specs: Sequence, dim: int, paths: Sequence[str]) -> list[np.ndarray]:
    """A spec list's matrices, each spec converted on its own (a matrix spec by
    its own :func:`complex_array` call) and checked by ``is_projector``;
    ``ScenarioError`` under the first refused one's path."""
    built = []
    for node, path in zip(specs, paths):
        if not isinstance(node, dict):
            raise ScenarioError(path, "expected an object")
        if node.get("identity"):
            built.append((np.eye(dim, dtype=complex), None))
        elif "matrix" in node:
            built.append((complex_array(node["matrix"], (dim, dim), f"{path}.matrix"),
                          f"{path}.matrix"))
        elif "basis" in node:
            try:
                basis = named_basis(node["basis"], dim)
            except ValueError as exc:
                raise ScenarioError(f"{path}.basis", str(exc)) from None
            key = "index" if "index" in node else "indices"
            if key not in node:
                raise ScenarioError(path, "basis projector needs 'index' or 'indices'")
            indices = [node["index"]] if key == "index" else node["indices"]
            if not isinstance(indices, list):
                raise ScenarioError(f"{path}.{key}", "expected a list of integers")
            for i in indices:
                if not _is_int(i) or not 0 <= i < dim:
                    raise ScenarioError(f"{path}.{key}",
                                        f"basis index {i!r} is not an integer in [0, {dim})")
            built.append((projector_onto(basis[:, indices]), f"{path}.basis"))
        else:
            raise ScenarioError(path, "unknown projector spec (need identity/matrix/basis)")
    for p, path in built:
        if path and not is_projector(p):
            raise ScenarioError(path, "not a projector within the projector "
                                      f"bound {TOLERANCES.projector:g}")
    return [p for p, _ in built]


def parse_histories(nodes: list, times: tuple[float, ...],
                    dim: int) -> list[tuple[str, History]]:
    """A scenario's history objects one at a time: each one's structure, then its
    spec list by :func:`projector_specs`; ``ScenarioError`` at the first refusal."""
    out = []
    for i, node in enumerate(nodes):
        hpath = f"histories[{i}]"
        if not isinstance(node, dict):
            raise ScenarioError(hpath, "expected an object")
        label = node.get("label", f"h{i}")
        if not isinstance(label, str):
            raise ScenarioError(f"{hpath}.label", "expected a string")
        if label in (seen for seen, _ in out):
            raise ScenarioError(f"{hpath}.label", f"repeats the label {label!r}")
        if "projectors" not in node:
            raise ScenarioError(f"{hpath}.projectors", "missing field")
        specs = node["projectors"]
        if not isinstance(specs, list) or len(specs) != len(times):
            raise ScenarioError(f"{hpath}.projectors",
                                f"need one projector spec per time ({len(times)})")
        matrices = projector_specs(specs, dim, [f"{hpath}.projectors[{k}]"
                                                for k in range(len(specs))])
        out.append((label, History(tuple(zip(times, matrices)))))
    return out


def d_form(ds: DecoherenceState, b1: Proposition, b2: Proposition) -> complex:
    """tr(pi(b1)^dag rho pi(b2)) of one pair on a common support, from the dense
    operators' chain-map images."""
    if b1.space != b2.space:
        raise ValueError("mixed temporal support")
    if b1.space.dim_single != ds.model.dim:
        raise ValueError("sector mismatch")
    return complex(d_gram(ds, np.stack((b1.op, b2.op)), b1.n_times)[0, 1])


def probability(t: WrightOperator, x: Proposition) -> float:
    """The quadratic form <x, T x> of one proposition."""
    t.space.require(x)
    return float(probabilities(t, x.op[None])[0])


def restricted_growth_strings(n):
    """All restricted-growth strings of length n in lexicographic order, one
    tuple at a time."""
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


def screen_exhaustive(g: np.ndarray, chunk: int = 256):
    """The strings that pass the sector picture on the Gram matrix ``g``, one
    array per chunk of ``chunk`` strings from :func:`restricted_growth_strings`:
    every string scored."""
    strings = restricted_growth_strings(len(g))
    while rows := list(itertools.islice(strings, chunk)):
        rgs = np.array(rows, dtype=np.intp)
        _, positive, additivity = _sector_terms(_block_sums(g, rgs), rgs)
        yield rgs[positive & (additivity <= TOLERANCES.consistency)]


def kron_family(factors: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """The Kronecker products of one element per decomposition, first
    decomposition slowest, each built by ``np.kron``."""
    return np.array([functools.reduce(np.kron, combo) for combo in itertools.product(*factors)])


def kron_product(ops: Sequence[np.ndarray]) -> np.ndarray:
    """The Kronecker product of ``ops`` in listed order, by ``np.kron``."""
    return functools.reduce(np.kron, [np.asarray(op, dtype=complex) for op in ops])


def chain(model: SystemModel, h: History, t0: float = 0.0) -> np.ndarray:
    """The chain of ``h``: its projectors, each moved by its own ``heisenberg``
    call, multiplied in time order by one matmul each; the identity when
    ``h`` has no time."""
    out = np.eye(model.dim, dtype=complex)
    for k, (t, p) in enumerate(h.items):
        moved = heisenberg(model, p, t, t0)
        out = moved if k == 0 else out @ moved
    return out


def d_trace(ds: DecoherenceState, h: History, k: History) -> complex:
    """tr(C(h)^dag rho C(k)), each chain built from its history's support: the
    entries farther than the equality bound from the identity."""
    def support(x: History) -> History:
        return History(tuple((t, p) for t, p in x.items if max_abs(p - np.eye(len(p)))
                             > TOLERANCES.equality * max(max_abs(p), 1.0)))

    ch, ck = (chain(ds.model, support(x), ds.grid.t0) for x in (h, k))
    return complex(np.trace(ch.conj().T @ ds.model.rho @ ck))


def is_hermitian(a: np.ndarray) -> bool:
    """The Hermitian rule on one matrix: within the hermitian bound times its
    largest entry (at least 1)."""
    scale = max(float(np.abs(a).max(initial=0.0)), 1.0)
    return float(np.abs(a - a.conj().T).max(initial=0.0)) <= TOLERANCES.hermitian * scale


def is_projector(p: np.ndarray) -> bool:
    """The projector rule on one matrix: Hermitian, then idempotent within the
    absolute projector bound."""
    return is_hermitian(p) and float(np.abs(p @ p - p).max(initial=0.0)) <= TOLERANCES.projector


def hermitian_basis(k: int) -> np.ndarray:
    """Stack of k^2 Hermitian matrices, orthonormal under tr(A B).

    Order: diagonal units, then for each pair i < j the symmetric and the
    antisymmetric combination.
    """
    mats = []
    for i in range(k):
        m = np.zeros((k, k), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(k):
        for j in range(i + 1, k):
            m = np.zeros((k, k), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
            m = np.zeros((k, k), dtype=complex)
            m[i, j] = -1j / np.sqrt(2.0)
            m[j, i] = 1j / np.sqrt(2.0)
            mats.append(m)
    return np.stack(mats)


def ils_expansion(ds: DecoherenceState, support: Sequence[float]) -> np.ndarray:
    """X = sum_ab d(G_a, G_b) G_a (x) G_b over :func:`hermitian_basis` of the
    support sector, as a k^2 x k^2 matrix X[(i, k), (j, l)]."""
    k = ds.model.dim ** len(support)
    basis = hermitian_basis(k)
    values = d_gram(ds, basis, len(support))  # values[a, b] = d(G_a, G_b)
    mixed = np.einsum("ab,aij,bkl->ikjl", values, basis, basis, optimize=True)
    return mixed.reshape(k * k, k * k)


def ils_pair_value(x: IlsOperator, p: np.ndarray, q: np.ndarray) -> complex:
    """tr((p (x) q) X) for one pair of k x k operators, contracted on X's four
    k-dimensional slots X[(i, k), (j, l)]."""
    k = x.space.op_dim
    return complex(np.einsum("ji,lk,ikjl->", p, q, x.xd.reshape((k,) * 4)))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One Haar unitary by QR plus phase fix, from one Gaussian draw."""
    q, r = np.linalg.qr(random_operator(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """A projector of the given or a random rank: the rank, then one Haar unitary."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    return projector_onto(haar_unitary(rng, dim)[:, :rank])


def random_pvm(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    """The rank-1 projectors onto the columns of one Haar unitary."""
    u = haar_unitary(rng, dim)
    return [projector_onto(u[:, [i]]) for i in range(dim)]


def partitions(items: Sequence):
    """(string, blocks) for every set partition of ``items``, in string order."""
    for rgs in restricted_growth_strings(len(items)):
        yield rgs, [[x for x, v in zip(items, rgs) if v == block]
                    for block in range(max(rgs, default=-1) + 1)]


def members(space, base: Sequence[np.ndarray], rgs) -> list[Proposition]:
    """The block sums of ``base`` grouped by the string ``rgs``."""
    return [proposition(space, np.sum([op for op, v in zip(base, rgs) if v == block], axis=0))
            for block in range(max(rgs) + 1)]


def window_key(w) -> tuple[bytes, ...]:
    """The dedup and tie-break key of a window: the bytes of each member
    rounded to 1e-9 (without -0.0), one member at a time, sorted."""
    return tuple(sorted((np.round(np.asarray(x.op, dtype=complex), 9) + 0.0).tobytes()
                        for x in w.members))


def apply(t: WrightOperator, x: Proposition) -> Proposition:
    """T x, with T acting on column-major vectorised operators."""
    t.space.require(x)
    k = t.space.op_dim
    vec = t.matrix @ x.op.flatten(order="F")
    return Proposition(space=t.space, factors=(vec.reshape((k, k), order="F"),))


def p_norm(x: Proposition, p: float) -> float:
    """(tr((x^dag x)^(p/2)) / tr(1))^(1/p), computed from singular values."""
    if p < 1:
        raise ValueError("p must be >= 1")
    sv = np.linalg.svd(x.op, compute_uv=False)
    return float((np.sum(sv ** p) / x.space.op_dim) ** (1.0 / p))


def eigen_form(x: Proposition, psi: np.ndarray) -> np.ndarray:
    """E(x) = Psi^dag x Psi with Psi = psi^(x n), from the dense operator of ``x``."""
    big = tensor_product([psi] * x.n_times)
    return big.conj().T @ x.op @ big


def factor_form(x: Proposition, psi: np.ndarray) -> np.ndarray:
    """E(x) = (x)_f Psi_f^dag f Psi_f over the factors f of ``x``, where
    Psi_f = psi^(x m_f) for a factor on m_f times."""
    forms = []
    for f in x.factors:
        big = psi
        while len(big) < len(f):
            big = np.kron(big, psi)
        forms.append(big.conj().T @ f @ big)
    return tensor_product(forms)


def eigen_slice(x: Proposition, psi: np.ndarray) -> np.ndarray:
    """S(x)[a, b, J] = E(x)[(a, J), (J, b)] of :func:`factor_form`, built one
    factor at a time: the partial diagonal of each factor's own form, joined
    to the previous factors by an outer product on the shared index."""
    dim = len(psi)
    out = None
    for f in x.factors:
        big = psi
        while len(big) < len(f):
            big = np.kron(big, psi)
        inner = len(f) // dim
        part = np.einsum("ajjb->ajb", (big.conj().T @ f @ big).reshape(dim, inner, inner, dim))
        out = part if out is None else (out[..., None, None] * part).reshape(dim, -1, dim)
    return np.ascontiguousarray(out.transpose(0, 2, 1))


def basis_sum_dense(ds: DecoherenceState, p: Proposition, q: Proposition) -> complex:
    """sum_j w[j_1] conj(E(p))[j_1, j_2n..j_(n+2); j_2n..j_(n+1)] E(q)[j_1..j_n; j_2..j_(n+1)]
    over all 2n indices, with E from :func:`factor_form` in the rho eigenbasis."""
    n = p.n_times
    psi = np.asarray(ds.model.vectors, dtype=complex)
    rows_p = list(range(2 * n - 1, n - 1, -1))
    cols_p = [0] + rows_p[:-1]
    rows_q, cols_q = list(range(n)), list(range(1, n + 1))
    axes = [ds.model.dim] * (2 * n)
    return complex(np.einsum(ds.model.weights, [0],
                             factor_form(p, psi).conj().reshape(axes), cols_p + rows_p,
                             factor_form(q, psi).reshape(axes), rows_q + cols_q, []))


def is_refinement(fine: Window, coarse: Window) -> bool:
    """True when every coarse member is the sum of a block of fine members:
    each fine member y goes to the coarse member x with the largest
    <y, x>/<y, y> (at least 1/2), and every block must sum to its x."""
    coarse.space.require(fine)
    blocks: dict[int, list[Proposition]] = {i: [] for i in range(len(coarse.members))}
    for y in fine.members:
        normsq = hs_inner(y, y).real
        if normsq <= TOLERANCES.strict_positive:
            return False
        scores = [hs_inner(y, x).real / normsq for x in coarse.members]
        owner = int(np.argmax(scores))
        if scores[owner] < 0.5:
            return False
        blocks[owner].append(y)
    for i, x in enumerate(coarse.members):
        total = sum((y.op for y in blocks[i]), np.zeros_like(x.op))
        if max_abs(total - x.op) > TOLERANCES.consistency:
            return False
    return True


def _bound(name, residual, violated, residuals):
    residuals.append(residual)
    if residual > TOLERANCES.consistency:
        violated.append(name)


def _pair_max(measure, items, floor=0.0):
    """Largest ``measure(a, b)`` over the pairs a before b of ``items``, at least ``floor``."""
    pairs = itertools.combinations(items, 2)
    return max(itertools.chain([floor], itertools.starmap(measure, pairs)))


def _structure(ws: Sequence[Proposition], overlap):
    """Pairwise orthogonality under ``overlap`` and completeness (sum = e)."""
    violated, residuals = [], []
    _bound("orthogonality", _pair_max(overlap, ws), violated, residuals)
    eye = np.eye(ws[0].space.op_dim)
    _bound("completeness", max_abs(sum(x.op for x in ws) - eye), violated, residuals)
    return violated, residuals


def _verdict(violated, residuals, probs):
    return ConsistencyReport(verdict="consistent" if not violated else "inconsistent",
                             violated=tuple(violated), max_residual=max(residuals),
                             probabilities=tuple(probs))


def check_window(ws: Sequence[Proposition], t: WrightOperator) -> ConsistencyReport:
    """Sector-picture consistency from the member matrices ``ws``."""
    t.space.require(*ws)
    violated, residuals = _structure(ws, lambda x, y: abs(hs_inner(x, y)))
    probs = [probability(t, x) for x in ws]
    if any(p <= TOLERANCES.strict_positive or p > 1.0 + TOLERANCES.consistency for p in probs):
        violated.append("positivity")
    residuals.append(max([p - 1.0 for p in probs if p > 1.0], default=0.0))
    pairs = [(x, apply(t, x)) for x in ws]  # (x_i, T x_i)
    add = _pair_max(lambda a, b: abs(hs_inner(a[0], b[1]).real), pairs, abs(sum(probs) - 1.0))
    _bound("additivity", add, violated, residuals)
    return _verdict(violated, residuals, probs)


def check_operator_picture(ds: DecoherenceState, ws: Sequence[Proposition]) -> ConsistencyReport:
    """Operator-picture consistency from the member matrices ``ws``."""
    if not all(is_projector(x.op) for x in ws):
        raise ValueError("non-projector member")
    violated, residuals = _structure(ws, lambda x, y: max_abs(x.op @ y.op))
    _bound("re-cross-term", _pair_max(lambda a, b: abs(d_form(ds, a, b).real), ws),
           violated, residuals)
    return _verdict(violated, residuals, [d_form(ds, x, x).real for x in ws])
