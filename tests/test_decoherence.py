import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histq.core import SystemModel, TimeGrid, heisenberg, max_abs, tensor_product
import histq.decoherence
from histq.decoherence import (
    CapacityError,
    _contract,
    _slice,
    DecoherenceState,
    chain_gram,
    d_basis_sum,
    d_basis_sums,
    d_gram,
    ils_reconstruct,
    sector_fits,
)
from histq.histories import Proposition, PropositionSpace, chain_map, chains, proposition
from histq.propositions import wright_operator
from histq.sampling import (
    random_hermitian,
    random_model,
    random_operator,
    random_unitary,
)
from histq.verify import _product_histories

import oracles
from helpers import MINUS, P0, PLUS, chain_form, chain_of, qubit_state, state_for
from oracles import History, d_form, embed, history, random_projector, unit_proposition

UNIT = history({})


def sector_op(support, dim, op):
    """``op`` as a proposition of the dim-``dim`` sector over ``support``."""
    return proposition(PropositionSpace(support=support, dim_single=dim), op)


def product_history(rng, ds, n):
    return history({t: random_projector(rng, ds.model.dim)
                    for t in ds.grid.times[:n]})


def _flat(index, dim):
    out = 0
    for i in index:
        out = out * dim + i
    return out


def _basis_sum_loop(ds, x, y, bases=None):
    """The basis expansion as an explicit loop over all dim^(2n) index tuples."""
    dim = ds.model.dim
    n = x.n_times
    psi = ds.model.vectors
    if bases is None:
        aux = {kk: psi for kk in range(2, 2 * n + 1)}
    else:
        aux = {kk: np.asarray(b, dtype=complex) for kk, b in zip(range(2, 2 * n + 1), bases)}
    left_p = [aux[kk] for kk in range(2 * n, n, -1)]
    right_p = [psi] + [aux[kk] for kk in range(2 * n, n + 1, -1)]
    left_q = [psi] + [aux[kk] for kk in range(2, n + 1)]
    right_q = [aux[kk] for kk in range(2, n + 2)]
    pt = tensor_product(left_p).conj().T @ x.op.conj().T @ tensor_product(right_p)
    qt = tensor_product(left_q).conj().T @ y.op @ tensor_product(right_q)
    total = 0.0 + 0.0j
    for j in np.ndindex(*([dim] * (2 * n))):
        # j[k] carries basis index number k+1.
        w = ds.model.weights[j[0]]
        if w == 0.0:
            continue
        row_p = _flat(tuple(j[m] for m in range(2 * n - 1, n - 1, -1)), dim)
        col_p = _flat((j[0],) + tuple(j[m] for m in range(2 * n - 1, n, -1)), dim)
        row_q = _flat(tuple(j[m] for m in range(0, n)), dim)
        col_q = _flat(tuple(j[m] for m in range(1, n + 1)), dim)
        total += w * pt[row_p, col_p] * qt[row_q, col_q]
    return complex(total)


@st.composite
def basis_sum_cases(draw):
    """A state with some zero spectral weights, dense operators and, for the
    loop oracle, optional random auxiliary bases."""
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    rank = draw(st.integers(1, dim))
    weights = np.zeros(dim)
    weights[rng.permutation(dim)[:rank]] = rng.dirichlet(np.ones(rank))
    model = SystemModel.from_spectral(random_hermitian(rng, dim), weights,
                                      random_unitary(rng, dim))
    ds = DecoherenceState(model=model, grid=TimeGrid(times=tuple(range(n))))
    x = sector_op(ds.grid.times, dim, random_operator(rng, dim ** n))
    y = sector_op(ds.grid.times, dim, random_operator(rng, dim ** n))
    bases = ([random_unitary(rng, dim) for _ in range(2 * n - 1)]
             if draw(st.booleans()) else None)
    return ds, x, y, bases


@st.composite
def memo_cases(draw):
    """Product or non-product operands, possibly one object in both slots, two
    states of one dimension with different eigenbases, and a sequence of
    calls on them, each under either state and in either slot order."""
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    states = [state_for(random_model(rng, dim), times=tuple(range(n))) for _ in range(2)]
    ds = states[0]

    def operand():
        if draw(st.booleans()):
            return embed(ds.model, product_history(rng, ds, n), ds.grid.times, ds.grid.t0)
        return sector_op(ds.grid.times, dim, random_operator(rng, dim ** n))

    x = operand()
    y = x if draw(st.booleans()) else operand()
    calls = draw(st.lists(st.tuples(st.sampled_from(states), st.booleans()),
                          min_size=2, max_size=6))
    return x, y, calls


@st.composite
def form_cases(draw):
    """An embedded history on a support that may be wider than its times,
    paired in either order with another history, the unit proposition or a
    dense operator; and each embedded operand's product of transported
    factors, built eagerly."""
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    ds = state_for(random_model(rng, dim), times=tuple(range(n)))
    space = PropositionSpace(support=ds.grid.times, dim_single=dim)
    eager = {}

    def embedded():
        h = history({t: random_projector(rng, dim) for t in ds.grid.times if draw(st.booleans())})
        x = embed(ds.model, h, ds.grid.times, ds.grid.t0)
        eager[x] = tensor_product([heisenberg(ds.model, dict(h.items)[t], t, ds.grid.t0)
                                   if t in h.times else np.eye(dim, dtype=complex)
                                   for t in ds.grid.times])
        return x

    other = {"history": embedded,
             "unit": lambda: unit_proposition(space),
             "dense": lambda: proposition(space, random_operator(rng, dim ** n))}
    pair = (embedded(), other[draw(st.sampled_from(sorted(other)))]())
    return ds, pair[::-1] if draw(st.booleans()) else pair, eager


@st.composite
def dense_oracle_cases(draw):
    """Two operands at dim 1-3 on 1-3 times, each an embedded product
    history, a sum of two of them or a dense one-factor operator; the
    second is the first object itself when the draw says so."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    ds = state_for(random_model(rng, dim), times=tuple(range(n)))

    def embedded():
        return embed(ds.model, product_history(rng, ds, n), ds.grid.times, ds.grid.t0)

    kinds = {"history": embedded,
             "sum": lambda: sector_op(ds.grid.times, dim,
                                      sum(complex(*rng.standard_normal(2)) * embedded().op
                                          for _ in range(2))),
             "dense": lambda: sector_op(ds.grid.times, dim, random_operator(rng, dim ** n))}
    p = kinds[draw(st.sampled_from(sorted(kinds)))]()
    q = p if draw(st.booleans()) else kinds[draw(st.sampled_from(sorted(kinds)))]()
    return ds, p, q


@st.composite
def stacked_pair_cases(draw):
    """Two stacks of 1-4 transported product histories at dim 1-3 on 1-3
    times, some factors the identity, under a state that may have zero
    spectral weights."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    rank = draw(st.integers(1, dim))
    weights = np.zeros(dim)
    weights[rng.permutation(dim)[:rank]] = rng.dirichlet(np.ones(rank))
    model = SystemModel.from_spectral(random_hermitian(rng, dim), weights,
                                      random_unitary(rng, dim))
    ds = DecoherenceState(model=model, grid=TimeGrid(times=tuple(range(n))))
    ps = [np.eye(dim, dtype=complex) if draw(st.booleans()) else random_projector(rng, dim)
          for _ in range(2 * count * n)]
    stack = _product_histories(ds, n, ps)
    return ds, stack[0::2], stack[1::2]


def fresh(x):
    """A cold copy of ``x``: the same factors, so the same route to its form."""
    return Proposition(space=x.space, factors=tuple(f.copy() for f in x.factors))


class TestTraceForm:
    def test_unit_pair_is_one(self):
        ds = qubit_state(np.diag([0.6, 0.4]))
        assert chain_form(ds, UNIT, UNIT) == pytest.approx(1.0, abs=1e-12)
        ident = history({0.0: np.eye(2, dtype=complex)})
        assert chain_form(ds, ident, ident) == pytest.approx(1.0, abs=1e-12)

    def test_born_rule_single_time(self):
        ds = qubit_state(np.diag([1.0, 0.0]))
        h = history({0.0: PLUS})
        assert chain_form(ds, h, h) == pytest.approx(0.5, abs=1e-12)

    def test_two_time_chain(self):
        ds = qubit_state(np.diag([1.0, 0.0]))
        h = history({0.0: PLUS, 1.0: P0})
        assert chain_form(ds, h, h) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_cross_term_vanishes(self):
        ds = qubit_state(np.diag([1.0, 0.0]))
        assert abs(chain_form(ds, history({0.0: PLUS}), history({0.0: MINUS}))) <= 1e-12

    def test_mixed_supports_pad_with_identities(self):
        ds = qubit_state(np.diag([0.6, 0.4]))
        short = history({0.0: P0})
        padded = history({0.0: P0, 1.0: np.eye(2, dtype=complex)})
        assert chain_form(ds, short, padded) == pytest.approx(
            chain_form(ds, short, short), abs=1e-14)

    def test_axioms_on_random_scenarios(self):
        rng = np.random.default_rng(101)
        for dim in (2, 3, 4):
            ds = state_for(random_model(rng, dim), times=(0.0, 0.7, 1.3))
            assert chain_form(ds, UNIT, UNIT) == pytest.approx(1.0, abs=1e-12)
            for _ in range(20):
                n = int(rng.integers(1, 4))
                h = product_history(rng, ds, n)
                k = product_history(rng, ds, n)
                hk = chain_form(ds, h, k)
                assert abs(hk - chain_form(ds, k, h).conjugate()) <= 1e-12
                assert chain_form(ds, h, h).real >= -1e-12


@given(dim=st.integers(2, 3), count=st.integers(0, 4), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_trace_matrix_entries_are_the_trace_form(dim, count, seed):
    # histories on random subsets of the grid, some entries the identity
    rng = np.random.default_rng(seed)
    ds = state_for(random_model(rng, dim), times=(0.0, 0.7, 1.3))
    histories = []
    for _ in range(count):
        times = [t for t in ds.grid.times if rng.random() < 0.7]
        histories.append(history({t: np.eye(dim) if rng.random() < 0.2
                                  else random_projector(rng, dim) for t in times}))
    table = chain_gram(ds, np.array([chain_of(ds, h) for h in histories]).reshape(-1, dim, dim))
    assert table.shape == (count, count)
    for (i, h), (j, k) in itertools.product(enumerate(histories), repeat=2):
        # a GEMM rounds by its shape, so the pair's own 2 x 2 matrix may differ
        # from the m x m one in the last bits
        assert abs(table[i, j] - chain_form(ds, h, k)) <= 1e-15
        assert abs(table[i, j] - oracles.d_trace(ds, h, k)) <= 1e-13
        assert abs(chain_form(ds, h, k) - oracles.d_trace(ds, h, k)) <= 1e-13


@given(dim=st.integers(1, 4), n=st.integers(1, 3), count=st.integers(1, 5),
       seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_chain_gram_of_transported_stacks_is_the_per_history_oracle(dim, n, count, seed):
    # ranks run over 1..dim, so some entries are the identity: the oracle
    # drops their times, and the histories' supports differ
    rng = np.random.default_rng(seed)
    ds = state_for(random_model(rng, dim), times=(0.0, 0.7, 1.3), t0=-0.4)
    ranks = rng.integers(1, dim + 1, size=count * n)
    raw = [random_unitary(rng, dim)[:, :r] for r in ranks]
    raw = np.array([u @ u.conj().T for u in raw]).reshape(count, n, dim, dim)
    gram = chain_gram(ds, chains(_product_histories(ds, n, raw)))
    histories = [History(tuple(zip(ds.grid.times[:n], ps))) for ps in raw]
    assert gram.shape == (count, count)
    for (i, h), (j, k) in itertools.product(enumerate(histories), repeat=2):
        want = oracles.d_trace(ds, h, k)
        assert abs(gram[i, j] - want) <= 1e-13
        assert abs(chain_form(ds, h, k) - want) <= 1e-13


class TestSesquilinearForm:
    def test_unit_is_trace_of_rho(self):
        ds = qubit_state(np.diag([0.6, 0.4]))
        e = embed(ds.model, UNIT, support=(0.0,))
        assert d_form(ds, e, e) == pytest.approx(1.0, abs=1e-12)

    def test_matches_trace_form_on_histories(self):
        rng = np.random.default_rng(7)
        ds = state_for(random_model(rng, 2))
        for _ in range(10):
            h = product_history(rng, ds, 2)
            k = product_history(rng, ds, 2)
            hb = embed(ds.model, h, ds.grid.times, ds.grid.t0)
            kb = embed(ds.model, k, ds.grid.times, ds.grid.t0)
            assert abs(d_form(ds, hb, kb) - chain_form(ds, h, k)) <= 1e-12

    def test_conjugate_linear_first_slot(self):
        rng = np.random.default_rng(8)
        ds = state_for(random_model(rng, 2))
        space = (0.0, 1.0)
        b1 = sector_op(space, 2, random_operator(rng, 4))
        b2 = sector_op(space, 2, random_operator(rng, 4))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        scaled = sector_op(space, 2, alpha * b1.op)
        assert d_form(ds, scaled, b2) == pytest.approx(
            alpha.conjugate() * d_form(ds, b1, b2), abs=1e-10)

    def test_diagonal_nonnegative(self):
        rng = np.random.default_rng(9)
        ds = state_for(random_model(rng, 3))
        for _ in range(10):
            b = sector_op((0.0, 1.0), 3, random_operator(rng, 9))
            assert d_form(ds, b, b).real >= -1e-12

    def test_mixed_support_rejected(self):
        ds = qubit_state(np.diag([0.6, 0.4]))
        b1 = sector_op((0.0,), 2, P0)
        b2 = sector_op((0.0, 1.0), 2, np.kron(P0, P0))
        with pytest.raises(ValueError, match="mixed temporal support"):
            d_form(ds, b1, b2)

    def test_cauchy_schwarz_and_hs_bound(self):
        rng = np.random.default_rng(10)
        for dim in (2, 3):
            ds = state_for(random_model(rng, dim))
            for _ in range(20):
                b1 = sector_op((0.0, 1.0), dim, random_operator(rng, dim * dim))
                b2 = sector_op((0.0, 1.0), dim, random_operator(rng, dim * dim))
                lhs = abs(d_form(ds, b1, b2)) ** 2
                rhs = d_form(ds, b1, b1).real * d_form(ds, b2, b2).real
                assert lhs <= rhs * (1 + 1e-9) + 1e-12
                hs = np.trace(b1.op.conj().T @ b1.op).real
                assert abs(d_form(ds, b1, b1)) <= hs * (1 + 1e-9)


class TestBasisSumForm:
    def test_unit_by_completeness(self):
        ds = qubit_state(np.diag([0.6, 0.4]))
        e = embed(ds.model, UNIT, support=(0.0, 1.0))
        assert d_basis_sum(ds, e, e) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_persistence(self):
        ds = qubit_state(np.diag([1.0, 0.0]))
        psi1 = ds.model.vectors[:, np.argmax(ds.model.weights)]
        proj = np.outer(psi1, psi1.conj())
        b = embed(ds.model, history({0.0: proj}))
        assert d_basis_sum(ds, b, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_trace_form(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3):
            ds = state_for(random_model(rng, dim))
            for n in (1, 2):
                support = ds.grid.times[:n]
                for _ in range(5):
                    h = product_history(rng, ds, n)
                    k = product_history(rng, ds, n)
                    hb = embed(ds.model, h, support, ds.grid.t0)
                    kb = embed(ds.model, k, support, ds.grid.t0)
                    assert abs(d_basis_sum(ds, hb, kb) - chain_form(ds, h, k)) <= 1e-9

    def test_independent_of_auxiliary_bases(self):
        # the eigenbasis sum equals the explicit loop over other auxiliary bases
        rng = np.random.default_rng(12)
        ds = state_for(random_model(rng, 2))
        h = product_history(rng, ds, 2)
        k = product_history(rng, ds, 2)
        hb = embed(ds.model, h, ds.grid.times, ds.grid.t0)
        kb = embed(ds.model, k, ds.grid.times, ds.grid.t0)
        value = d_basis_sum(ds, hb, kb)
        for _ in range(3):
            bases = [random_unitary(rng, 2) for _ in range(3)]
            assert abs(_basis_sum_loop(ds, hb, kb, bases=bases) - value) <= 1e-10

    @given(basis_sum_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_oracle(self, case):
        # the loop in the eigenbasis to 1e-12, in random auxiliary bases to 1e-10
        ds, x, y, bases = case
        tol = 1e-12 if bases is None else 1e-10
        assert abs(d_basis_sum(ds, x, y) - _basis_sum_loop(ds, x, y, bases=bases)) <= tol

    @given(memo_cases())
    @settings(max_examples=40, deadline=None)
    def test_memoised_forms_match_a_cold_call(self, case):
        # the cold call on fresh copies is the unmemoised oracle
        x, y, calls = case
        for ds, swap in calls:
            p, q = (y, x) if swap else (x, y)
            cold_p = fresh(p)
            cold_q = cold_p if q is p else fresh(q)
            assert d_basis_sum(ds, p, q) == d_basis_sum(ds, cold_p, cold_q)

    def test_a_second_state_does_not_read_the_first_states_form(self):
        rng = np.random.default_rng(20)
        first, second = (state_for(random_model(rng, 2)) for _ in range(2))
        x = sector_op(first.grid.times, 2, random_operator(rng, 4))
        values = [d_basis_sum(ds, x, x) for ds in (first, second)]
        assert len(x.eigen_forms) == 2  # one form per eigenbasis
        assert values == [d_basis_sum(ds, fresh(x), fresh(x)) for ds in (first, second)]
        assert [d_basis_sum(ds, x, x) for ds in (first, second)] == values
        assert len(x.eigen_forms) == 2

    @given(dense_oracle_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_contraction(self, case):
        # every dim^(2n) term of the two dense eigenbasis forms, in both
        # slot orders; p is q when the draw says so
        ds, p, q = case
        for a, b in ((p, q), (q, p)):
            assert abs(d_basis_sum(ds, a, b) - oracles.basis_sum_dense(ds, a, b)) <= 1e-12

    def test_states_that_share_an_eigenbasis_share_the_slice_not_the_weights(self):
        # one H and one eigenbasis under two spectra: one memo entry per
        # operand, and each state's value is its own
        rng = np.random.default_rng(22)
        h, psi = random_hermitian(rng, 2), random_unitary(rng, 2)
        states = [state_for(SystemModel.from_spectral(h, w, psi))
                  for w in ([0.7, 0.3], [0.4, 0.6])]
        first = states[0]
        x, y = (embed(first.model, product_history(rng, first, 2), first.grid.times)
                for _ in range(2))
        values = [d_basis_sum(ds, x, y) for ds in states]
        assert [len(x.eigen_forms), len(y.eigen_forms)] == [1, 1]
        for ds, value in zip(states, values):
            assert abs(value - oracles.basis_sum_dense(ds, x, y)) <= 1e-12
        assert abs(values[0] - values[1]) > 1e-3

    def test_later_writes_to_the_callers_array_change_nothing(self):
        rng = np.random.default_rng(21)
        ds = state_for(random_model(rng, 2))
        m = random_operator(rng, 4)
        x = sector_op(ds.grid.times, 2, m)
        value = d_basis_sum(ds, x, x)
        m[:] = np.eye(4)
        assert not np.array_equal(x.op, m)
        assert d_basis_sum(ds, x, x) == value
        assert abs(d_form(ds, x, x) - value) <= 1e-10

    def test_benchmark_shape_matches_trace_form(self):
        rng = np.random.default_rng(18)
        for n in (7, 10):
            ds = state_for(random_model(rng, 2), times=tuple(range(n)))
            for _ in range(2):
                h = product_history(rng, ds, n)
                k = product_history(rng, ds, n)
                hb = embed(ds.model, h, ds.grid.times, ds.grid.t0)
                kb = embed(ds.model, k, ds.grid.times, ds.grid.t0)
                assert abs(d_basis_sum(ds, hb, kb) - chain_form(ds, h, k)) <= 1e-9

    @given(form_cases())
    @settings(max_examples=40, deadline=None)
    def test_factor_forms_match_the_dense_oracle(self, case):
        # the memoised slice from the factors against the entries
        # [(a, J), (J, b)] of Psi^dag x Psi; an embedded history's operator
        # is built only when read, and then equals the eager product
        ds, (p, q), eager = case
        value = d_basis_sum(ds, p, q)
        assert ["op" in vars(x) for x in eager] == [False] * len(eager)
        dim, n = ds.model.dim, p.n_times
        inner = dim ** (n - 1)
        a, b, j = np.meshgrid(range(dim), range(dim), range(inner), indexing="ij")
        for x in (p, q):
            (piece,) = x.eigen_forms.values()
            assert piece.shape == (dim, dim, inner)
            form = oracles.eigen_form(x, ds.model.vectors)
            assert np.max(np.abs(piece - form[a * inner + j, j * dim + b])) <= 1e-12
        for x, product in eager.items():
            assert np.array_equal(x.op, product)
        assert abs(value - _basis_sum_loop(ds, p, q)) <= 1e-12

    @given(form_cases())
    @settings(max_examples=40, deadline=None)
    def test_slices_equal_the_per_factor_oracle(self, case):
        # the one-time forms psi^dag f psi of one stacked product carry the
        # bits of one product per factor
        ds, pair, _ = case
        psi = np.asarray(ds.model.vectors, dtype=complex)
        for x in pair:
            assert np.array_equal(_slice(x, psi), oracles.eigen_slice(x, psi))

    @pytest.mark.parametrize("groups", [(1, 2, 1), (2, 1), (3,), (1, 1, 1)])
    def test_grouped_factor_slices_equal_the_per_factor_oracle(self, groups):
        rng = np.random.default_rng(sum(groups) * 10 + len(groups))
        model = random_model(rng, 2)
        space = PropositionSpace(support=tuple(range(sum(groups))), dim_single=2)
        x = Proposition(space=space, factors=tuple(random_operator(rng, 2 ** m) for m in groups))
        psi = np.asarray(model.vectors, dtype=complex)
        assert np.array_equal(_slice(x, psi), oracles.eigen_slice(x, psi))

    def test_conjugate_linear_in_first_slot(self):
        rng = np.random.default_rng(19)
        for dim, n in itertools.product((2, 3), (1, 2, 3)):
            ds = state_for(random_model(rng, dim), times=tuple(range(n)))

            def combination():
                op = sum(complex(*rng.standard_normal(2))
                         * embed(ds.model, product_history(rng, ds, n), ds.grid.times).op
                         for _ in range(2))
                return sector_op(ds.grid.times, dim, op)

            for _ in range(3):
                a, b = combination(), combination()
                assert abs(d_basis_sum(ds, a, b) - d_form(ds, a, b)) <= 1e-10
                x = sector_op(ds.grid.times, dim, random_operator(rng, dim ** n))
                y = sector_op(ds.grid.times, dim, random_operator(rng, dim ** n))
                assert abs(d_basis_sum(ds, x, y) - d_form(ds, x, y)) <= 1e-10


@given(stacked_pair_cases())
@settings(max_examples=60, deadline=None)
def test_stacked_basis_sums_are_the_per_pair_sum_and_the_dense_oracle(case):
    # every pair of the two stacks, each history as the Proposition of its
    # transported factors that decohere pairs one at a time
    ds, hs, ks = case
    space = PropositionSpace(support=ds.grid.times, dim_single=ds.model.dim)
    values = d_basis_sums(ds, hs, ks)
    assert values.shape == (len(hs),)
    for value, h, k in zip(values, hs, ks):
        p, q = (Proposition(space=space, factors=tuple(x)) for x in (h, k))
        assert abs(value - d_basis_sum(ds, p, q)) <= 1e-12
        assert abs(value - oracles.basis_sum_dense(ds, p, q)) <= 1e-12


@given(dim=st.integers(1, 3), n=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1),
       lead=st.lists(st.integers(0, 3), max_size=2))
@settings(max_examples=80, deadline=None)
def test_contraction_matmul_equals_the_einsum_oracle(dim, n, seed, lead):
    # slices (*lead, dim, dim, J) with J = dim^(n - 1), J = 1 included: the one
    # matmul over (a, b) sums the same terms as the unoptimised einsum
    rng = np.random.default_rng(seed)
    ds = state_for(random_model(rng, dim))
    shape = (*lead, dim, dim, dim ** (n - 1))
    sp, sq = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    got, want = _contract(ds, sp, sq), oracles.contract(ds, sp, sq)
    assert got.shape == want.shape == tuple(lead)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@given(dim=st.integers(1, 3), n=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1),
       lead=st.lists(st.integers(0, 3), max_size=2), block=st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_contraction_in_row_blocks_equals_the_einsum_oracle(dim, n, seed, lead, block):
    # a block bound of a few entries splits the (..., K, J) terms into many
    # row blocks, one row each when a row alone is over the bound
    rng = np.random.default_rng(seed)
    ds = state_for(random_model(rng, dim))
    shape = (*lead, dim, dim, dim ** (n - 1))
    sp, sq = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(histq.decoherence, "_TERM_BLOCK", block)
        got = _contract(ds, sp, sq)
    want = oracles.contract(ds, sp, sq)
    assert got.shape == want.shape == tuple(lead)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("form", [d_form, d_basis_sum])
def test_state_of_another_dimension_is_a_sector_mismatch(form):
    # a dim-3 proposition and a dim-2 state fail the one sector check, not a matmul
    ds = qubit_state(np.diag([0.6, 0.4]))
    x = sector_op((0.0,), 3, np.eye(3))
    with pytest.raises(ValueError, match="^sector mismatch$"):
        form(ds, x, x)


class TestGram:
    def test_entries_are_the_chain_form(self):
        rng = np.random.default_rng(17)
        for dim, n in ((2, 1), (2, 2), (3, 2)):
            ds = state_for(random_model(rng, dim))
            ops = np.array([random_operator(rng, dim ** n) for _ in range(3)])
            gram = d_gram(ds, ops, n)
            chains = [chain_map(op, dim, n) for op in ops]  # one operator per call
            for a, b in itertools.product(range(3), repeat=2):
                expected = np.trace(chains[a].conj().T @ ds.model.rho @ chains[b])
                assert gram[a, b] == pytest.approx(expected, abs=1e-12)

    def test_reconstruction_reads_the_same_gram(self, monkeypatch):
        rng = np.random.default_rng(18)
        ds = state_for(random_model(rng, 2))
        seen = []

        def spy(state, ops, n_times):
            seen.append(len(ops))
            return d_gram(state, ops, n_times)

        monkeypatch.setattr("histq.decoherence.d_gram", spy)
        ils_reconstruct(ds, (0.0, 1.0))
        assert seen == [16]  # one stack: the matrix units of the 4 x 4 sector


class TestIlsReconstruction:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pair_value_is_the_trace_against_the_kronecker_product(self, seed):
        rng = np.random.default_rng(seed)
        dim, n = ((2, 1), (2, 2), (3, 1), (3, 2))[seed % 4]
        ds = state_for(random_model(rng, dim))
        x = ils_reconstruct(ds, ds.grid.times[:n])
        p, q = (sector_op(ds.grid.times[:n], dim, random_operator(rng, dim ** n))
                for _ in range(2))
        kron = np.trace(tensor_product([p.op, q.op]) @ x.xd)
        assert x.pair_value(p, q) == pytest.approx(kron, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_operator_is_the_hermitian_basis_expansion(self, seed):
        rng = np.random.default_rng(seed)
        dim, n = ((2, 1), (2, 2), (3, 1), (3, 2))[seed % 4]
        ds = state_for(random_model(rng, dim))
        support = ds.grid.times[:n]
        x = ils_reconstruct(ds, support)
        assert np.max(np.abs(x.xd - oracles.ils_expansion(ds, support))) <= 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pair_value_is_the_form_on_the_adjoint_for_any_operands(self, seed):
        # complex, non-Hermitian operands: tr((p (x) q) X) = d(p^dag, q)
        rng = np.random.default_rng(seed)
        dim, n = ((2, 1), (2, 2), (3, 1), (3, 2))[seed % 4]
        ds = state_for(random_model(rng, dim))
        support = ds.grid.times[:n]
        x = ils_reconstruct(ds, support)
        scale = rng.uniform(0.1, 10.0, size=2)
        p, q = (sector_op(support, dim, c * random_operator(rng, dim ** n)) for c in scale)
        p_dag = sector_op(support, dim, p.op.conj().T)
        bound = 1e-12 * max_abs(p.op) * max_abs(q.op)
        assert abs(x.pair_value(p, q) - d_form(ds, p_dag, q)) <= bound

    @given(dim=st.integers(1, 3), n=st.integers(1, 3), count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pair_values_are_the_per_pair_values(self, dim, n, count, seed):
        # complex operands: one einsum for the stack against the one-pair
        # view, the per-pair contraction and the trace against the Kronecker
        # product with the Hermitian-basis expansion of X
        assume(sector_fits(dim, n))
        rng = np.random.default_rng(seed)
        ds = state_for(random_model(rng, dim), times=tuple(range(n)))
        x = ils_reconstruct(ds, ds.grid.times)
        dense = oracles.ils_expansion(ds, ds.grid.times)
        ps, qs = (np.array([random_operator(rng, dim ** n) for _ in range(count)])
                  for _ in range(2))
        values = x.pair_values(ps, qs)
        assert values.shape == (count,)
        for value, p, q in zip(values, ps, qs):
            bound = 1e-12 * max(1.0, max_abs(p) * max_abs(q))
            assert abs(value - x.pair_value(*(sector_op(ds.grid.times, dim, o)
                                             for o in (p, q)))) <= bound
            assert abs(value - oracles.ils_pair_value(x, p, q)) <= bound
            assert abs(value - np.trace(np.kron(p, q) @ dense)) <= bound * dim ** (2 * n)

    def test_unit_trace(self):
        rng = np.random.default_rng(13)
        ds = state_for(random_model(rng, 3))
        x = ils_reconstruct(ds, (0.0,))
        assert np.trace(x.xd) == pytest.approx(1.0, abs=1e-10)

    def test_single_time_qubit_value(self):
        ds = qubit_state(np.diag([1.0, 0.0]))
        x = ils_reconstruct(ds, (0.0,))
        plus = proposition(x.space, PLUS)
        assert x.pair_value(plus, plus) == pytest.approx(0.5, abs=1e-9)

    def test_hundred_random_projector_pairs(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for dim, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
            ds = state_for(random_model(rng, dim))
            support = ds.grid.times[:n]
            x = ils_reconstruct(ds, support)
            for _ in range(25):
                h = product_history(rng, ds, n)
                k = product_history(rng, ds, n)
                hb = embed(ds.model, h, support, ds.grid.t0)
                kb = embed(ds.model, k, support, ds.grid.t0)
                worst = max(worst, abs(x.pair_value(hb, kb) - chain_form(ds, h, k)))
        assert worst <= 1e-9

    def test_nonproduct_hermitian_arguments(self):
        rng = np.random.default_rng(15)
        ds = state_for(random_model(rng, 2))
        x = ils_reconstruct(ds, (0.0, 1.0))
        for _ in range(10):
            p = random_projector(rng, 4)  # generally not a product projector
            q = random_projector(rng, 4)
            hb = sector_op((0.0, 1.0), 2, p)
            kb = sector_op((0.0, 1.0), 2, q)
            assert abs(x.pair_value(hb, kb) - d_form(ds, hb, kb)) <= 1e-9

    def test_cap_enforced(self):
        rng = np.random.default_rng(16)
        ds = state_for(random_model(rng, 4), times=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="support too large"):
            ils_reconstruct(ds, (0.0, 1.0))


class TestSectorGuard:
    def test_cap_boundary(self):
        assert sector_fits(3, 2) and sector_fits(9, 1) and sector_fits(2, 3)
        assert not sector_fits(4, 2) and not sector_fits(3, 3) and not sector_fits(10, 1)

    def test_both_constructions_raise_capacity_error_with_their_message(self):
        ds = state_for(random_model(np.random.default_rng(17), 3), times=(0.0, 1.0, 2.0))
        with pytest.raises(CapacityError) as ils:
            ils_reconstruct(ds, ds.grid.times)
        with pytest.raises(CapacityError) as wright:
            wright_operator(ds, ds.grid.times)
        assert str(ils.value) == "support too large for ILS reconstruction"
        assert str(wright.value) == "support too large for Wright construction"
        assert isinstance(ils.value, ValueError)
        ils_reconstruct(ds, (0.0, 1.0))  # 3^4 = 81 is within the cap

    def test_off_grid_time_is_not_a_capacity_error(self):
        ds = state_for(random_model(np.random.default_rng(18), 4), times=(0.0, 1.0))
        with pytest.raises(ValueError, match="not on the grid") as exc:
            ils_reconstruct(ds, (0.5, 1.0))
        assert not isinstance(exc.value, CapacityError)


class TestHermitianBasis:
    def test_orthonormal_and_hermitian(self):
        basis = oracles.hermitian_basis(3)
        assert basis.shape == (9, 3, 3)
        for a, b in itertools.product(range(9), repeat=2):
            inner = np.trace(basis[a] @ basis[b]).real
            assert inner == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)
        for g in basis:
            assert np.max(np.abs(g - g.conj().T)) <= 1e-12

