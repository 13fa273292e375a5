import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histq.core import SystemModel, TimeGrid, is_projector, tensor_product
from histq.decoherence import DecoherenceState, d_trace
from histq.histories import (
    PropositionSpace,
    HomogeneousHistory,
    chain_map,
    chains,
    class_operator,
    embed_stack,
    history,
    support_reduce,
)
from histq.sampling import random_hermitian, random_model

from helpers import H_ZERO, P0, P1, PLUS, SIGMA_X, count_calls
import oracles
from oracles import embed, random_projector

EYE = np.eye(2, dtype=complex)


def qubit_model(hamiltonian=H_ZERO):
    return SystemModel.from_matrices(hamiltonian, np.eye(2) / 2)


class TestSupportReduce:
    def test_drops_identity_entries(self):
        h = history({0.0: P0, 1.0: EYE, 2.0: PLUS})
        reduced = support_reduce(h)
        assert reduced.times == (0.0, 2.0)

    def test_all_identities_reduce_to_unit(self):
        assert support_reduce(history({0.0: EYE})).times == ()

    def test_keeps_repeated_nontrivial_entries(self):
        h = history({0.0: P0, 1.0: P0})
        assert support_reduce(h).times == (0.0, 1.0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_and_conservative(self, seed):
        rng = np.random.default_rng(seed)
        entries = {}
        for k in range(int(rng.integers(1, 4))):
            rank = int(rng.integers(1, 4))  # rank 3 = identity on C^3
            entries[float(k)] = random_projector(rng, 3, rank=rank)
        h = history(entries)
        once = support_reduce(h)
        twice = support_reduce(once)
        assert once.times == twice.times
        for t in once.times:  # nothing non-identity was removed
            assert np.max(np.abs(dict(h.items)[t] - np.eye(3))) > 1e-10


class TestEmbed:
    """The embedding map, through the one-history oracle that ``embed_stack``
    is pinned to bit for bit (``TestEmbedStack``)."""

    def test_single_time(self):
        model = qubit_model()
        assert np.allclose(embed(model, history({0.0: P0})).op, P0)

    def test_two_time_product(self):
        model = qubit_model()
        b = embed(model, history({0.0: P0, 1.0: PLUS}))
        assert b.op.shape == (4, 4)
        assert np.allclose(b.op, np.kron(P0, PLUS))
        assert np.linalg.matrix_rank(b.op) == 1

    def test_heisenberg_transport_applied(self):
        model = qubit_model((np.pi / 2) * SIGMA_X)
        b = embed(model, history({1.0: P0}))
        assert np.max(np.abs(b.op - P1)) <= 1e-10

    def test_identity_padding(self):
        model = qubit_model()
        b = embed(model, history({1.0: P0}), support=(0.0, 1.0))
        assert np.allclose(b.op, np.kron(EYE, P0))
        e = embed(model, history({}), support=(0.0, 1.0))
        assert np.allclose(e.op, np.eye(4))

    @pytest.mark.parametrize("history_entries, support, message", [
        ({}, None, "support must be nonempty"),
        ({}, (), "support must be nonempty"),
        ({0.0: P0}, (1.0, 0.0), "support times must be strictly increasing"),
        ({2.0: P0}, (0.0, 1.0), "support does not contain the history's times"),
    ])
    def test_support_validated(self, history_entries, support, message):
        h = history(history_entries)
        with pytest.raises(ValueError, match=message):
            embed_stack(qubit_model(), [h], h.times if support is None else support)

    def test_returns_a_proposition_of_the_support_sector(self):
        b = embed(qubit_model(), history({1.0: P0}), support=(0.0, 1.0))
        assert b.space == PropositionSpace(support=(0.0, 1.0), dim_single=2)
        assert b.n_times == 2

    def test_non_projector_entry_rejected(self):
        with pytest.raises(ValueError, match="not a projector"):
            history({0.0: SIGMA_X + np.eye(2)})

    def test_history_holds_a_copy_of_each_projector(self):
        # the entry was checked as a projector, so a later write to the
        # caller's buffer must not reach the history
        p = P0.copy()
        h = history({0.0: p})
        p[:] = SIGMA_X
        assert np.array_equal(dict(h.items)[0.0], P0)
        assert np.array_equal(embed(qubit_model(), h).op, P0)

    def test_projector_iff_factors_are(self):
        assert is_projector(tensor_product([P0, PLUS]))
        assert not is_projector(tensor_product([P0, 0.5 * EYE]))


class TestOneTransportPerHistory:
    """``embed_stack`` and ``class_operator`` move a history's projectors by one
    ``heisenberg`` call, with the bits of one transport per projector."""

    @given(dim=st.integers(1, 3), n=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_stacked_factors_equal_the_single_transports(self, dim, n, seed, data):
        rng = np.random.default_rng(seed)
        model, t0 = random_model(rng, dim), float(rng.uniform(-1.0, 1.0))
        support = tuple(np.sort(rng.uniform(-3.0, 3.0, n)).tolist())
        kept = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        h = history({t: random_projector(rng, dim) for t, keep in zip(support, kept) if keep})
        x = embed_stack(model, [h], support, t0)[0]
        for t, f in zip(support, x.factors):
            single = (oracles.heisenberg(model, dict(h.items)[t], t, t0) if t in h.times
                      else np.eye(dim, dtype=complex))
            assert np.array_equal(f, single)
        assert np.array_equal(class_operator(model, h, t0), oracles.chain(model, h, t0))

    def test_one_heisenberg_call_per_history(self, monkeypatch):
        model = qubit_model(SIGMA_X)
        h = history({0.0: P0, 1.0: PLUS, 2.0: P1})
        calls = count_calls(monkeypatch, "heisenberg")
        evolutions = count_calls(monkeypatch, "evolve")
        embed_stack(model, [h], (0.0, 0.5, 1.0, 2.0))
        class_operator(model, h)
        assert [stack.shape for _, stack, _, _ in calls] == [(3, 2, 2)] * 2
        assert [t for _, t, _ in evolutions] == [[0.0, 1.0, 2.0]] * 2


class TestEmbedStack:
    """``embed_stack`` moves a grid of histories by one ``heisenberg`` call with
    the bits of the one-history oracle, one transport per history."""

    @given(dim=st.integers(1, 3), n=st.integers(1, 4), count=st.integers(0, 4),
           seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_one_history_oracle_bit_for_bit(self, dim, n, count, seed, data):
        rng = np.random.default_rng(seed)
        model, t0 = random_model(rng, dim), float(rng.uniform(-1.0, 1.0))
        support = tuple(np.linspace(-2.0, 2.0, n) + rng.uniform(-0.4, 0.4, n))
        kinds = st.sampled_from(["missing", "identity", "zero", "drawn"])
        entry = {"identity": lambda: np.eye(dim), "zero": lambda: np.zeros((dim, dim)),
                 "drawn": lambda: random_projector(rng, dim)}
        histories = [history({t: entry[kind]() for t, kind in zip(support, row)
                              if kind != "missing"})
                     for row in data.draw(st.lists(st.lists(kinds, min_size=n, max_size=n),
                                                   min_size=count, max_size=count))]
        stacked = embed_stack(model, histories, support, t0)
        assert len(stacked) == count
        assert len({id(x.space) for x in stacked}) <= 1  # one shared sector
        for h, x in zip(histories, stacked):
            want = oracles.embed(model, h, support, t0)
            assert x.space == want.space
            assert [f.tobytes() for f in x.factors] == [f.tobytes() for f in want.factors]

    def test_one_evolve_and_one_heisenberg_call(self, monkeypatch):
        model = qubit_model(SIGMA_X)
        histories = [history({0.0: P0, 1.0: PLUS, 2.0: P1}), history({}),
                     history({1.0: P1, 2.0: EYE})]
        transports = count_calls(monkeypatch, "heisenberg")
        evolutions = count_calls(monkeypatch, "evolve")
        stacked = embed_stack(model, histories, (0.0, 0.5, 1.0, 2.0))
        assert [stack.shape for _, stack, _, _ in transports] == [(5, 2, 2)]
        # one call on the distinct times in first-seen order, none at 0.5
        assert [t for _, t, _ in evolutions] == [[0.0, 1.0, 2.0]]
        assert all(np.array_equal(x.factors[1], EYE) for x in stacked)

    def test_support_must_hold_every_history(self):
        with pytest.raises(ValueError, match="support does not contain"):
            embed_stack(qubit_model(), [history({}), history({3.0: P0})], (0.0, 1.0))


class TestClassOperator:
    def test_single_factor(self):
        assert np.allclose(class_operator(qubit_model(), history({0.0: PLUS})), PLUS)

    def test_not_injective_on_histories(self):
        model = qubit_model()
        once = class_operator(model, history({0.0: PLUS}))
        twice = class_operator(model, history({0.0: PLUS, 1.0: PLUS}))
        assert np.allclose(once, twice)  # idempotence collapses the pair

    def test_explicit_two_time_product(self):
        got = class_operator(qubit_model(), history({0.0: P0, 1.0: PLUS}))
        assert np.allclose(got, np.array([[0.5, 0.5], [0.0, 0.0]]))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_operator_norm_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        entries = {float(k): random_projector(rng, 3) for k in range(3)}
        c = class_operator(SystemModel.from_matrices(np.zeros((3, 3)), np.eye(3) / 3),
                           history(entries))
        assert np.linalg.norm(c, 2) <= 1.0 + 1e-12


class TestChains:
    @given(dim=st.integers(1, 3), n=st.integers(0, 4), count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_history_oracle_bit_for_bit(self, dim, n, count, seed):
        # each history's projectors moved as the oracle moves them, so the
        # stack and the oracle multiply the same matrices
        rng = np.random.default_rng(seed)
        model, t0 = random_model(rng, dim), float(rng.uniform(-1.0, 1.0))
        times = np.cumsum(rng.uniform(0.5, 1.5, n)).tolist()
        histories = [HomogeneousHistory(tuple((t, random_projector(rng, dim)) for t in times))
                     for _ in range(count)]
        stack = np.reshape([oracles.heisenberg(model, p, t, t0)
                            for h in histories for t, p in h.items], (count, n, dim, dim))
        got = chains(stack)
        assert got.shape == (count, dim, dim)
        for row, h in zip(got, histories):
            assert row.tobytes() == oracles.chain(model, h, t0).tobytes()


class TestChainMap:
    def test_matches_class_operator_of_embedding(self):
        rng = np.random.default_rng(5)
        model = SystemModel.from_matrices(random_hermitian(rng, 2), np.eye(2) / 2)
        h = history({0.0: random_projector(rng, 2), 1.0: random_projector(rng, 2)})
        via_embed = chain_map(embed(model, h).op, 2, 2)
        assert np.max(np.abs(via_embed - class_operator(model, h))) <= 1e-12

    def test_dyad_contraction_oracle(self):
        # pi(|a (x) b><c (x) d|) = <c|b> |a><d|, from the matrix-unit expansion
        rng = np.random.default_rng(11)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4)]
        a, b, c, d = vecs
        dyad = np.outer(np.kron(a, b), np.kron(c, d).conj())
        expected = (c.conj() @ b) * np.outer(a, d.conj())
        assert np.max(np.abs(chain_map(dyad, 3, 2) - expected)) <= 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_multiplicative_on_single_time_blocks(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.max(np.abs(chain_map(np.kron(a, b), 3, 2) - a @ b)) <= 1e-12

    def test_stack_axes_map_each_operator(self):
        rng = np.random.default_rng(14)
        stack = rng.standard_normal((2, 3, 8, 8)) + 1j * rng.standard_normal((2, 3, 8, 8))
        got = chain_map(stack, 2, 3)
        assert got.shape == (2, 3, 2, 2)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(got[i, j], chain_map(stack[i, j], 2, 3))

    def test_dimension_must_be_dim_to_the_times(self):
        with pytest.raises(ValueError, match="operator dimension is not dim"):
            chain_map(np.eye(4), 2, 3)

    def test_three_slots(self):
        rng = np.random.default_rng(13)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(3)]
        got = chain_map(tensor_product(mats), 2, 3)
        assert np.max(np.abs(got - mats[0] @ mats[1] @ mats[2])) <= 1e-12


class TestValidatedOnce:
    def test_built_histories_are_not_rechecked(self, monkeypatch):
        model = qubit_model((np.pi / 3) * SIGMA_X)
        ds = DecoherenceState(model=model, grid=TimeGrid(times=(0.0, 1.0)))
        h = history({0.0: P0, 1.0: PLUS})
        k = history({0.0: PLUS, 1.0: P1})
        calls = count_calls(monkeypatch, "is_projector")
        d_trace(ds, h, k)
        embed_stack(model, [h], h.times)
        class_operator(model, k)
        assert calls == []
        history({0.0: P1})  # the constructor still checks, through the patched name
        assert len(calls) == 1
