import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histq.consistency import base_family, refinements, window
from histq.decoherence import d_basis_sum, ils_reconstruct, sector_fits
from histq.histories import PropositionSpace, chain_map, proposition
from histq.propositions import (
    WrightOperator,
    chain_matrix,
    hs_inner,
    probabilities,
    wright_operator,
)
from histq.sampling import random_model, random_operator

from helpers import P0, P1, PLUS, qubit_state, state_for
from oracles import apply, d_form, p_norm, probability, random_projector, unit_proposition

SINGLE = PropositionSpace(support=(0.0,), dim_single=2)
DOUBLE = PropositionSpace(support=(0.0, 1.0), dim_single=2)


class TestSpace:
    def test_dimensions(self):
        assert SINGLE.op_dim == 2
        assert DOUBLE.op_dim == 4

    @pytest.mark.parametrize("support, dim, message", [
        ((), 2, "support must be nonempty"),
        ((1.0, 0.0), 2, "support times must be strictly increasing"),
        ((0.0, 0.0), 2, "support times must be strictly increasing"),
        ((0.0,), 0, "dim_single must be positive"),
    ])
    def test_sector_validated_when_built(self, support, dim, message):
        with pytest.raises(ValueError, match=message):
            PropositionSpace(support=support, dim_single=dim)

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="does not match"):
            proposition(DOUBLE, P0)

    def test_finite_entries_required(self):
        with pytest.raises(ValueError, match="finite"):
            proposition(SINGLE, np.array([[np.inf, 0], [0, 0]]))


class TestHsInner:
    def test_unit_normalized(self):
        e = unit_proposition(SINGLE)
        assert hs_inner(e, e) == pytest.approx(1.0)
        e2 = unit_proposition(DOUBLE)
        assert hs_inner(e2, e2) == pytest.approx(1.0)

    def test_projector_values(self):
        x = proposition(SINGLE, P0)
        assert hs_inner(x, x) == pytest.approx(0.5)
        y = proposition(DOUBLE, np.kron(P0, P0))
        assert hs_inner(y, y) == pytest.approx(0.25)

    def test_sector_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sector mismatch"):
            hs_inner(unit_proposition(SINGLE), unit_proposition(DOUBLE))

    def test_norm_tracks_projector_rank(self):
        # squared norm = rank / dim^n: the coarser the proposition, the larger
        rng = np.random.default_rng(21)
        norms = []
        for rank in (1, 2, 3, 4):
            x = proposition(DOUBLE, random_projector(rng, 4, rank=rank))
            value = hs_inner(x, x).real
            assert value == pytest.approx(rank / 4.0, abs=1e-12)
            norms.append(value)
        assert norms == sorted(norms)


class TestPNorm:
    def test_projector_p1(self):
        assert p_norm(proposition(SINGLE, P0), 1) == pytest.approx(0.5)

    def test_projector_p2(self):
        assert p_norm(proposition(SINGLE, P0), 2) == pytest.approx(0.70710678, abs=1e-8)

    def test_unit_for_all_p(self):
        e = unit_proposition(DOUBLE)
        for p in (1, 1.5, 2, 3, 7.5):
            assert p_norm(e, p) == pytest.approx(1.0, abs=1e-12)

    def test_p2_matches_inner_product(self):
        rng = np.random.default_rng(22)
        x = proposition(DOUBLE, random_operator(rng, 4))
        assert p_norm(x, 2) == pytest.approx(np.sqrt(hs_inner(x, x).real), abs=1e-12)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            p_norm(unit_proposition(SINGLE), 0.5)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_subadditive_and_homogeneous(self, seed, p):
        rng = np.random.default_rng(seed)
        x = proposition(DOUBLE, random_operator(rng, 4))
        y = proposition(DOUBLE, random_operator(rng, 4))
        both = proposition(DOUBLE, x.op + y.op)
        assert p_norm(both, p) <= p_norm(x, p) + p_norm(y, p) + 1e-9
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert p_norm(proposition(DOUBLE, c * x.op), p) == pytest.approx(
            abs(c) * p_norm(x, p), abs=1e-9)


class TestWrightOperator:
    def test_single_time_doubles_rho_action(self):
        # n = 1: the chain map is the identity, so T b = tr(1) rho b
        ds = qubit_state(np.diag([1.0, 0.0]))
        t = wright_operator(ds, (0.0,))
        x = proposition(t.space, PLUS)
        image = apply(t, x)
        assert np.allclose(image.op, 2.0 * ds.model.rho @ PLUS)
        assert probability(t, x) == pytest.approx(0.5, abs=1e-12)

    def test_unit_expectation_on_random_scenarios(self):
        rng = np.random.default_rng(23)
        for dim, n in ((2, 1), (2, 2), (3, 1), (4, 1)):
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, ds.grid.times[:n])
            assert probability(t, unit_proposition(t.space)) == pytest.approx(
                1.0, abs=1e-12)

    def test_quadratic_form_matches_decoherence(self):
        rng = np.random.default_rng(24)
        worst = 0.0
        for dim, n in ((2, 1), (2, 2), (3, 1)):
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, ds.grid.times[:n])
            for _ in range(34):
                b = proposition(t.space, random_operator(rng, t.space.op_dim))
                worst = max(worst, abs(probability(t, b) - d_form(ds, b, b).real))
        assert worst <= 1e-9

    def test_records_its_state(self):
        ds = qubit_state(np.diag([0.75, 0.25]))
        assert wright_operator(ds, (0.0,)).state is ds
        assert wright_operator(ds, (0.0, 1.0)).state is ds

    def test_gram_and_residual_match_the_matrix(self):
        rng = np.random.default_rng(29)
        ds = state_for(random_model(rng, 2))
        t = wright_operator(ds, (0.0, 1.0))
        base = np.array([random_operator(rng, 4) for _ in range(3)])
        members = [proposition(t.space, b) for b in base]
        expected = [[hs_inner(x, apply(t, y)) for y in members] for x in members]
        assert np.max(np.abs(t.gram(base) - np.array(expected))) <= 1e-12
        oracle = np.max(np.abs(t.matrix - t.matrix.conj().T)) / t.space.op_dim
        assert t.self_adjoint_residual() == oracle <= 1e-10

    def test_sector_self_adjoint(self):
        rng = np.random.default_rng(25)
        ds = state_for(random_model(rng, 3))
        t = wright_operator(ds, (0.0, 1.0))
        worst = 0.0
        for _ in range(20):
            b1 = proposition(t.space, random_operator(rng, 9))
            b2 = proposition(t.space, random_operator(rng, 9))
            lhs = hs_inner(b1, apply(t, b2))
            rhs = hs_inner(apply(t, b1), b2)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10

    def test_nonnegative_quadratic_form(self):
        rng = np.random.default_rng(26)
        ds = state_for(random_model(rng, 2))
        t = wright_operator(ds, (0.0, 1.0))
        for _ in range(30):
            b = proposition(t.space, random_operator(rng, 4))
            assert probability(t, b) >= -1e-10

    def test_cap_enforced(self):
        rng = np.random.default_rng(27)
        ds = state_for(random_model(rng, 10))
        with pytest.raises(ValueError, match="support too large"):
            wright_operator(ds, (0.0,))

    def test_chain_matrix_vectorizes_chain_map(self):
        rng = np.random.default_rng(28)
        pmat = chain_matrix(2, 2)
        b = random_operator(rng, 4)
        assert np.allclose(pmat @ b.flatten(order="F"),
                           chain_map(b, 2, 2).flatten(order="F"))


class TestProbability:
    def test_unit(self):
        ds = qubit_state(np.diag([0.75, 0.25]))
        t = wright_operator(ds, (0.0,))
        assert probability(t, unit_proposition(t.space)) == pytest.approx(1.0, abs=1e-12)

    def test_direct_trace_oracle(self):
        ds = qubit_state(np.diag([0.75, 0.25]))
        t = wright_operator(ds, (0.0,))
        # tr(P0 rho P0) = 0.75
        assert probability(t, proposition(t.space, P0)) == pytest.approx(0.75, abs=1e-12)

    def test_zero_vector(self):
        ds = qubit_state(np.diag([0.75, 0.25]))
        t = wright_operator(ds, (0.0,))
        zero = proposition(t.space, np.zeros((2, 2)))
        assert probability(t, zero) == 0.0

    def test_nonreal_form_rejected(self):
        skew = np.array([[0, 1j], [0, 0]], dtype=complex)
        bad = WrightOperator(space=SINGLE, matrix=np.kron(np.eye(2), skew) + np.eye(4),
                             state=qubit_state(np.diag([0.75, 0.25])))
        x = proposition(SINGLE, PLUS + 0.5 * np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError, match="non-real quadratic form"):
            probability(bad, x)

    def test_sector_mismatch(self):
        ds = qubit_state(np.diag([0.75, 0.25]))
        t = wright_operator(ds, (0.0,))
        with pytest.raises(ValueError, match="sector mismatch"):
            probability(t, unit_proposition(DOUBLE))

    @given(dim=st.integers(1, 3), n=st.integers(1, 3), count=st.integers(1, 5),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stacked_forms_are_the_gram_diagonal(self, dim, n, count, seed):
        # the unit, a projector and complex operators in one stack: each form
        # is its row of the Gram matrix and the one-row view, entry by entry
        assume(sector_fits(dim, n))
        rng = np.random.default_rng(seed)
        t = wright_operator(state_for(random_model(rng, dim), times=tuple(range(n))),
                            tuple(range(n)))
        k = t.space.op_dim
        ops = np.array([np.eye(k), random_projector(rng, k)]
                       + [random_operator(rng, k) for _ in range(count)])
        values = probabilities(t, ops)
        gram = t.gram(ops)
        assert values.dtype == float and values.shape == (len(ops),)
        for a, op in enumerate(ops):
            bound = 1e-12 * max(1.0, abs(gram[a, a]))
            assert abs(values[a] - gram[a, a]) <= bound
            assert abs(values[a] - probability(t, proposition(t.space, op))) <= bound
        assert abs(values[0] - 1.0) <= 1e-12

    def test_one_non_real_form_refuses_the_stack(self):
        # T + i |vec(P0)><vec(P0)| is not Hermitian: <P1, T P1> stays real,
        # <P0, T P0> gains the imaginary part 1/2
        t = wright_operator(qubit_state(np.diag([0.75, 0.25])), (0.0,))
        bad = WrightOperator(space=t.space, matrix=t.matrix + 1j * np.diag([1.0, 0, 0, 0]),
                             state=t.state)
        assert probabilities(bad, P1[None]) == pytest.approx([0.25], abs=1e-12)
        with pytest.raises(ValueError, match="^non-real quadratic form$"):
            probabilities(bad, np.array([P1, P0]))


# Sector A and sector B share dim_single = 2 but not their support.
SECTOR_A = PropositionSpace(support=(0.0,), dim_single=2)
SECTOR_B = PropositionSpace(support=(1.0,), dim_single=2)
FOREIGN_OPERANDS = {
    "hs_inner": (lambda c: hs_inner(c["x"], c["y"]), "sector mismatch"),
    "probability": (lambda c: probability(c["t"], c["y"]), "sector mismatch"),
    "d_form": (lambda c: d_form(c["ds"], c["x"], c["y"]), "mixed temporal support"),
    "d_basis_sum": (lambda c: d_basis_sum(c["ds"], c["x"], c["y"]), "mixed temporal support"),
    "pair_value-second": (lambda c: c["ils"].pair_value(c["x"], c["y"]), "sector mismatch"),
    "pair_value-both": (lambda c: c["ils"].pair_value(c["y"], c["y"]), "sector mismatch"),
    "base_family": (lambda c: base_family(c["t"], [[np.eye(3)]]), "sector mismatch"),
    "refinements": (lambda c: refinements([window(base_family(c["t"], [[P0, P1]]), (0, 1)),
                                           window(base_family(c["t_b"], [[P0, P1]]), (0, 0))]),
                    "sector mismatch"),
}


@pytest.mark.parametrize("name", FOREIGN_OPERANDS)
def test_operand_from_another_sector_is_refused(name):
    ds = qubit_state(np.diag([0.75, 0.25]))
    case = {"ds": ds, "t": wright_operator(ds, SECTOR_A.support),
            "t_b": wright_operator(ds, SECTOR_B.support),
            "ils": ils_reconstruct(ds, SECTOR_A.support),
            "x": proposition(SECTOR_A, P0), "y": proposition(SECTOR_B, P0)}
    assert case["t"].space == case["ils"].space == SECTOR_A
    call, message = FOREIGN_OPERANDS[name]
    with pytest.raises(ValueError, match=message):
        call(case)
