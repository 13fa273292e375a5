import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histq.entropy
from histq.consistency import check_window, search_windows, set_partitions, window
from histq.entropy import (
    min_entropy,
    refinement_gap,
    sup_refinement_entropy,
    window_entropy,
    window_entropy_pnorm,
)
from histq.propositions import hs_inner, wright_operator
from histq.sampling import random_model, random_pvm
from helpers import MINUS, P0, P1, PLUS, qubit_state, state_for


def mixed_qubit(rho=None):
    ds = qubit_state(np.diag([0.75, 0.25]) if rho is None else rho)
    return ds, wright_operator(ds, (0.0,))


def family_for(ds, t):
    return search_windows(ds, t, [[[P0, P1], [PLUS, MINUS]]])


class TestWindowEntropy:
    def test_maximally_mixed_is_zero(self):
        ds, t = mixed_qubit(np.eye(2) / 2)
        w = window(t.space, [P0, P1])
        assert window_entropy(t, w).value == pytest.approx(0.0, abs=1e-14)

    def test_worked_mixed_qubit_number(self):
        # oracle: I = H(p) - ln 2 for the computational window
        ds, t = mixed_qubit()
        w = window(t.space, [P0, P1])
        report = window_entropy(t, w)
        oracle = (-(0.75 * math.log(0.75) + 0.25 * math.log(0.25))) - math.log(2)
        assert report.value == pytest.approx(oracle, abs=1e-12)
        assert report.value == pytest.approx(-0.13081, abs=1e-4)

    def test_unit_window_is_zero(self):
        ds, t = mixed_qubit()
        w = window(t.space, [np.eye(2, dtype=complex)])
        assert window_entropy(t, w).value == 0.0

    def test_inconsistent_window_rejected(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        w = window(t.space, [P0, P1])
        with pytest.raises(ValueError, match="entropy undefined"):
            window_entropy(t, w)

    def test_terms_recompose_value(self):
        ds, t = mixed_qubit()
        report = window_entropy(t, window(t.space, [P0, P1]))
        recomputed = -sum(term.probability *
                          math.log(term.probability / term.squared_norm)
                          for term in report.terms)
        assert report.value == pytest.approx(recomputed, abs=1e-12)

    def test_shannon_regrouping_identity(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 4):
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, (0.0,))
            for w in search_windows(ds, t, [[random_pvm(rng, dim)]]):
                value = window_entropy(t, w).value
                shannon = -sum(p * math.log(p) for p in w.probabilities)
                shifted = shannon + sum(
                    p * math.log(hs_inner(x, x).real)
                    for p, x in zip(w.probabilities, w.members))
                assert value == pytest.approx(shifted, abs=1e-12)


class TestPnormEntropy:
    def test_worked_p1_number(self):
        ds, t = mixed_qubit()
        w = window(t.space, [P0, P1])
        report = window_entropy_pnorm(ds, w, 1)
        assert report.value == pytest.approx(-(0.75) * math.log(3.0), abs=1e-12)
        assert report.value == pytest.approx(-0.82396, abs=1e-4)

    def test_p2_matches_sector_entropy(self):
        ds, t = mixed_qubit()
        w = window(t.space, [P0, P1])
        assert window_entropy_pnorm(ds, w, 2).value == pytest.approx(
            window_entropy(t, w).value, abs=1e-10)

    def test_p3_counterexample_rises_under_refinement(self):
        ds, t = mixed_qubit(np.eye(2) / 2)
        unit = window(t.space, [np.eye(2, dtype=complex)])
        split = window(t.space, [P0, P1])
        rise = (window_entropy_pnorm(ds, split, 3).value
                - window_entropy_pnorm(ds, unit, 3).value)
        assert rise == pytest.approx(math.log(2) / 3, abs=1e-6)

    def test_p_below_one_rejected(self):
        ds, t = mixed_qubit()
        with pytest.raises(ValueError, match=">= 1"):
            window_entropy_pnorm(ds, window(t.space, [P0, P1]), 0.99)

    def test_operator_inconsistent_window_rejected(self):
        ds, t = mixed_qubit()
        w = window(t.space, [P0, PLUS])  # overlapping members
        with pytest.raises(ValueError, match="entropy undefined"):
            window_entropy_pnorm(ds, w, 1)

    def test_zero_diagonal_member_contributes_nothing(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        w = window(t.space, [P0, P1])  # operator-consistent, diagonal value 0 on P1
        report = window_entropy_pnorm(ds, w, 1)
        assert report.terms[1].contribution == 0.0
        assert report.value == pytest.approx(-math.log(4.0), abs=1e-12)


def scalar_gap(a, b, q):
    """One point of the gap formula with math.log: the oracle of the array form."""
    first = 0.0 if a == 0 else a * (math.log(a) - q * math.log(b))
    second = (1.0 + a) * (math.log(1.0 + a) - q * math.log(1.0 + b))
    return first - second


class TestRefinementGap:
    def test_diagonal_zero_at_q1(self):
        for a in (0.1, 1.0, 3.7, 10.0):
            assert refinement_gap(a, a, 1) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value(self):
        # ln(1/4) - 2 ln(2/9), evaluated by hand
        assert refinement_gap(1.0, 2.0, 2) == pytest.approx(1.62186, abs=1e-5)

    def test_a_zero_limit(self):
        for b in (0.3, 1.0, 5.0):
            for q in (1.0, 2.0):
                assert refinement_gap(0.0, b, q) == pytest.approx(
                    q * math.log1p(b), abs=1e-12)
        assert refinement_gap(0.0, 1.5, 1) > 0

    def test_nonpositive_b_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            refinement_gap(1.0, 0.0, 1)

    @pytest.mark.parametrize("a, b, q, match", [
        ([1.0, -1e-300], 1.0, 1.0, "nonnegative"),
        (1.0, [[2.0], [0.0]], 1.0, "positive"),
        (1.0, 1.0, [1.0, 0.5], ">= 1"),
    ])
    def test_any_out_of_domain_element_rejected(self, a, b, q, match):
        with pytest.raises(ValueError, match=match):
            refinement_gap(a, b, q)

    @given(st.floats(0.0, 10.0), st.floats(0.01, 10.0), st.floats(1.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_on_domain(self, a, b, q):
        assert refinement_gap(a, b, q) >= -1e-12

    def test_grid_minimum_near_diagonal(self):
        grid = np.logspace(math.log10(0.1), math.log10(10.0), 60)
        for q in (1.0, 1.5, 2.0, 3.0):
            for ia, a in enumerate(grid):
                values = [refinement_gap(a, b, q) for b in grid]
                assert min(values) >= -1e-12
                assert abs(int(np.argmin(values)) - ia) <= 1

    def test_array_form_matches_scalar_oracle_on_grid(self):
        # equal bit for bit where numpy's log and math.log agree
        grid = np.logspace(math.log10(0.1), math.log10(10.0), 60)
        for q in (1.0, 1.5, 2.0, 3.0):
            values = refinement_gap(grid[:, None], grid[None, :], q)
            oracle = np.array([[scalar_gap(a, b, q) for b in grid] for a in grid])
            np.testing.assert_allclose(values, oracle, rtol=1e-15, atol=1e-15)
            assert np.array_equal(np.argmin(values, axis=1), np.argmin(oracle, axis=1))

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=1, max_size=6),
           st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6), st.floats(1.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_array_form_matches_scalar_oracle_with_zero_a(self, a, b, q):
        values = refinement_gap(np.array(a)[:, None], np.array(b)[None, :], q)
        oracle = [[scalar_gap(x, y, q) for y in b] for x in a]
        np.testing.assert_allclose(values, oracle, rtol=1e-15, atol=1e-15)

    def test_single_split_identity(self):
        # I(W1) - I(W2) = p(y) * gap(a, b, 1) for one split x = y + z
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.choice([3, 4]))
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, (0.0,))
            base = random_pvm(rng, dim)
            y_op, z_op = base[0], base[1]
            rest = base[2:]
            fine = window(t.space, [y_op, z_op] + rest)
            coarse = window(t.space, [y_op + z_op] + rest)
            i_fine = window_entropy(t, fine)
            i_coarse = window_entropy(t, coarse)
            p_y = fine.probabilities[0]
            p_z = fine.probabilities[1]
            a = p_z / p_y
            b = (hs_inner(fine.members[1], fine.members[1]).real
                 / hs_inner(fine.members[0], fine.members[0]).real)
            gap = p_y * refinement_gap(a, b, 1)
            assert i_coarse.value - i_fine.value == pytest.approx(gap, abs=1e-10)


class TestMonotonicity:
    def test_refinement_never_increases_entropy_for_small_p(self):
        rng = np.random.default_rng(43)
        pairs = 0
        for _ in range(6):
            dim = int(rng.choice([2, 3, 4]))
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, (0.0,))
            base = random_pvm(rng, dim)
            windows = []
            for blocks in set_partitions(base):
                w = window(t.space, [np.sum(b, axis=0) for b in blocks])
                if check_window(w, t).consistent:
                    windows.append(w)
            from histq.consistency import is_refinement
            for coarse in windows:
                for fine in windows:
                    if fine is coarse or not is_refinement(fine, coarse):
                        continue
                    pairs += 1
                    for p in (1.0, 1.5, 2.0):
                        drop = (window_entropy_pnorm(ds, coarse, p).value
                                - window_entropy_pnorm(ds, fine, p).value)
                        assert drop >= -1e-10
        assert pairs >= 40


class TestAggregates:
    def test_min_entropy_selects_computational_window(self):
        ds, t = mixed_qubit()
        value, best = min_entropy(t, family_for(ds, t))
        assert value == pytest.approx(-0.13081, abs=1e-4)
        assert best.probabilities == pytest.approx((0.75, 0.25), abs=1e-9)

    def test_min_entropy_tie_breaks_to_lowest_index(self):
        ds, t = mixed_qubit(np.eye(2) / 2)
        family = family_for(ds, t)
        value, best = min_entropy(t, family)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert best is family[0]

    def test_min_entropy_singleton(self):
        ds, t = mixed_qubit()
        w = window(t.space, [np.eye(2, dtype=complex)])
        value, best = min_entropy(t, [w])
        assert value == 0.0 and best is w

    def test_min_entropy_requires_consistency(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="no consistent window"):
            min_entropy(t, [window(t.space, [P0, P1])])

    def test_sup_over_refinements_of_unit(self):
        ds, t = mixed_qubit()
        family = family_for(ds, t)
        unit = next(w for w in family if len(w.members) == 1)
        assert sup_refinement_entropy(t, unit, family) == pytest.approx(0.0, abs=1e-12)

    def test_sup_of_maximally_refined_is_own_entropy(self):
        ds, t = mixed_qubit()
        family = family_for(ds, t)
        comp = next(w for w in family
                    if tuple(round(p, 4) for p in w.probabilities) == (0.75, 0.25))
        assert sup_refinement_entropy(t, comp, family) == pytest.approx(
            window_entropy(t, comp).value, abs=1e-12)

    def test_each_window_checked_once_per_call(self, monkeypatch):
        calls = []

        def counting(w, t):
            calls.append(w)
            return check_window(w, t)

        monkeypatch.setattr(histq.entropy, "check_window", counting)
        ds, t = mixed_qubit()
        family = family_for(ds, t)
        min_entropy(t, family)
        assert sorted(map(id, calls)) == sorted(map(id, family))
        unit = next(w for w in family if len(w.members) == 1)
        calls.clear()
        sup_refinement_entropy(t, unit, family)
        assert sorted(map(id, calls)) == sorted(map(id, family))

    def test_sup_dominates_own_entropy(self):
        ds, t = mixed_qubit()
        family = family_for(ds, t)
        for w in family:
            assert (sup_refinement_entropy(t, w, family)
                    >= window_entropy(t, w).value - 1e-12)
