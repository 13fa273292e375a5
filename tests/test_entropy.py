import functools
import importlib
import importlib.util
import inspect
import json
import math
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import histq
from histq.cli import _entropy_payload
from histq.cli import main as cli_main
from histq.consistency import (Window, base_family, partition_windows, refinements,
                               search_windows, window)
from histq.entropy import min_entropy, refinement_gap, window_entropy, window_entropy_pnorm
from histq.propositions import hs_inner, wright_operator
from histq.sampling import random_model, random_pvm
import oracles
from helpers import MINUS, P0, P1, PLUS, count_calls, qubit_state, state_for


def mixed_qubit(rho=None):
    """The single-time Wright operator of a qubit state; it carries the state."""
    return wright_operator(qubit_state(np.diag([0.75, 0.25]) if rho is None else rho), (0.0,))


def family_for(t):
    return search_windows(t, [[[P0, P1], [PLUS, MINUS]]])


def decided(t, base, labels=None):
    """The window of the one-time family ``base`` grouped by ``labels`` (by
    default each element its own member), decided in both pictures."""
    return window(base_family(t, [base]), range(len(base)) if labels is None else labels)


def scored(family):
    return {w: window_entropy(w) for w in family}


def suprema(family):
    """Each window's supremum of the entropy over its refinements in
    ``family``, as ``histq entropy`` reports it."""
    labels = [f"w{i}" for i in range(len(family))]
    payload = _entropy_payload(family, labels, refinements(family), [2.0])
    return [row["sup_over_refinements"] for row in payload["suprema"]]


class TestWindowEntropy:
    def test_maximally_mixed_is_zero(self):
        t = mixed_qubit(np.eye(2) / 2)
        w = decided(t, [P0, P1])
        assert window_entropy(w).value == pytest.approx(0.0, abs=1e-14)

    def test_worked_mixed_qubit_number(self):
        # oracle: I = H(p) - ln 2 for the computational window
        t = mixed_qubit()
        w = decided(t, [P0, P1])
        report = window_entropy(w)
        oracle = (-(0.75 * math.log(0.75) + 0.25 * math.log(0.25))) - math.log(2)
        assert report.value == pytest.approx(oracle, abs=1e-12)
        assert report.value == pytest.approx(-0.13081, abs=1e-4)

    def test_unit_window_is_zero(self):
        t = mixed_qubit()
        w = decided(t, [np.eye(2, dtype=complex)])
        assert window_entropy(w).value == 0.0

    def test_inconsistent_window_rejected(self):
        t = mixed_qubit(np.diag([1.0, 0.0]))
        w = decided(t, [P0, P1])
        with pytest.raises(ValueError, match="entropy undefined"):
            window_entropy(w)

    def test_undecided_window_rejected(self):
        # a window is built with both verdicts, so no entropy meets one without
        t = mixed_qubit()
        with pytest.raises(TypeError, match="kreport"):
            Window(family=base_family(t, [[P0, P1]]), labels=(0, 1))

    def test_terms_recompose_value(self):
        t = mixed_qubit()
        report = window_entropy(decided(t, [P0, P1]))
        recomputed = -sum(term.probability *
                          math.log(term.probability / term.squared_norm)
                          for term in report.terms)
        assert report.value == pytest.approx(recomputed, abs=1e-12)

    def test_shannon_regrouping_identity(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 4):
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, (0.0,))
            for w in search_windows(t, [[random_pvm(rng, dim)]]):
                value = window_entropy(w).value
                shannon = -sum(p * math.log(p) for p in w.kreport.probabilities)
                shifted = shannon + sum(
                    p * math.log(hs_inner(x, x).real)
                    for p, x in zip(w.kreport.probabilities, w.members))
                assert value == pytest.approx(shifted, abs=1e-12)


class TestPnormEntropy:
    def test_worked_p1_number(self):
        t = mixed_qubit()
        w = decided(t, [P0, P1])
        report = window_entropy_pnorm(w, 1)
        assert report.value == pytest.approx(-(0.75) * math.log(3.0), abs=1e-12)
        assert report.value == pytest.approx(-0.82396, abs=1e-4)

    def test_p2_matches_sector_entropy(self):
        t = mixed_qubit()
        w = decided(t, [P0, P1])
        assert window_entropy_pnorm(w, 2).value == pytest.approx(
            window_entropy(w).value, abs=1e-10)

    def test_p3_counterexample_rises_under_refinement(self):
        t = mixed_qubit(np.eye(2) / 2)
        unit = decided(t, [np.eye(2, dtype=complex)])
        split = decided(t, [P0, P1])
        rise = (window_entropy_pnorm(split, 3).value
                - window_entropy_pnorm(unit, 3).value)
        assert rise == pytest.approx(math.log(2) / 3, abs=1e-6)

    def test_p_below_one_rejected(self):
        t = mixed_qubit()
        with pytest.raises(ValueError, match=">= 1"):
            window_entropy_pnorm(decided(t, [P0, P1]), 0.99)

    def test_operator_inconsistent_window_rejected(self):
        # all four two-time products of two random bases interfere
        rng = np.random.default_rng(44)
        t = wright_operator(state_for(random_model(rng, 2)), (0.0, 1.0))
        w = window(base_family(t, [random_pvm(rng, 2), random_pvm(rng, 2)]), (0, 1, 2, 3))
        assert w.opreport.violated == ("re-cross-term",)
        with pytest.raises(ValueError, match="entropy undefined"):
            window_entropy_pnorm(w, 1)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2)]))
    @settings(max_examples=30, deadline=None)
    def test_squared_norms_match_the_singular_value_oracle(self, seed, shape):
        # members are projectors, so ||x||_p^2 = <x, x>^(2/p); the oracle sums
        # the singular values of the member matrices
        dim, n_times = shape
        rng = np.random.default_rng(seed)
        t = wright_operator(state_for(random_model(rng, dim)), (0.0, 1.0)[:n_times])
        family = base_family(t, [random_pvm(rng, dim) for _ in range(n_times)])
        for w in partition_windows(family):
            for p in (1.0, 1.5, 3.0):
                oracle = [oracles.p_norm(x, p) ** 2 for x in w.members]
                assert [s ** (2 / p) for s in w.squared_norms] == pytest.approx(
                    oracle, rel=0.0, abs=1e-12)
                if w.opreport.consistent:
                    terms = window_entropy_pnorm(w, p).terms
                    assert [term.squared_norm for term in terms] == pytest.approx(
                        oracle, rel=0.0, abs=1e-12)

    def test_zero_diagonal_member_contributes_nothing(self):
        t = mixed_qubit(np.diag([1.0, 0.0]))
        w = decided(t, [P0, P1])  # operator-consistent, diagonal value 0 on P1
        report = window_entropy_pnorm(w, 1)
        assert report.terms[1].contribution == 0.0
        assert report.value == pytest.approx(-math.log(4.0), abs=1e-12)


def scalar_gap(a, b, q):
    """One point of the gap formula with math.log: the oracle of the array form."""
    first = 0.0 if a == 0 else a * (math.log(a) - q * math.log(b))
    second = (1.0 + a) * (math.log(1.0 + a) - q * math.log(1.0 + b))
    return first - second


def gap_rounding_bound(a, b, q):
    """4 eps times the summed magnitudes of the gap formula's four log terms.

    The array form and the oracle round the same operations, but numpy's log
    and math.log may differ by an ulp; this bounds what that can move.
    """
    a, b, q = (np.asarray(x, dtype=float) for x in (a, b, q))
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) where a == 0
        a_log_a = np.where(a == 0, 0.0, np.abs(a * np.log(a)))
    terms = (a_log_a + np.abs(a * q * np.log(b)) + np.abs((1 + a) * np.log1p(a))
             + np.abs((1 + a) * q * np.log1p(b)))
    return 4 * np.finfo(float).eps * terms


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
        grid = np.logspace(math.log10(0.1), math.log10(10.0), 60)
        for q in (1.0, 1.5, 2.0, 3.0):
            values = refinement_gap(grid[:, None], grid[None, :], q)
            oracle = np.array([[scalar_gap(a, b, q) for b in grid] for a in grid])
            bound = gap_rounding_bound(grid[:, None], grid[None, :], q)
            assert np.all(np.abs(values - oracle) <= bound)
            assert np.array_equal(np.argmin(values, axis=1), np.argmin(oracle, axis=1))

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=1, max_size=6),
           st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6), st.floats(1.0, 3.0))
    @settings(max_examples=200, deadline=None)
    @example(a=[4.0], b=[5.882402828096074], q=1.0)  # np.log(1 + b) is an ulp off math.log
    def test_array_form_matches_scalar_oracle_with_zero_a(self, a, b, q):
        a, b = np.array(a)[:, None], np.array(b)[None, :]
        values = refinement_gap(a, b, q)
        oracle = np.array([[scalar_gap(x, y, q) for y in b[0]] for x in a[:, 0]])
        assert np.all(np.abs(values - oracle) <= gap_rounding_bound(a, b, q))

    def test_single_split_identity(self):
        # I(W1) - I(W2) = p(y) * gap(a, b, 1) for one split x = y + z
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.choice([3, 4]))
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, (0.0,))
            base = random_pvm(rng, dim)
            fine = decided(t, base)
            coarse = decided(t, base, [0, 0, *range(1, dim - 1)])  # y + z, then the rest
            i_fine = window_entropy(fine)
            i_coarse = window_entropy(coarse)
            p_y = fine.kreport.probabilities[0]
            p_z = fine.kreport.probabilities[1]
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
            windows = [w for w in partition_windows(base_family(t, [random_pvm(rng, dim)]))
                       if w.kreport.consistent]
            for coarse, fine in zip(*np.nonzero(refinements(windows))):
                pairs += 1
                for p in (1.0, 1.5, 2.0):
                    drop = (window_entropy_pnorm(windows[coarse], p).value
                            - window_entropy_pnorm(windows[fine], p).value)
                    assert drop >= -1e-10
        assert pairs >= 40


class TestAggregates:
    def test_min_entropy_selects_computational_window(self):
        t = mixed_qubit()
        value, best = min_entropy(scored(family_for(t)))
        assert value == pytest.approx(-0.13081, abs=1e-4)
        assert best.kreport.probabilities == pytest.approx((0.75, 0.25), abs=1e-9)

    def test_min_entropy_tie_breaks_to_lowest_index(self):
        t = mixed_qubit(np.eye(2) / 2)
        family = family_for(t)
        value, best = min_entropy(scored(family))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert best is family[0]

    def test_min_entropy_singleton(self):
        t = mixed_qubit()
        w = decided(t, [np.eye(2, dtype=complex)])
        value, best = min_entropy(scored([w]))
        assert value == 0.0 and best is w

    def test_min_entropy_requires_consistency(self):
        t = mixed_qubit(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="entropy undefined"):
            scored([decided(t, [P0, P1])])
        with pytest.raises(ValueError, match="no consistent window"):
            min_entropy({})

    def test_sup_over_refinements_of_unit(self):
        t = mixed_qubit()
        family = family_for(t)
        unit = next(i for i, w in enumerate(family) if len(w.members) == 1)
        assert suprema(family)[unit] == pytest.approx(0.0, abs=1e-12)

    def test_sup_of_maximally_refined_is_own_entropy(self):
        t = mixed_qubit()
        family = family_for(t)
        comp = next(i for i, w in enumerate(family)
                    if tuple(round(p, 4) for p in w.kreport.probabilities) == (0.75, 0.25))
        assert suprema(family)[comp] == pytest.approx(
            window_entropy(family[comp]).value, abs=1e-12)

    def test_sup_of_inconsistent_window_rejected(self):
        t = mixed_qubit(np.diag([1.0, 0.0]))
        w = decided(t, [P0, P1])
        with pytest.raises(ValueError, match="entropy undefined"):
            suprema([w])

    def test_checks_run_only_in_the_search_decide_step(self, monkeypatch, tmp_path):
        # every histq module that binds a check gets a wrapper recording the
        # function that calls it and that function's caller; a comprehension
        # or generator frame (its own frame under Python 3.11) counts as part
        # of the function it runs in, so the record names functions, not the
        # shape of their loops
        callers = []

        def function(frame):
            while (frame.f_code.co_name in ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")
                   or frame.f_code.co_flags & inspect.CO_GENERATOR):
                frame = frame.f_back
            return frame

        def spy(check):
            @functools.wraps(check)
            def wrapper(*args, **kwargs):
                frame = function(sys._getframe(1))
                callers.append((frame.f_code.co_name, function(frame.f_back).f_code.co_name))
                return check(*args, **kwargs)
            return wrapper

        modules = [histq] + [importlib.import_module(f"histq.{info.name}")
                             for info in pkgutil.iter_modules(histq.__path__)]
        for module in modules:
            if hasattr(module, "check_window"):
                monkeypatch.setattr(module, "check_window", spy(module.check_window))
        assert cli_main(["entropy", "--out", str(tmp_path)]) == 0
        # two base families, Bell(2) = 2 partitions each, every one consistent:
        # one sector check per string, whose window then carries both reports
        assert len(callers) == 4
        assert set(callers) == {("search_windows", "scenario_windows")}

    def test_each_window_is_scored_once(self, monkeypatch, tmp_path):
        # the search-qubit3 benchmark scenario at seed 1: eight windows, of
        # which several refine several others
        spec = importlib.util.spec_from_file_location(
            "bench_scenarios", Path(__file__).parents[1] / "bench" / "scenarios.py")
        scenarios = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, scenarios)  # its dataclass looks it up
        spec.loader.exec_module(scenarios)
        path = scenarios.write_scenario(tmp_path / "search.json", "search-qubit3", 1)
        calls = count_calls(monkeypatch, "window_entropy")
        assert cli_main(["entropy", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        found = json.loads((tmp_path / "entropy.json").read_text())["windows"]["windows"]
        assert len(calls) == len(found) == 8
        assert len({id(w) for (w,) in calls}) == 8

    def test_sup_dominates_own_entropy(self):
        t = mixed_qubit()
        family = family_for(t)
        for w, sup in zip(family, suprema(family)):
            assert type(sup) is float and sup >= window_entropy(w).value - 1e-12
