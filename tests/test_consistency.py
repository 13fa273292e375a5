import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histq.consistency import (
    _gram_matrices,
    _rounding_slack,
    _screen,
    _window_key,
    check_window,
    check_window_operators,
    is_maximally_refined,
    is_refinement,
    restricted_growth_strings,
    search_windows,
    set_partitions,
    strict_refinements,
    window,
)
from histq.core import SystemModel, active_tolerances, heisenberg, is_projector, projector_onto
from histq.propositions import wright_operator
from histq.sampling import random_density, random_hermitian, random_model, random_pvm, random_unitary
from helpers import MINUS, P0, P1, PLUS, qubit_state, state_for

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def mixed_qubit(rho=None):
    ds = qubit_state(np.diag([0.75, 0.25]) if rho is None else rho)
    t = wright_operator(ds, (0.0,))
    return ds, t


class TestCheckWindow:
    def test_unit_window(self):
        ds, t = mixed_qubit()
        w = window(t.space, [np.eye(2, dtype=complex)])
        report = check_window(w, t)
        assert report.consistent and report.probabilities == (1.0,)

    def test_computational_window(self):
        ds, t = mixed_qubit()
        w = window(t.space, [P0, P1])
        report = check_window(w, t)
        assert report.consistent
        assert report.probabilities == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_eigenstate_breaks_strict_positivity(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        w = window(t.space, [P0, P1])
        report = check_window(w, t)
        assert not report.consistent
        assert "positivity" in report.violated

    def test_incomplete_family_flagged(self):
        ds, t = mixed_qubit()
        report = check_window(window(t.space, [P0]), t)
        assert "completeness" in report.violated

    def test_overlapping_members_flagged(self):
        ds, t = mixed_qubit()
        report = check_window(window(t.space, [P0, PLUS]), t)
        assert "orthogonality" in report.violated

    def test_interfering_product_family_fails_additivity(self):
        # all 4 two-time product histories: total probability is exactly 1,
        # but the pairwise cross terms do not vanish
        rng = np.random.default_rng(31)
        ds = state_for(random_model(rng, 2))
        t = wright_operator(ds, (0.0, 1.0))
        first, second = random_pvm(rng, 2), random_pvm(rng, 2)
        ops = [np.kron(a, b) for a in first for b in second]
        w = window(t.space, ops)
        report = check_window(w, t)
        assert abs(sum(report.probabilities) - 1.0) <= 1e-12
        assert "additivity" in report.violated


class TestCheckWindowOperators:
    def test_single_time_pvm_always_consistent(self):
        rng = np.random.default_rng(32)
        for dim in (2, 3):
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, (0.0,))
            w = window(t.space, random_pvm(rng, dim))
            assert check_window_operators(ds, w).consistent

    def test_contrast_with_sector_picture(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        w = window(t.space, [P0, P1])
        assert check_window_operators(ds, w).consistent
        assert not check_window(w, t).consistent

    def test_two_time_computational_products(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        t2 = wright_operator(ds, (0.0, 1.0))
        ops = [np.kron(a, b) for a in (P0, P1) for b in (P0, P1)]
        w = window(t2.space, ops)
        assert check_window_operators(ds, w).consistent

    def test_non_projector_member_rejected(self):
        ds, t = mixed_qubit()
        w = window(t.space, [0.5 * P0, np.eye(2) - 0.5 * P0])
        with pytest.raises(ValueError, match="non-projector member"):
            check_window_operators(ds, w)

    def test_probabilities_are_diagonal_decoherence_values(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        report = check_window_operators(ds, window(t.space, [P0, P1]))
        assert report.probabilities == pytest.approx((1.0, 0.0), abs=1e-12)
        assert all(isinstance(p, float) for p in report.probabilities)


class TestDecide:
    def test_checks_write_nothing(self):
        ds, t = mixed_qubit()
        w = window(t.space, [P0, P1])
        check_window(w, t)
        check_window_operators(ds, w)
        assert w.kreport is None and w.opreport is None

    def test_window_fields_cannot_be_assigned(self):
        ds, t = mixed_qubit()
        w = window(t.space, [P0, P1]).decide(ds, t)
        for field, value in (("kreport", None), ("opreport", None), ("members", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.kreport.verdict = "inconsistent"

    def test_attaches_both_reports_to_a_copy(self):
        ds, t = mixed_qubit()
        w = window(t.space, [P0, P1])
        decided = w.decide(ds, t)
        assert w.kreport is None and w.opreport is None
        assert decided.members is w.members
        assert decided.kreport == check_window(w, t)
        assert decided.opreport == check_window_operators(ds, w)

    def test_operator_verdict_does_not_wait_for_the_sector_one(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        decided = window(t.space, [P0, P1]).decide(ds, t)
        assert not decided.kreport.consistent
        assert decided.opreport.consistent

    def test_non_projector_window_gets_no_operator_verdict(self):
        ds, t = mixed_qubit()
        decided = window(t.space, [0.5 * P0, np.eye(2) - 0.5 * P0]).decide(ds, t)
        assert decided.kreport is not None and decided.opreport is None


class TestRefinement:
    def test_window_refines_itself(self):
        _, t = mixed_qubit()
        w = window(t.space, [P0, P1])
        assert is_refinement(w, w)

    def test_everything_refines_unit(self):
        _, t = mixed_qubit()
        unit = window(t.space, [np.eye(2, dtype=complex)])
        assert is_refinement(window(t.space, [P0, P1]), unit)
        assert is_refinement(window(t.space, [PLUS, MINUS]), unit)

    def test_incompatible_bases_do_not_refine(self):
        _, t = mixed_qubit()
        assert not is_refinement(window(t.space, [PLUS, MINUS]),
                                 window(t.space, [P0, P1]))

    def test_partition_blocks_refine(self):
        rng = np.random.default_rng(33)
        ds = state_for(random_model(rng, 4))
        t = wright_operator(ds, (0.0,))
        base = random_pvm(rng, 4)
        fine = window(t.space, base)
        coarse = window(t.space, [base[0] + base[1], base[2] + base[3]])
        assert is_refinement(fine, coarse)
        assert not is_refinement(coarse, fine)


class TestPartitionEnumeration:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_counts_match_bell_numbers(self, n):
        assert sum(1 for _ in restricted_growth_strings(n)) == BELL[n]

    def test_strings_are_restricted_growth(self):
        for rgs in restricted_growth_strings(5):
            assert rgs[0] == 0
            for i in range(1, 5):
                assert rgs[i] <= max(rgs[:i]) + 1

    def test_matches_brute_force_partitions(self):
        # oracle: all partitions via equivalence classes of surjections
        items = list(range(4))
        seen = {tuple(sorted(tuple(sorted(b)) for b in blocks))
                for blocks in set_partitions(items)}
        brute = set()
        for assign in itertools.product(range(4), repeat=4):
            blocks = {}
            for idx, a in enumerate(assign):
                blocks.setdefault(a, []).append(idx)
            brute.add(tuple(sorted(tuple(sorted(b)) for b in blocks.values())))
        assert seen == brute

    def test_lexicographic_order(self):
        strings = list(restricted_growth_strings(4))
        assert strings == sorted(strings)


class TestSearchWindows:
    def test_qubit_two_basis_family(self):
        ds, t = mixed_qubit()
        found = search_windows(ds, t, [[[P0, P1], [PLUS, MINUS]]])
        assert len(found) == 3
        assert [len(w.members) for w in found] == [2, 2, 1]
        probs = {tuple(round(p, 6) for p in w.kreport.probabilities) for w in found}
        assert (0.75, 0.25) in probs
        assert (0.5, 0.5) in probs
        assert (1.0,) in probs

    def test_empty_family_returns_unit_window(self):
        ds, t = mixed_qubit()
        found = search_windows(ds, t, [])
        assert len(found) == 1
        assert np.allclose(found[0].members[0].op, np.eye(2))

    def test_family_cap_enforced(self, monkeypatch):
        # rank-1 decompositions under the sector cap give at most 9 base
        # histories, so exercise the guard with a lowered cap
        monkeypatch.setattr("histq.consistency.MAX_BASE_FAMILY", 3)
        ds, _ = mixed_qubit(np.eye(2) / 2)
        t2 = wright_operator(ds, (0.0, 1.0))
        with pytest.raises(ValueError, match="base family too large: 4 > 3"):
            search_windows(ds, t2, [[[P0, P1]], [[P0, P1]]])

    def test_invariant_under_element_permutation(self):
        ds, t = mixed_qubit()
        a = search_windows(ds, t, [[[P0, P1], [PLUS, MINUS]]])
        b = search_windows(ds, t, [[[P1, P0], [MINUS, PLUS]]])
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            keys_a = sorted(np.round(x.op, 9).tobytes() for x in wa.members)
            keys_b = sorted(np.round(x.op, 9).tobytes() for x in wb.members)
            assert keys_a == keys_b

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(35)
        ds = state_for(random_model(rng, 3))
        t = wright_operator(ds, (0.0,))
        for w in search_windows(ds, t, [[random_pvm(rng, 3)]]):
            assert sum(w.kreport.probabilities) == pytest.approx(1.0, abs=1e-9)


class TestMaximallyRefined:
    def test_finest_partition_is_maximal(self):
        ds, t = mixed_qubit()
        found = search_windows(ds, t, [[[P0, P1], [PLUS, MINUS]]])
        comp = next(w for w in found
                    if tuple(round(p, 6) for p in w.kreport.probabilities) == (0.75, 0.25))
        assert is_maximally_refined(comp, found)

    def test_unit_window_is_not_maximal_here(self):
        ds, t = mixed_qubit()
        found = search_windows(ds, t, [[[P0, P1], [PLUS, MINUS]]])
        unit = next(w for w in found if len(w.members) == 1)
        assert not is_maximally_refined(unit, found)

    def test_singleton_family(self):
        ds, t = mixed_qubit()
        w = window(t.space, [np.eye(2, dtype=complex)]).decide(ds, t)
        assert is_maximally_refined(w, [w])


class TestPictureBridge:
    def test_verdicts_agree_for_strictly_positive_windows(self):
        rng = np.random.default_rng(36)
        checked = 0
        for _ in range(12):
            dim = int(rng.choice([2, 3]))
            ds = state_for(random_model(rng, dim))
            two_time = dim == 2 and bool(rng.integers(2))
            n = 2 if two_time else 1
            t = wright_operator(ds, ds.grid.times[:n])
            base = random_pvm(rng, dim)
            if two_time:
                other = random_pvm(rng, dim)
                base = [np.kron(a, b) for a in base for b in other]
            for blocks in set_partitions(base):
                w = window(t.space, [np.sum(b, axis=0) for b in blocks])
                krep = check_window(w, t)
                if any(p <= 1e-12 for p in krep.probabilities):
                    continue
                checked += 1
                oprep = check_window_operators(ds, w)
                assert krep.consistent == oprep.consistent
        assert checked > 50


def base_families(ds, t, pvms):
    """Product-history base families in the order the search visits them."""
    transported = [[[heisenberg(ds.model, p, time, ds.grid.t0) for p in pvm] for pvm in klists]
                   for time, klists in zip(t.space.support, pvms)]
    for choice in itertools.product(*transported):
        yield [functools.reduce(np.kron, combo) for combo in itertools.product(*choice)]


def oracle_search(ds, t, pvms, on_partition=None):
    """The exhaustive reference: every set partition -> check_window ->
    check_window_operators on projector members -> _window_key dedup -> sort.

    ``on_partition(family, rgs, window, report)`` sees every checked partition.
    """
    results = {}
    for family, base in enumerate(base_families(ds, t, pvms)):
        pairs = zip(restricted_growth_strings(len(base)), set_partitions(base))
        for rgs, blocks in pairs:
            cand = window(t.space, [np.sum(block, axis=0) for block in blocks])
            report = check_window(cand, t)
            if on_partition is not None:
                on_partition(family, rgs, cand, report)
            if not report.consistent:
                continue
            opreport = None
            if all(is_projector(x.op) for x in cand.members):
                opreport = check_window_operators(ds, cand)
            cand = dataclasses.replace(cand, kreport=report, opreport=opreport)
            results.setdefault(_window_key(cand), cand)
    ordered = sorted(results.items(), key=lambda kv: (-len(kv[1].members), kv[0]))
    return [w for _, w in ordered]


def assert_same_windows(found, expected):
    assert len(found) == len(expected)
    for got, want in zip(found, expected):
        assert _window_key(got) == _window_key(want)
        for rep, ref in ((got.kreport, want.kreport), (got.opreport, want.opreport)):
            assert (rep is None) == (ref is None)
            if ref is not None:
                assert (rep.verdict, rep.violated) == (ref.verdict, ref.violated)
                assert rep.max_residual == pytest.approx(ref.max_residual, rel=0.0, abs=1e-12)
                assert np.allclose(rep.probabilities, ref.probabilities, rtol=0.0, atol=1e-12)


@st.composite
def search_cases(draw):
    """A state and per-time decompositions with base families of at most 8."""
    dim, n_times = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    hamiltonian = (np.zeros((dim, dim)) if draw(st.booleans())
                   else random_hermitian(rng, dim))
    if draw(st.booleans()):
        rho = projector_onto(random_unitary(rng, dim)[:, [0]])  # pure
    else:
        rho = random_density(rng, dim)
    ds = state_for(SystemModel.from_matrices(hamiltonian, rho),
                   times=(0.0, 0.7, 1.5)[:max(n_times, 2)])
    t = wright_operator(ds, ds.grid.times[:n_times])

    def decomposition():
        if dim == 3 and draw(st.booleans()):  # a rank-2 projector and its complement
            u = random_unitary(rng, dim)
            return [projector_onto(u[:, :2]), projector_onto(u[:, 2:])]
        return random_pvm(rng, dim)

    repeated = decomposition()
    same_at_every_time = draw(st.booleans())
    alternatives = 1 if n_times == 3 else draw(st.integers(1, 2))
    pvms = [[repeated if same_at_every_time else decomposition()
             for _ in range(alternatives)] for _ in range(n_times)]
    return ds, t, pvms


class TestGramScreen:
    @given(search_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive_oracle(self, case):
        ds, t, pvms = case
        tol = active_tolerances()
        families = [np.array(base) for base in base_families(ds, t, pvms)]
        screens = []
        for base in families:
            g, s = _gram_matrices(t, base)
            rgs = np.array(list(restricted_growth_strings(len(base))))
            slack = _rounding_slack(g, s, t.space.op_dim)
            screens.append((g, slack, {tuple(r): keep for r, keep in
                                       zip(rgs, _screen(g, s, rgs, tol, slack))}))

        def superset(family, rgs, cand, report):
            g, slack, kept = screens[family]
            blocks = [np.flatnonzero(np.array(rgs) == v) for v in range(max(rgs) + 1)]
            screened = [g[np.ix_(b, b)].sum().real for b in blocks]
            assert np.max(np.abs(np.subtract(screened, report.probabilities))) <= slack
            if report.consistent:
                assert kept[rgs]

        expected = oracle_search(ds, t, pvms, on_partition=superset)
        assert_same_windows(search_windows(ds, t, pvms), expected)

    @pytest.mark.parametrize("basis", [[P0, P1], [PLUS, MINUS]])
    @pytest.mark.parametrize("weight", [0.0, 2e-12])
    def test_strict_positivity_edge_over_many_chunks(self, basis, weight):
        # H = 0 and one basis at every time: mixed-outcome histories have
        # probability 0 (pure rho) or just above strict_positive; N = 8
        # spans seventeen 256-string chunks
        ds = qubit_state(np.diag([1.0 - weight, weight]), times=(0.0, 1.0, 2.0))
        t = wright_operator(ds, ds.grid.times)
        pvms = [[basis]] * 3
        assert_same_windows(search_windows(ds, t, pvms), oracle_search(ds, t, pvms))

    def test_rank_two_projectors_at_dim_three(self):
        rng = np.random.default_rng(37)
        ds = state_for(random_model(rng, 3))
        t = wright_operator(ds, (0.0,))
        u = random_unitary(rng, 3)
        pvms = [[[projector_onto(u[:, :2]), projector_onto(u[:, 2:])], random_pvm(rng, 3)]]
        assert_same_windows(search_windows(ds, t, pvms), oracle_search(ds, t, pvms))


class TestStrictRefinements:
    @given(search_cases())
    @settings(max_examples=30, deadline=None)
    def test_member_count_filter_loses_no_refinement(self, case):
        # on search output, refinements with no more members than the window
        # are the window itself, so the filtered scan equals the full one
        ds, t, pvms = case
        found = search_windows(ds, t, pvms)
        for w in found:
            full = [c for c in found if c is not w and is_refinement(c, w)]
            assert list(map(id, strict_refinements(w, found))) == list(map(id, full))
