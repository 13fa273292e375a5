import collections
import dataclasses
import functools
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from histq.cli import main as cli_main
from histq.consistency import (
    BaseFamily,
    _SCREEN_CHUNK,
    _decomposition,
    _member_stack,
    _screen,
    _walk,
    base_family,
    check_window,
    partition_windows,
    refinements,
    search_windows,
    window,
)
from histq.core import (TOLERANCES, SystemModel, heisenberg, is_projector, max_abs,
                        named_basis, projector_onto)
from histq.propositions import hs_inner, wright_operator
from histq.sampling import (random_density, random_hermitian, random_model, random_pvm,
                            random_unitary)
from helpers import MINUS, P0, P1, PLUS, count_calls, qubit_state, state_for
from oracles import apply, d_form, restricted_growth_strings

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147, 10: 115975}
EYE = np.eye(2, dtype=complex)


def everything(piece):
    """A walk score that keeps and expands every string: nothing pruned."""
    rows = np.ones(len(piece), dtype=bool)
    return rows, rows


def generated_strings(n):
    """The strings of the unpruned refinement walk, in walk order."""
    return [tuple(row) for piece in _walk(n, everything) for row in piece.tolist()]


def mixed_qubit(rho=None):
    ds = qubit_state(np.diag([0.75, 0.25]) if rho is None else rho)
    t = wright_operator(ds, (0.0,))
    return ds, t


def single(t, *elements):
    """The one-time base family of one decomposition."""
    return base_family(t, [list(elements)])


def assert_same_family(got, want):
    """The same elements and Gram matrices, bit for bit."""
    for name in ("ops", "gram_t", "gram_d", "gram_e"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def random_decomposition(rng, dim):
    """A Haar-random basis grouped into blocks at random cut points."""
    u = random_unitary(rng, dim)
    cuts = sorted(rng.choice(np.arange(1, dim), size=rng.integers(0, dim), replace=False))
    return [projector_onto(u[:, a:b]) for a, b in zip([0, *cuts], [*cuts, dim])]


class TestCheckWindow:
    def test_unit_window(self):
        ds, t = mixed_qubit()
        report = check_window(single(t, EYE), (0,))
        assert report.consistent and report.probabilities == (1.0,)

    def test_computational_window(self):
        ds, t = mixed_qubit()
        report = check_window(single(t, P0, P1), (0, 1))
        assert report.consistent
        assert report.probabilities == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_eigenstate_breaks_strict_positivity(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        report = check_window(single(t, P0, P1), (0, 1))
        assert not report.consistent
        assert "positivity" in report.violated

    def test_incomplete_family_flagged(self):
        # no window can be incomplete: its family refuses the decomposition
        ds, t = mixed_qubit()
        with pytest.raises(ValueError,
                           match=r"decompositions\[0\]: elements must sum to the identity"):
            single(t, P0)

    def test_overlapping_members_flagged(self):
        # projectors summing to the identity are orthogonal, so an overlapping
        # decomposition fails the sum
        ds, t = mixed_qubit()
        with pytest.raises(ValueError, match="elements must sum to the identity"):
            single(t, P0, PLUS)

    def test_interfering_product_family_fails_additivity(self):
        # all 4 two-time product histories: total probability is exactly 1,
        # but the pairwise cross terms do not vanish
        rng = np.random.default_rng(31)
        ds = state_for(random_model(rng, 2))
        t = wright_operator(ds, (0.0, 1.0))
        family = base_family(t, [random_pvm(rng, 2), random_pvm(rng, 2)])
        report = check_window(family, (0, 1, 2, 3))
        assert abs(sum(report.probabilities) - 1.0) <= 1e-12
        assert "additivity" in report.violated

    @pytest.mark.parametrize("labels", [(0, 1, 1), (0, 2), (1, 1), (0, -1), (0, 10 ** 12)])
    def test_labels_must_cover_the_family_with_used_blocks(self, labels):
        ds, t = mixed_qubit()
        with pytest.raises(ValueError, match="labels must give each of the 2 base elements"):
            check_window(single(t, P0, P1), labels)

    @pytest.mark.parametrize("labels", [[0, 0.7], [0, 1.9], ["0", "1"], [True, False],
                                        [0, True], np.array([0.0, 1.0])])
    def test_labels_must_be_integers(self, labels):
        # refused, not truncated, parsed or read as 0 and 1
        ds, t = mixed_qubit()
        family = single(t, P0, P1)
        for decide in (check_window, window):
            with pytest.raises(ValueError, match="labels must give each of the 2 base elements"):
                decide(family, labels)

    def test_numpy_integer_labels_are_accepted(self):
        ds, t = mixed_qubit()
        family = single(t, P0, P1)
        assert window(family, np.array([1, 0], dtype=np.uint8)).labels == (1, 0)
        assert window(family, [np.int64(0), 1]).labels == (0, 1)


class TestCheckWindowOperators:
    def test_single_time_pvm_always_consistent(self):
        rng = np.random.default_rng(32)
        for dim in (2, 3):
            ds = state_for(random_model(rng, dim))
            t = wright_operator(ds, (0.0,))
            assert window(single(t, *random_pvm(rng, dim)), range(dim)).opreport.consistent

    def test_contrast_with_sector_picture(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        family = single(t, P0, P1)
        assert window(family, (0, 1)).opreport.consistent
        assert not check_window(family, (0, 1)).consistent

    def test_two_time_computational_products(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        t2 = wright_operator(ds, (0.0, 1.0))
        family = base_family(t2, [[P0, P1], [P0, P1]])
        assert window(family, (0, 1, 2, 3)).opreport.consistent

    def test_non_projector_member_rejected(self):
        # members are block sums of projectors: the family refuses the rest
        ds, t = mixed_qubit()
        with pytest.raises(ValueError, match="elements must be projectors"):
            single(t, 0.5 * P0, np.eye(2) - 0.5 * P0)

    def test_reads_the_chain_form_gram_only(self):
        ds, t = mixed_qubit()
        family = single(t, P0, P1)
        tampered = dataclasses.replace(family, gram_d=family.gram_d + np.array([[0, 1], [1, 0]]))
        assert window(family, (0, 1)).opreport.consistent
        assert window(tampered, (0, 1)).opreport.violated == ("re-cross-term",)
        assert check_window(tampered, (0, 1)).consistent

    def test_probabilities_are_diagonal_decoherence_values(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        report = window(single(t, P0, P1), (0, 1)).opreport
        assert report.probabilities == pytest.approx((1.0, 0.0), abs=1e-12)
        assert all(isinstance(p, float) for p in report.probabilities)


class TestDecide:
    def test_checks_write_nothing(self):
        ds, t = mixed_qubit()
        family = single(t, P0, P1)
        before = [a.copy() for a in (family.ops, family.gram_t, family.gram_d)]
        check_window(family, (0, 1))
        window(family, (0, 1))
        after = (family.ops, family.gram_t, family.gram_d)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_window_fields_cannot_be_assigned(self):
        ds, t = mixed_qubit()
        w = window(single(t, P0, P1), (0, 1))
        for field, value in (("kreport", None), ("opreport", None), ("members", ()),
                             ("labels", ()), ("family", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.kreport.verdict = "inconsistent"

    def test_attaches_both_reports_to_a_copy(self):
        ds, t = mixed_qubit()
        family = single(t, P0, P1)
        labels = np.array([1, 0])
        w = window(family, labels)
        assert w.family is family and w.labels == (1, 0)
        assert w.kreport == check_window(family, labels)
        assert w.opreport == window(family, labels).opreport
        labels[0] = 0  # the window holds its own copy of the labels
        assert w.labels == (1, 0)
        assert np.allclose([x.op for x in w.members], [P1, P0])

    def test_operator_verdict_does_not_wait_for_the_sector_one(self):
        ds, t = mixed_qubit(np.diag([1.0, 0.0]))
        decided = window(single(t, P0, P1), (0, 1))
        assert not decided.kreport.consistent
        assert decided.opreport.consistent

    def test_near_bound_sums_carry_an_operator_verdict(self):
        # P^2 - P = d^2 1 is within the projector bound, so {P, 1 - P} is a
        # decomposition; a sum of two products P (x) Q misses the bound by
        # 2 d^2 and still gets its operator-picture verdict
        d = 9.4e-6
        p = np.array([[1.0, d], [d, 0.0]])
        ds, _ = mixed_qubit()
        family = base_family(wright_operator(ds, (0.0, 1.0)), [[p, EYE - p]] * 2)
        w = window(family, (0, 0, 0, 1))
        assert not is_projector(w.members[0].op)
        assert w.kreport.consistent and w.opreport.consistent

    def test_each_member_is_checked_once(self, monkeypatch):
        # each decomposition is checked, as one stack of its elements, where
        # its family is built, and no window member is checked again
        ds, t = mixed_qubit()
        calls = count_calls(monkeypatch, "is_projector")
        family = single(t, P0, P1)
        assert [np.array_equal(stack, [P0, P1]) for (stack,) in calls] == [True]
        decided = window(family, (0, 1))
        assert decided.opreport.consistent
        assert len(calls) == 1


class TestBaseFamily:
    def test_kronecker_products_in_row_major_order(self):
        ds, _ = mixed_qubit()
        family = base_family(wright_operator(ds, (0.0, 1.0)), [[P0, P1], [PLUS, MINUS]])
        expected = [np.kron(a, b) for a in (P0, P1) for b in (PLUS, MINUS)]
        assert np.allclose(family.ops, expected)

    @staticmethod
    def assert_builds_like_kron(t, factors):
        ops, expected = base_family(t, factors).ops, oracles.kron_family(factors)
        assert ops.shape == expected.shape
        assert ops.tobytes() == expected.tobytes()  # signed zeros included

    @pytest.mark.parametrize("dim, n_times", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_elements_equal_one_kron_at_a_time(self, dim, n_times):
        rng = np.random.default_rng(100 * dim + n_times)
        ds = state_for(random_model(rng, dim), times=tuple(map(float, range(n_times))))
        t = wright_operator(ds, ds.grid.times)
        for _ in range(3):
            self.assert_builds_like_kron(t, [random_decomposition(rng, dim)
                                             for _ in range(n_times)])

    def test_negative_zeros_keep_their_sign(self):
        # conj gives every real entry the imaginary part -0.0, which a product
        # with 1 + 0j would turn into +0.0
        ds, _ = mixed_qubit()
        for times in [(0.0,), (0.0, 1.0)]:
            t = wright_operator(ds, times)
            self.assert_builds_like_kron(t, [[PLUS.conj(), MINUS.conj()], [P0, P1]][:len(times)])

    def test_one_decomposition_per_support_time(self):
        ds, t = mixed_qubit()
        with pytest.raises(ValueError, match="need one decomposition per support time"):
            base_family(t, [[P0, P1], [P0, P1]])

    def test_decomposition_is_named_in_the_refusal(self):
        ds, t = mixed_qubit()
        with pytest.raises(ValueError, match=r"^decomposition decompositions\[0\]: "
                                              r"elements must be projectors$"):
            base_family(t, [[0.5 * EYE, 0.5 * EYE]])

    def test_gram_matrices_are_the_two_pictures(self):
        rng = np.random.default_rng(38)
        ds = state_for(random_model(rng, 2))
        t = wright_operator(ds, (0.0, 1.0))
        family = base_family(t, [random_pvm(rng, 2), random_pvm(rng, 2)])
        members = oracles.members(t.space, family.ops, (0, 1, 2, 3))
        for a, x in enumerate(members):
            for b, y in enumerate(members):
                assert family.gram_t[a, b] == pytest.approx(hs_inner(x, apply(t, y)), abs=1e-14)
                assert family.gram_d[a, b] == pytest.approx(d_form(ds, x, y), abs=1e-14)
                assert family.gram_e[a, b] == pytest.approx(hs_inner(x, y), abs=1e-14)


@st.composite
def refinement_windows(draw):
    """Decided windows of one sector: every partition of two random base
    families, zero-probability ones included, and the search's windows over
    two decompositions per time.  The second family shares the first one's
    last decomposition, so some refinements cross families; on one time a
    decomposition may carry a zero projector, which leaves its family."""
    dim, n_times = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    pure = draw(st.booleans())
    if pure:  # H = 0 and rho's eigenbasis in the first family: exact zero probabilities
        u = random_unitary(rng, dim)
        model = SystemModel.from_matrices(np.zeros((dim, dim)), projector_onto(u[:, [0]]))
    else:
        model = random_model(rng, dim)
    ds = state_for(model)
    t = wright_operator(ds, ds.grid.times[:n_times])
    first = [[projector_onto(u[:, [i]]) for i in range(dim)] if pure else random_pvm(rng, dim)
             for _ in range(n_times)]
    if n_times == 1 and draw(st.booleans()):
        first[0] = first[0] + [np.zeros((dim, dim), dtype=complex)]
    second = [random_pvm(rng, dim) for _ in range(n_times - 1)] + [first[-1]]
    windows = [w for f in (first, second) for w in partition_windows(base_family(t, f))]
    windows += search_windows(t, [[a, b] for a, b in zip(first, second)])
    return windows


def oracle_relation(windows):
    """The refinement order by the per-pair oracle: [i, j] when window j has
    more members than window i and refines it."""
    return np.array([[len(fine.members) > len(coarse.members)
                      and oracles.is_refinement(fine, coarse) for fine in windows]
                     for coarse in windows], dtype=bool).reshape(len(windows), len(windows))


class TestRefinement:
    def test_window_refines_itself(self):
        # the oracle's relation is reflexive; the kernel's is strict
        _, t = mixed_qubit()
        w = window(single(t, P0, P1), (0, 1))
        assert oracles.is_refinement(w, w)
        assert not refinements([w, w]).any()

    def test_everything_refines_unit(self):
        _, t = mixed_qubit()
        unit = window(single(t, EYE), (0,))
        found = [unit, window(single(t, P0, P1), (0, 1)), window(single(t, PLUS, MINUS), (0, 1))]
        assert refinements(found).tolist() == [[False, True, True], [False] * 3, [False] * 3]

    def test_incompatible_bases_do_not_refine(self):
        rng = np.random.default_rng(34)
        ds = state_for(random_model(rng, 4))
        t = wright_operator(ds, (0.0,))
        coarse = window(single(t, *random_pvm(rng, 4)), (0, 0, 1, 1))
        fine = window(single(t, *random_pvm(rng, 4)), (0, 1, 2, 3))
        assert not refinements([coarse, fine]).any()
        assert not oracles.is_refinement(fine, coarse)

    def test_partition_blocks_refine(self):
        rng = np.random.default_rng(33)
        ds = state_for(random_model(rng, 4))
        t = wright_operator(ds, (0.0,))
        family = single(t, *random_pvm(rng, 4))
        fine = window(family, (0, 1, 2, 3))
        coarse = window(family, (0, 0, 1, 1))
        assert refinements([fine, coarse]).tolist() == [[False, False], [True, False]]

    def test_zero_member_refines_nothing(self):
        # the zero element leaves the family, so no window has a zero member
        # and the relation is the one of the family without it
        _, t = mixed_qubit()
        family = single(t, P0, P1, np.zeros((2, 2), dtype=complex))
        assert_same_family(family, single(t, P0, P1))
        split, unit = (window(family, labels) for labels in ((0, 1), (0, 0)))
        assert refinements([unit, split]).tolist() == [[False, True], [False, False]]

    def test_relation_is_strict_and_empty_list_is_empty(self):
        _, t = mixed_qubit()
        found = list(partition_windows(single(t, P0, P1, np.zeros((2, 2), dtype=complex))))
        assert not np.diagonal(refinements(found)).any()
        assert refinements([]).shape == (0, 0) and refinements([]).dtype == bool

    def test_overlap_blocks_agree_with_label_refinement(self):
        # 922 windows of one family with 2572 members, listed three times:
        # 7716 members against 2766 windows need six blocks of coarse windows
        # under the 2^22 budget.  Within one family whose elements are all
        # nonzero, refinement is refinement of the label partitions.
        ds, t, pvms = degenerate_case(3, 2)
        found = search_windows(t, pvms)
        same = np.array([np.equal.outer(w.labels, w.labels) for w in found])
        finer = (same[:, None] | ~same[None, :]).all(axis=(2, 3))  # [i, j]: j's blocks in i's
        counts = np.array([len(w.members) for w in found])
        assert (len(found), counts.sum()) == (922, 2572)
        expected = np.tile(finer & (counts[:, None] < counts), (3, 3))
        assert np.array_equal(refinements(found * 3), expected)

    @given(refinement_windows())
    @settings(max_examples=25, deadline=None)
    def test_containment_matches_the_block_sum_oracle(self, windows):
        got = refinements(windows)
        assert got.dtype == bool and np.array_equal(got, oracle_relation(windows))
        assert got.any() and not got.all()


class TestPartitionEnumeration:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_counts_match_bell_numbers(self, n):
        assert len(generated_strings(n)) == BELL[n]

    def test_strings_are_restricted_growth(self):
        for rgs in generated_strings(5):
            assert rgs[0] == 0
            for i in range(1, 5):
                assert rgs[i] <= max(rgs[:i]) + 1

    def test_matches_brute_force_partitions(self):
        # oracle: all partitions via equivalence classes of surjections
        def blocks_of(assign):
            blocks = {}
            for idx, a in enumerate(assign):
                blocks.setdefault(a, []).append(idx)
            return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))

        seen = {blocks_of(rgs) for rgs in generated_strings(4)}
        assert seen == {blocks_of(assign) for assign in itertools.product(range(4), repeat=4)}

    @pytest.mark.parametrize("n", range(11))
    def test_numpy_chunks_match_the_loop_oracle(self, n, monkeypatch):
        # partition_windows decides the walk in stacks of at least a chunk
        # (the last may be short) and fewer than two, each string once
        stacks = []
        monkeypatch.setattr("histq.consistency._decide",
                            lambda family, rgs: stacks.append(rgs) or [])
        family = BaseFamily(t=None, ops=np.zeros((n, 1, 1)), gram_t=None, gram_d=None,
                            gram_e=None)
        assert list(partition_windows(family)) == []
        assert all(stack.shape[1] == n and len(stack) < 2 * _SCREEN_CHUNK for stack in stacks)
        assert all(len(stack) >= _SCREEN_CHUNK for stack in stacks[:-1])
        strings = [tuple(row) for stack in stacks for row in stack.tolist()]
        assert sorted(strings) == list(restricted_growth_strings(n))

    def test_empty_string_is_generated_once(self):
        # the root of a walk of length 0 is the empty string, with no children
        assert [piece.shape for piece in _walk(0, everything)] == [(1, 0)]

    def test_partitions_follow_string_order(self):
        rng = np.random.default_rng(39)
        ds = state_for(random_model(rng, 4))
        t = wright_operator(ds, (0.0,))
        base = random_pvm(rng, 4)
        found = {w.labels: w for w in partition_windows(single(t, *base))}
        assert len(found) == BELL[4]
        for rgs, blocks in oracles.partitions(base):
            assert np.allclose([x.op for x in found[rgs].members],
                               [np.sum(b, axis=0) for b in blocks])


class TestSearchWindows:
    def test_qubit_two_basis_family(self):
        ds, t = mixed_qubit()
        found = search_windows(t, [[[P0, P1], [PLUS, MINUS]]])
        assert len(found) == 3
        assert [len(w.members) for w in found] == [2, 2, 1]
        probs = {tuple(round(p, 6) for p in w.kreport.probabilities) for w in found}
        assert (0.75, 0.25) in probs
        assert (0.5, 0.5) in probs
        assert (1.0,) in probs

    def test_search_checks_each_decomposition_once(self, monkeypatch):
        # four families from two decompositions per time: 4 stacks of 2
        # elements, each checked once, not once per family (8 stacks)
        ds, _ = mixed_qubit()
        t2 = wright_operator(ds, (0.0, 1.0))
        calls = count_calls(monkeypatch, "is_projector")
        search_windows(t2, [[[P0, P1], [PLUS, MINUS]]] * 2)
        assert [stack.shape for (stack,) in calls] == [(2, 2, 2)] * 4

    def test_search_names_the_refused_decomposition(self):
        ds, _ = mixed_qubit()
        t2 = wright_operator(ds, (0.0, 1.0))
        with pytest.raises(ValueError,
                           match=r"^decomposition pvms\[1\]\[1\]: elements must sum to the identity$"):
            search_windows(t2, [[[P0, P1]], [[PLUS, MINUS], [P0, P0]]])

    def test_search_checks_the_shape_before_transporting(self):
        ds, t = mixed_qubit()
        with pytest.raises(ValueError, match=r"^decomposition pvms\[0\]\[0\]: sector mismatch: "
                                             r"elements must be 2x2$"):
            search_windows(t, [[[np.eye(3)]]])

    def test_unit_window_is_the_identity_family_and_empty_pvms_are_refused(self):
        ds, t = mixed_qubit()
        unit = window(base_family(t, [[EYE]] * t.space.n_times), (0,))
        assert np.array_equal(unit.members[0].op, EYE)
        assert unit.kreport.consistent and unit.opreport.consistent
        with pytest.raises(ValueError, match="^need one decomposition list per support time$"):
            search_windows(t, [])

    def test_invariant_under_element_permutation(self):
        ds, t = mixed_qubit()
        a = search_windows(t, [[[P0, P1], [PLUS, MINUS]]])
        b = search_windows(t, [[[P1, P0], [MINUS, PLUS]]])
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            keys_a = sorted(np.round(x.op, 9).tobytes() for x in wa.members)
            keys_b = sorted(np.round(x.op, 9).tobytes() for x in wb.members)
            assert keys_a == keys_b

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(35)
        ds = state_for(random_model(rng, 3))
        t = wright_operator(ds, (0.0,))
        for w in search_windows(t, [[random_pvm(rng, 3)]]):
            assert sum(w.kreport.probabilities) == pytest.approx(1.0, abs=1e-9)

    def test_bundled_entropy_checks_only_parsed_and_decomposition_projectors(
            self, monkeypatch, tmp_path):
        # at parse time one stack for the histories' specs (4 non-identity
        # entries) and one per decomposition (2 of 2 named-basis elements),
        # each decomposition again where the two families are built, and no
        # window member; each count is (stacks, matrices)
        calls = collections.defaultdict(lambda: [0, 0])

        def counted(p, _name):
            calls[_name][0] += 1
            calls[_name][1] += len(p)
            return is_projector(p)

        for name, module in list(sys.modules.items()):
            if name.startswith("histq") and hasattr(module, "is_projector"):
                monkeypatch.setattr(module, "is_projector",
                                    lambda p, _name=name: counted(p, _name))
        assert cli_main(["entropy", "--out", str(tmp_path)]) == 0
        assert calls == {"histq.scenario": [3, 8], "histq.consistency": [2, 4]}


class TestMaximallyRefined:
    # a window is maximally refined when its row of the relation is empty
    def test_finest_partition_is_maximal(self):
        ds, t = mixed_qubit()
        found = search_windows(t, [[[P0, P1], [PLUS, MINUS]]])
        comp = next(i for i, w in enumerate(found)
                    if tuple(round(p, 6) for p in w.kreport.probabilities) == (0.75, 0.25))
        assert not refinements(found)[comp].any()

    def test_unit_window_is_not_maximal_here(self):
        ds, t = mixed_qubit()
        found = search_windows(t, [[[P0, P1], [PLUS, MINUS]]])
        unit = next(i for i, w in enumerate(found) if len(w.members) == 1)
        assert refinements(found)[unit].tolist() == [len(w.members) == 2 for w in found]

    def test_singleton_family(self):
        ds, t = mixed_qubit()
        w = window(single(t, EYE), (0,))
        assert refinements([w]).tolist() == [[False]]


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
            factors = [random_pvm(rng, dim) for _ in range(n)]
            for w in partition_windows(base_family(t, factors)):
                if any(p <= 1e-12 for p in w.kreport.probabilities):
                    continue
                checked += 1
                assert w.kreport.consistent == w.opreport.consistent
        assert checked > 50


def base_families(ds, t, pvms):
    """Product-history base families in the order the search visits them."""
    transported = [[[heisenberg(ds.model, p, time, ds.grid.t0) for p in pvm] for pvm in klists]
                   for time, klists in zip(t.space.support, pvms)]
    for choice in itertools.product(*transported):
        yield [functools.reduce(np.kron, combo) for combo in itertools.product(*choice)]


@dataclasses.dataclass
class OracleWindow:
    members: list
    kreport: object
    opreport: object


def oracle_search(ds, t, pvms):
    """The exhaustive reference: every set partition -> member-matrix sector
    check -> member-matrix operator check -> per-member key dedup -> sort."""
    results = {}
    for base in base_families(ds, t, pvms):
        for rgs, _ in oracles.partitions(base):
            ws = oracles.members(t.space, base, rgs)
            report = oracles.check_window(ws, t)
            if report.consistent:
                cand = OracleWindow(ws, report, oracles.check_operator_picture(ds, ws))
                results.setdefault(oracles.window_key(cand), cand)
    ordered = sorted(results.items(), key=lambda kv: (-len(kv[1].members), kv[0]))
    return [w for _, w in ordered]


def assert_same_reports(got, want):
    for rep, ref in ((got.kreport, want.kreport), (got.opreport, want.opreport)):
        assert (rep.verdict, rep.violated) == (ref.verdict, ref.violated)
        assert rep.max_residual == pytest.approx(ref.max_residual, rel=0.0, abs=1e-12)
        assert np.allclose(rep.probabilities, ref.probabilities, rtol=0.0, atol=1e-12)


def assert_same_windows(found, expected):
    assert len(found) == len(expected)
    for got, want in zip(found, expected):
        assert oracles.window_key(got) == oracles.window_key(want)
        assert_same_reports(got, want)


@st.composite
def search_cases(draw, shapes=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))):
    """A state and per-time decompositions of (dim, times) in ``shapes``, with
    base families of at most 8 elements."""
    dim, n_times = draw(st.sampled_from(shapes))
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

    def decomposition(rank_two):
        if rank_two:  # a rank-2 projector and its complement
            u = random_unitary(rng, dim)
            return [projector_onto(u[:, :2]), projector_onto(u[:, 2:])]
        return random_pvm(rng, dim)

    # at dim 3 on two times the second decomposition is a rank-2 split, which
    # keeps the oracle's Bell(N) member-matrix checks at N <= 6
    split = [dim == 3 and (k == 1 or draw(st.booleans())) for k in range(n_times)]
    same_at_every_time = len(set(split)) == 1 and draw(st.booleans())
    repeated = decomposition(split[0])
    alternatives = 1 if n_times == 3 else draw(st.integers(1, 2))
    pvms = [[repeated if same_at_every_time else decomposition(split[k])
             for _ in range(alternatives)] for k in range(n_times)]
    return ds, t, pvms


def kept_strings(g):
    """The strings that ``_screen`` keeps on the Gram matrix ``g``, over all pieces."""
    return {tuple(map(int, row)) for piece in _screen(g) for row in piece}


def oracle_kept(g):
    """The strings that the exhaustive screen keeps, over all chunks."""
    return {tuple(map(int, row)) for chunk in oracles.screen_exhaustive(g) for row in chunk}


def two_matrix_screen(t, base):
    """The screen with the Hilbert-Schmidt Gram matrix S[a, b] = <base_a, base_b>
    beside G, orthogonality tested on S's block sums: the strings it keeps,
    over all strings at once."""
    tol = TOLERANCES
    n, k, _ = base.shape
    vecs = base.transpose(0, 2, 1).reshape(n, k * k)
    g, s = vecs.conj() @ t.matrix @ vecs.T / k, vecs.conj() @ vecs.T / k
    rgs = np.array(list(restricted_growth_strings(n)))
    onehot = (rgs[:, :, None] == np.arange(n)).astype(float)
    onehot_t = onehot.transpose(0, 2, 1)
    greal = onehot_t @ g.real @ onehot
    overlap = np.hypot(onehot_t @ s.real @ onehot, onehot_t @ s.imag @ onehot)
    used = np.arange(n) < rgs.max(axis=1, keepdims=True) + 1
    probs = np.diagonal(greal, axis1=1, axis2=2)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    orth = np.max(overlap[:, upper], axis=1, initial=0.0)
    cross = np.max(np.abs(greal[:, upper]), axis=1, initial=0.0)
    total = probs.sum(axis=1)
    positive = np.all(~used | ((probs > tol.strict_positive) & (probs <= 1.0 + tol.consistency)),
                      axis=1)
    keep = (positive & (orth <= tol.consistency)
            & (np.maximum(cross, np.abs(total - 1.0)) <= tol.consistency))
    return {tuple(map(int, row)) for row in rgs[keep]}


@st.composite
def frame_families(draw):
    """A one-time state and rank-1 positive operators summing to e: each
    projector of a random decomposition is split into the m >= rank vectors
    of a tight frame on its range, with m > rank at least once, so S is not
    diagonal while groupings of whole frames are orthogonal projectors."""
    dim = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    ds = state_for(random_model(rng, dim))
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1))))
    ranks = np.diff([0, *cuts, dim])
    u = random_unitary(rng, dim)
    members, budget, start = [], 6 - dim, 0
    for i, rank in enumerate(ranks):
        extra = draw(st.integers(1 if i == 0 else 0, budget))  # at least one overlapping frame
        budget -= extra
        frame = named_basis("hadamard", rank + extra)[:, :rank]  # orthonormal columns
        vectors = u[:, start:start + rank] @ frame.conj().T
        members += [np.outer(f, f.conj()) for f in vectors.T]
        start += rank
    order = rng.permutation(len(members))
    return ds, wright_operator(ds, (0.0,)), np.array(members)[order]


class TestGramScreen:
    @given(search_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive_oracle(self, case):
        # the screen-kept path: the same windows in the same order, with the
        # oracle's verdicts and probabilities
        ds, t, pvms = case
        assert_same_windows(search_windows(t, pvms), oracle_search(ds, t, pvms))

    @given(search_cases(shapes=((2, 1), (2, 2), (3, 1), (3, 2))))
    @settings(max_examples=30, deadline=None)
    def test_every_partition_matches_the_member_matrix_oracles(self, case):
        # the bridge path: every partition of every family, decided from the
        # two Gram matrices, against the checks on the member matrices
        ds, t, pvms = case
        for factors in itertools.product(*pvms):
            transported = [[heisenberg(ds.model, p, time, ds.grid.t0) for p in pvm]
                           for time, pvm in zip(t.space.support, factors)]
            family = base_family(t, transported)
            found = list(partition_windows(family))
            assert sorted(w.labels for w in found) == list(
                restricted_growth_strings(len(family.ops)))
            for w in found:
                ws = oracles.members(t.space, family.ops, w.labels)
                assert np.array_equal([x.op for x in w.members], [x.op for x in ws])
                expected = OracleWindow(ws, oracles.check_window(ws, t),
                                        oracles.check_operator_picture(ds, ws))
                assert_same_reports(w, expected)

    @given(search_cases())
    @settings(max_examples=30, deadline=None)
    def test_keeps_what_the_two_matrix_screen_kept(self, case):
        # on projector families S is diagonal up to rounding, so dropping it
        # changes no survivor
        ds, t, pvms = case
        for base in map(np.array, base_families(ds, t, pvms)):
            assert kept_strings(t.gram(base)) == two_matrix_screen(t, base)

    @given(frame_families())
    @settings(max_examples=30, deadline=None)
    def test_overlapping_family_keeps_every_accepted_partition(self, case):
        ds, t, base = case
        n, k, _ = base.shape
        vecs = base.transpose(0, 2, 1).reshape(n, k * k)
        s = vecs.conj() @ vecs.T / k
        assert max_abs(s - np.diag(np.diag(s))) > 1e-3  # S is not diagonal
        kept = kept_strings(t.gram(base))
        accepted = 0
        for rgs, _ in oracles.partitions(base):
            if oracles.check_window(oracles.members(t.space, base, rgs), t).consistent:
                accepted += 1
                assert rgs in kept
        assert accepted >= 1  # the one-block window is e

    @pytest.mark.parametrize("basis", [[P0, P1], [PLUS, MINUS]])
    @pytest.mark.parametrize("weight", [0.0, 2e-12])
    def test_strict_positivity_edge_over_many_chunks(self, basis, weight):
        # H = 0 and one basis at every time: mixed-outcome histories have
        # probability 0 (pure rho) or just above strict_positive; every
        # string of the N = 8 family is additive, so the walk prunes nothing
        # and scores all 4140 strings in pieces of at most 256
        ds = qubit_state(np.diag([1.0 - weight, weight]), times=(0.0, 1.0, 2.0))
        t = wright_operator(ds, ds.grid.times)
        pvms = [[basis]] * 3
        assert_same_windows(search_windows(t, pvms), oracle_search(ds, t, pvms))

    def test_nine_element_family_at_dim_three_on_two_times(self):
        # the largest family two times of dim 3 give: Bell(9) = 21147 strings
        rng = np.random.default_rng(40)
        ds = state_for(random_model(rng, 3))
        t = wright_operator(ds, (0.0, 1.0))
        pvms = [[random_pvm(rng, 3)], [random_pvm(rng, 3)]]
        found = search_windows(t, pvms)
        assert len(found) > 1
        assert_same_windows(found, oracle_search(ds, t, pvms))

    def test_rank_two_projectors_at_dim_three(self):
        rng = np.random.default_rng(37)
        ds = state_for(random_model(rng, 3))
        t = wright_operator(ds, (0.0,))
        u = random_unitary(rng, 3)
        pvms = [[[projector_onto(u[:, :2]), projector_onto(u[:, 2:])], random_pvm(rng, 3)]]
        assert_same_windows(search_windows(t, pvms), oracle_search(ds, t, pvms))


def rank_zero(rng, dim, exact):
    """An exact zero, or a near-zero projector: a Hermitian matrix with entries
    up to 1e-11, which passes the projector check."""
    if exact:
        return np.zeros((dim, dim), dtype=complex)
    b = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    return 10.0 ** rng.uniform(-16.0, -11.0) * (0.5 * (b + b.conj().T))


def pad(draw, rng, elements, dim):
    """``elements`` with one or two rank-0 elements inserted at drawn positions."""
    out = list(elements)
    for _ in range(draw(st.integers(1, 2))):
        out.insert(draw(st.integers(0, len(out))), rank_zero(rng, dim, draw(st.booleans())))
    return out


@st.composite
def padded_cases(draw):
    """A ``search_cases`` case and its decompositions with rank-0 elements inserted."""
    ds, t, pvms = draw(search_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    padded = [[pad(draw, rng, pvm, ds.model.dim) for pvm in klists] for klists in pvms]
    return t, pvms, padded


class TestRankZeroElements:
    @given(padded_cases())
    @settings(max_examples=30, deadline=None)
    def test_search_is_unchanged_by_rank_zero_elements(self, case):
        t, pvms, padded = case
        got, want = search_windows(t, padded), search_windows(t, pvms)
        assert [w.labels for w in got] == [w.labels for w in want]
        for a, b in zip(got, want):
            for rep, ref in ((a.kreport, b.kreport), (a.opreport, b.opreport)):
                assert report_bits(rep) == report_bits(ref)
            assert [v.hex() for v in a.squared_norms] == [v.hex() for v in b.squared_norms]
            assert (np.array([x.op for x in a.members]).tobytes()
                    == np.array([x.op for x in b.members]).tobytes())

    @given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_checked_decomposition_keeps_at_most_dim_elements(self, dim, seed, data):
        # the kept elements are the nonzero ones, in order and bit for bit
        rng = np.random.default_rng(seed)
        elements = random_decomposition(rng, dim)
        kept = _decomposition(pad(data.draw, rng, elements, dim), "d", dim)
        assert len(kept) <= dim
        assert kept.tobytes() == np.array(elements, dtype=complex).tobytes()


@st.composite
def decision_families(draw):
    """A base family of ``search_cases`` (first alternative at every time),
    sometimes offered with a zero element in its first decomposition, which
    leaves the family."""
    ds, t, pvms = draw(search_cases())
    factors = [[heisenberg(ds.model, p, time, ds.grid.t0) for p in klists[0]]
               for time, klists in zip(t.space.support, pvms)]
    if draw(st.booleans()):
        factors[0] = [*factors[0], np.zeros_like(factors[0][0])]
    return base_family(t, factors)


def decided_fields(w):
    return w.labels, w.kreport, w.opreport, w.squared_norms


class TestBatchedDecision:
    @given(decision_families())
    @settings(max_examples=40, deadline=None)
    def test_partition_windows_decide_like_one_string_at_a_time(self, family):
        batched = sorted(map(decided_fields, partition_windows(family)), key=lambda f: f[0])
        single_rows = [decided_fields(window(family, rgs))
                       for rgs in restricted_growth_strings(len(family.ops))]
        assert batched == single_rows

    @pytest.mark.parametrize("dim, n_times", [(2, 1), (2, 2), (3, 1)])
    def test_family_with_a_zero_element(self, dim, n_times):
        # the zero element leaves the family: the same elements, Gram
        # matrices and decided windows as the family without it
        rng = np.random.default_rng(10 * dim + n_times)
        ds = state_for(random_model(rng, dim), times=(0.0, 1.0))
        t = wright_operator(ds, ds.grid.times[:n_times])
        factors = [random_pvm(rng, dim) for _ in range(n_times)]
        family = base_family(t, [[*factors[0], np.zeros((dim, dim))], *factors[1:]])
        plain = base_family(t, factors)
        assert len(family.ops) == dim ** n_times
        assert_same_family(family, plain)
        assert (list(map(decided_fields, partition_windows(family)))
                == list(map(decided_fields, partition_windows(plain))))

    @given(decision_families())
    @settings(max_examples=20, deadline=None)
    def test_squared_norms_are_the_members_inner_products(self, family):
        for w in itertools.islice(partition_windows(family), 0, None, 7):
            norms = [hs_inner(x, x).real for x in w.members]
            assert np.allclose(w.squared_norms, norms, rtol=0.0, atol=1e-13)


@st.composite
def near_additive_grams(draw):
    """Hermitian Gram matrices of N <= 8 elements whose diagonal is a
    probability vector and whose off-diagonal entries have magnitudes up to
    a scale of 1e-11 to 1e-7, around the additivity tolerance, so coarse
    strings fail where their refinements pass."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    scale = 10.0 ** draw(st.floats(-11.0, -7.0))
    cross = scale * rng.uniform(-1.0, 1.0, (n, n)) * np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    upper = np.triu(cross, 1)
    return np.diag(rng.dirichlet(np.ones(n))) + upper + upper.conj().T


def degenerate_case(dim, n_times):
    """The maximally mixed state with H = 0 and the computational basis at
    every time: every string of the dim^n_times family is additive, so the
    tree prunes nothing."""
    ds = state_for(SystemModel.from_matrices(np.zeros((dim, dim)), np.eye(dim) / dim),
                   times=tuple(float(k) for k in range(max(n_times, 2))))
    t = wright_operator(ds, ds.grid.times[:n_times])
    basis = named_basis("computational", dim)
    return ds, t, [[[projector_onto(basis[:, [i]]) for i in range(dim)]]] * n_times


def report_bits(report):
    """A report's fields, its floats as hex strings, so -0.0 and 0.0 differ."""
    return (report.verdict, report.violated, report.max_residual.hex(),
            tuple(p.hex() for p in report.probabilities))


class TestStackedMembers:
    @given(decision_families())
    @settings(max_examples=20, deadline=None)
    def test_kernel_is_bit_equal_to_one_sum_per_member(self, family):
        # every string, and the lazy members of a window made outside a search
        strings = list(restricted_growth_strings(len(family.ops)))
        stack, cuts = _member_stack(family.ops, np.array(strings))
        for i, (rgs, members) in enumerate(zip(strings, np.split(stack, cuts))):
            want = np.array([x.op for x in oracles.members(family.space, family.ops, rgs)])
            assert members.tobytes() == want.tobytes()
            if i % 7 == 0:
                got = np.array([x.op for x in window(family, rgs).members])
                assert got.tobytes() == want.tobytes()

    def test_kernel_keeps_the_signs_of_zero_that_np_sum_gives(self):
        ops = np.array([[[-0.0, 1.0], [complex(-0.0, -0.0), 2j]],
                        [[-0.0, -1.0], [complex(0.0, -0.0), -0.0]],
                        [[complex(-0.0, -0.0), -0.0], [-0.0, 0.5]]])
        strings = list(restricted_growth_strings(3))
        stack, cuts = _member_stack(ops, np.array(strings))
        for rgs, members in zip(strings, np.split(stack, cuts)):
            labels = np.array(rgs)
            want = [np.sum(ops[labels == v], axis=0) for v in range(max(rgs) + 1)]
            assert members.tobytes() == np.array(want).tobytes()

    @given(decision_families())
    @settings(max_examples=20, deadline=None)
    def test_check_window_is_the_windows_sector_report(self, family):
        for rgs in restricted_growth_strings(len(family.ops)):
            assert report_bits(check_window(family, rgs)) == report_bits(
                window(family, rgs).kreport)

    @given(near_additive_grams())
    @settings(max_examples=40, deadline=None)
    def test_check_window_is_the_windows_sector_report_near_the_tolerance(self, g):
        n = len(g)
        family = BaseFamily(t=None, ops=np.zeros((n, 1, 1)), gram_t=g, gram_d=g, gram_e=g)
        for rgs in itertools.islice(restricted_growth_strings(n), 0, None, BELL[n] // 60 + 1):
            assert report_bits(check_window(family, rgs)) == report_bits(
                window(family, rgs).kreport)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_search_keeps_the_first_of_two_strings_with_one_member_set(self, seed):
        # one decomposition offered twice at one time, its elements reversed
        # the second time: the two families have the same windows, and the
        # search keeps those of the first family it builds
        rng = np.random.default_rng(seed)
        ds = state_for(random_model(rng, 2))
        t = wright_operator(ds, (0.0,))
        pvm = random_pvm(rng, 2)
        pvms = [[pvm, pvm[::-1]]]
        found = search_windows(t, pvms)
        first = heisenberg(ds.model, np.array(pvm), 0.0, ds.grid.t0)
        assert [w.labels for w in found] == [(0, 1), (0, 0)]
        assert all(w.family.ops.tobytes() == first.tobytes() for w in found)
        assert_same_windows(found, oracle_search(ds, t, pvms))


class TestRefinementScreen:
    @given(search_cases())
    @settings(max_examples=30, deadline=None)
    def test_keeps_what_the_exhaustive_screen_keeps(self, case):
        ds, t, pvms = case
        for base in map(np.array, base_families(ds, t, pvms)):
            g = t.gram(base)
            assert kept_strings(g) == oracle_kept(g)

    @given(frame_families())
    @settings(max_examples=30, deadline=None)
    def test_keeps_what_the_exhaustive_screen_keeps_on_overlapping_families(self, case):
        # the coarsening bound is linear algebra on G, so it holds for
        # families whose overlap matrix is not diagonal
        ds, t, base = case
        g = t.gram(base)
        assert kept_strings(g) == oracle_kept(g)

    @given(near_additive_grams())
    @settings(max_examples=60, deadline=None)
    def test_keeps_what_the_exhaustive_screen_keeps_near_the_tolerance(self, g):
        assert kept_strings(g) == oracle_kept(g)

    def test_margin_keeps_a_finest_string_whose_coarsenings_fail(self):
        # every cross term at 0.9 tol: the finest string passes, its two-block
        # coarsenings sit at 1.8 tol and the one-block root at 5.4 tol, so a
        # prune at tol itself would never reach the finest string
        tol = TOLERANCES.consistency
        g = np.full((3, 3), 0.9 * tol) + np.diag(np.array([0.5, 0.3, 0.2]) - 0.9 * tol)
        assert kept_strings(g) == oracle_kept(g) == {(0, 1, 2)}
        family = BaseFamily(t=None, ops=np.zeros((3, 1, 1)), gram_t=g, gram_d=g, gram_e=g)
        residual = {rgs: check_window(family, rgs).max_residual
                    for rgs in [(0, 0, 0), (0, 0, 1), (0, 1, 2)]}
        assert residual == pytest.approx({(0, 0, 0): 5.4 * tol, (0, 0, 1): 1.8 * tol,
                                          (0, 1, 2): 0.9 * tol}, rel=1e-6)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_unpruned_tree_visits_every_string_once(self, n):
        pieces = list(_walk(n, everything))
        assert all(piece.shape[1] == n and 0 < len(piece) <= _SCREEN_CHUNK for piece in pieces)
        visited = [tuple(row) for piece in pieces for row in piece.tolist()]
        assert len(visited) == len(set(visited)) == BELL[n]
        assert set(visited) == set(restricted_growth_strings(n))

    def test_a_pruned_string_loses_exactly_its_subtree(self):
        # expanding only strings of at most two blocks visits exactly the
        # strings of at most three, each after its parent was expanded
        expanded = set()

        def two_blocks(piece):
            expand = piece.max(axis=1) <= 1
            expanded.update(map(tuple, piece[expand].tolist()))
            return np.ones(len(piece), dtype=bool), expand

        visited = [tuple(row) for piece in _walk(6, two_blocks) for row in piece.tolist()]
        assert sorted(visited) == [s for s in restricted_growth_strings(6) if max(s) <= 2]
        for row in visited[1:]:
            assert tuple(0 if v == max(row) else v for v in row) in expanded

    @pytest.mark.parametrize("n", [9, 12])
    def test_no_piece_exceeds_the_chunk(self, n):
        # the root alone has 2^(n-1) - 1 children; at n = 12 only the root and
        # its children are expanded, to keep the walk short
        sizes = []

        def score(piece):
            sizes.append(len(piece))
            rows = np.ones(len(piece), dtype=bool)
            return rows, rows if n < 12 else piece.max(axis=1) == 0

        visited = sum(len(piece) for piece in _walk(n, score))
        assert max(sizes) <= _SCREEN_CHUNK
        assert visited == (BELL[n] if n < 12 else 2 ** (n - 1))
        assert sizes.count(_SCREEN_CHUNK) >= visited // _SCREEN_CHUNK - n  # pieces are packed

    @pytest.mark.parametrize("dim,n_times", [(2, 3), (3, 2)])
    def test_degenerate_family_scores_every_string(self, dim, n_times):
        ds, t, pvms = degenerate_case(dim, n_times)
        assert_same_windows(search_windows(t, pvms), oracle_search(ds, t, pvms))


class TestStrictRefinements:
    @given(search_cases())
    @settings(max_examples=30, deadline=None)
    def test_member_count_filter_loses_no_refinement(self, case):
        # on search output, refinements with no more members than the window
        # are the window itself, so the strict relation is the oracle's
        # reflexive one without its diagonal
        ds, t, pvms = case
        found = search_windows(t, pvms)
        full = np.array([[c is not w and oracles.is_refinement(c, w) for c in found]
                         for w in found], dtype=bool).reshape(len(found), len(found))
        assert np.array_equal(refinements(found), full)
