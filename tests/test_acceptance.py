"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import itertools
import json
import math
import time

import numpy as np

from histq.cli import main as cli_main
from histq.consistency import base_family, partition_windows, refinements, window
from histq.core import TimeGrid
from histq.decoherence import DecoherenceState, d_basis_sum, ils_reconstruct
from histq.divergence import b1_direct_value, b1_series, b2_series, growth_fit
from histq.entropy import refinement_gap, window_entropy, window_entropy_pnorm
from histq.histories import proposition
from histq.propositions import wright_operator
from histq.sampling import (
    random_model,
    random_operator,
    random_pvm,
)

from helpers import P0, P1, PLUS, chain_form, qubit_state
from oracles import (apply, d_form, embed, history, probability, random_projector,
                     unit_proposition)


def _verdict(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def product_history(rng, ds, n):
    return history({t: random_projector(rng, ds.model.dim)
                    for t in ds.grid.times[:n]})


def test_criterion_1_decoherence_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    unit = history({})
    worst = 0.0
    scenarios = 0
    for _ in range(21):
        dim = int(rng.choice([2, 3, 4]))
        ds = DecoherenceState(model=random_model(rng, dim),
                              grid=TimeGrid(times=(0.0, 0.6, 1.7)))
        scenarios += 1
        worst = max(worst, abs(chain_form(ds, unit, unit) - 1.0))
        for _ in range(50):
            n = int(rng.integers(1, 4))
            h = product_history(rng, ds, n)
            k = product_history(rng, ds, n)
            worst = max(worst, abs(chain_form(ds, h, k) - chain_form(ds, k, h).conjugate()))
            worst = max(worst, max(0.0, -chain_form(ds, h, h).real))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 30.0
    _verdict("criterion-1 decoherence axioms", ok,
             f"{scenarios} scenarios, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_triple_representation_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    pairs = 0
    for dim, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ds = DecoherenceState(model=random_model(rng, dim),
                              grid=TimeGrid(times=(0.0, 1.0)))
        support = ds.grid.times[:n]
        ils = ils_reconstruct(ds, support)
        for _ in range(25):
            pairs += 1
            h = product_history(rng, ds, n)
            k = product_history(rng, ds, n)
            chain = chain_form(ds, h, k)
            hb = embed(ds.model, h, support, ds.grid.t0)
            kb = embed(ds.model, k, support, ds.grid.t0)
            total = d_basis_sum(ds, hb, kb)
            rec = ils.pair_value(hb, kb)
            worst = max(worst, abs(chain - total), abs(chain - rec), abs(total - rec))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and pairs == 100 and elapsed < 60.0
    _verdict("criterion-2 triple representation", ok,
             f"{pairs} projector pairs, max disagreement {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_wright_operator():
    rng = np.random.default_rng(1003)
    worst_unit = 0.0
    worst_agree = 0.0
    worst_selfadj = 0.0
    draws = 0
    for dim, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ds = DecoherenceState(model=random_model(rng, dim),
                              grid=TimeGrid(times=(0.0, 1.0)))
        t = wright_operator(ds, ds.grid.times[:n])
        worst_unit = max(worst_unit, abs(probability(t, unit_proposition(t.space)) - 1.0))
        for _ in range(25):
            draws += 1
            b = proposition(t.space, random_operator(rng, t.space.op_dim))
            worst_agree = max(worst_agree,
                              abs(probability(t, b) - d_form(ds, b, b).real))
            b2 = proposition(t.space, random_operator(rng, t.space.op_dim))
            from histq.propositions import hs_inner
            lhs = hs_inner(b, apply(t, b2))
            rhs = hs_inner(apply(t, b), b2)
            worst_selfadj = max(worst_selfadj, abs(lhs - rhs))
    ok = worst_unit <= 1e-12 and worst_agree <= 1e-9 and worst_selfadj <= 1e-10
    _verdict("criterion-3 wright operator", ok,
             f"{draws} draws, unit {worst_unit:.2e}, agreement {worst_agree:.2e}, "
             f"self-adjointness {worst_selfadj:.2e}")


def test_criterion_4_worked_qubit_numbers():
    ds = qubit_state(np.diag([1.0, 0.0]))
    h = history({0.0: PLUS, 1.0: P0})
    d_value = chain_form(ds, h, h)
    d_ok = abs(d_value - 0.25) <= 1e-12

    ds_mixed = qubit_state(np.diag([0.75, 0.25]))
    t = wright_operator(ds_mixed, (0.0,))
    w = window(base_family(t, [[P0, P1]]), (0, 1))
    i2 = window_entropy(w).value
    i1 = window_entropy_pnorm(w, 1).value
    i2_ok = abs(i2 - (-0.13081)) <= 1e-4
    i1_ok = abs(i1 - (-0.82396)) <= 1e-4
    ok = d_ok and i2_ok and i1_ok
    _verdict("criterion-4 worked qubit numbers", ok,
             f"d={d_value.real:.12f}, I2={i2:.5f}, I1={i1:.5f}")


def _partition_refines(fine_labels, coarse_labels) -> bool:
    """Set-theoretic oracle on index partitions, given as label strings."""
    def blocks(labels):
        return [frozenset(i for i, v in enumerate(labels) if v == b) for b in set(labels)]
    sets = blocks(coarse_labels)
    return all(any(fb <= cs for cs in sets) for fb in blocks(fine_labels))


def test_criterion_5_refinement_monotonicity():
    rng = np.random.default_rng(1005)
    pairs = 0
    worst_increase = -math.inf
    cross_checked = 0
    plan = [4] * 10 + [3] * 6 + [2] * 10
    for dim in plan:
        ds = DecoherenceState(model=random_model(rng, dim),
                              grid=TimeGrid(times=(0.0,)))
        t = wright_operator(ds, (0.0,))
        entries = []
        for w in partition_windows(base_family(t, [random_pvm(rng, dim)])):
            if not w.kreport.consistent:
                continue
            values = {p: window_entropy_pnorm(w, p).value for p in (1.0, 1.5, 2.0)}
            entries.append((w.labels, w, values))
        relation = refinements([w for _, w, _ in entries])
        for (fine, (fine_idx, _, fine_vals)), (coarse, (coarse_idx, _, coarse_vals)) \
                in itertools.permutations(enumerate(entries), 2):
            # the numeric refinement relation agrees with the labels on every pair
            cross_checked += 1
            assert relation[coarse, fine] == _partition_refines(fine_idx, coarse_idx)
            if not relation[coarse, fine]:
                continue
            pairs += 1
            for p in (1.0, 1.5, 2.0):
                increase = fine_vals[p] - coarse_vals[p]
                worst_increase = max(worst_increase, increase)

    ds_mm = qubit_state(np.eye(2) / 2)
    t = wright_operator(ds_mm, (0.0,))
    family = base_family(t, [[P0, P1]])
    split, unit = window(family, (0, 1)), window(family, (0, 0))
    rise = window_entropy_pnorm(split, 3).value - window_entropy_pnorm(unit, 3).value
    counterexample_ok = abs(rise - math.log(2) / 3) <= 1e-6 and rise > 0

    ok = pairs >= 500 and worst_increase <= 1e-10 and counterexample_ok
    _verdict("criterion-5 refinement monotonicity", ok,
             f"{pairs} pairs, worst increase {worst_increase:.2e}, "
             f"p=3 counterexample rise {rise:.6f} (cross-checked {cross_checked})")


def test_criterion_6_gap_inequality_grid():
    grid = np.logspace(math.log10(0.1), math.log10(10.0), 60)
    lowest = math.inf
    argmin_ok = True
    for q in (1.0, 1.5, 2.0, 3.0):
        for ia, a in enumerate(grid):
            values = [refinement_gap(a, b, q) for b in grid]
            lowest = min(lowest, min(values))
            if abs(int(np.argmin(values)) - ia) > 1:
                argmin_ok = False
    ok = lowest >= -1e-12 and argmin_ok
    _verdict("criterion-6 gap inequality", ok,
             f"grid minimum {lowest:.2e}, argmin within one step: {argmin_ok}")


def test_criterion_7_divergence_trends():
    started = time.perf_counter()
    ns1 = sorted(set(int(round(x)) for x in np.logspace(1, 4, 12)))
    fit1 = growth_fit(b1_series(ns1))
    b1_ok = fit1.classification == "linear" and abs(fit1.slope - 0.25) <= 0.0025

    ns2 = [2 ** k for k in range(4, 15)]
    values = dict(b2_series(ns2).points)
    doubling_ok = all(abs(values[2 ** (k + 1)] - values[2 ** k] - math.log(2)) <= 0.05
                      for k in range(10, 14))

    direct_worst = max(abs(dict(b1_series([n]).points)[n] - b1_direct_value(n))
                       for n in (2, 3, 4, 5, 6))
    elapsed = time.perf_counter() - started
    ok = b1_ok and doubling_ok and direct_worst <= 1e-10 and elapsed < 60.0
    _verdict("criterion-7 divergence trends", ok,
             f"b1 slope {fit1.slope:.6f}, doubling near ln2: {doubling_ok}, "
             f"direct residual {direct_worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_picture_bridge():
    rng = np.random.default_rng(1008)
    scenarios = 0
    windows_checked = 0
    mismatches = 0
    while scenarios < 50:
        scenarios += 1
        dim = int(rng.choice([2, 3]))
        two_time = dim == 2 and bool(rng.integers(2))
        ds = DecoherenceState(model=random_model(rng, dim),
                              grid=TimeGrid(times=(0.0, 1.0)))
        n = 2 if two_time else 1
        t = wright_operator(ds, ds.grid.times[:n])
        factors = [random_pvm(rng, dim) for _ in range(n)]
        for w in partition_windows(base_family(t, factors)):
            if any(p <= 1e-12 for p in w.kreport.probabilities):
                continue
            windows_checked += 1
            if w.kreport.consistent != w.opreport.consistent:
                mismatches += 1
    ok = mismatches == 0 and windows_checked >= 100
    _verdict("criterion-8 picture bridge", ok,
             f"{scenarios} scenarios, {windows_checked} windows, "
             f"{mismatches} verdict mismatches")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    code_a = cli_main(["verify", "--out", str(tmp_path / "a")])
    code_b = cli_main(["verify", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    bytes_a = (tmp_path / "a" / "verify.json").read_bytes()
    bytes_b = (tmp_path / "b" / "verify.json").read_bytes()
    identical = bytes_a == bytes_b
    passed = json.loads(bytes_a)["verify"]["passed"]
    ok = code_a == 0 and code_b == 0 and identical and passed
    _verdict("criterion-9 cli determinism", ok,
             f"exit codes ({code_a}, {code_b}), byte-identical: {identical}")
