"""The built-in property suite behind the ``verify`` subcommand.

Each check exercises one contract of the engine on the supplied scenario plus
seeded random side scenarios, and records the worst residual it saw together
with the threshold it was held to.  All randomness is drawn from one
generator seeded by the scenario, so two runs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .consistency import (
    Window,
    search_windows,
    set_partitions,
    strict_refinements,
    window,
)
from .core import SystemModel, TimeGrid, active_tolerances
from .decoherence import (CapacityError, DecoherenceState, d_basis_sum, d_form, d_trace,
                          ils_reconstruct, sector_fits)
from .divergence import b1_direct_value, b1_grid, b1_series, b2_grid, b2_series, growth_fit
from .entropy import refinement_gap, window_entropy, window_entropy_pnorm
from .histories import embed, history
from .propositions import (hs_inner, probability, proposition, unit_proposition,
                           wright_operator)
from .sampling import random_model, random_operator, random_projector, random_pvm
from .scenario import Scenario, ScenarioError

__all__ = ["CheckResult", "run_suite"]

# Fixed property thresholds.  Each bounds an exact identity evaluated in double
# precision, so none follows HISTQ_TOL; representation-agreement and the
# quadratic-form bound of wright-state follow Tolerances.agreement instead.
_THRESHOLDS = {
    "axioms": 1e-12,  # d(1, 1) = 1, Hermiticity, diagonal positivity: dim x dim chains
    "wright-unit": 1e-12,  # <e, T e> = 1: one normalised trace of T
    "wright-self-adjoint": 1e-10,  # T = T^dag entrywise over op_dim: T = P^dag (I x rho) P
    "mismatches": 0.0,  # windows whose verdicts differ between the two pictures
    "gap": 1e-12,  # refinement gap >= 0 on the grid: a difference of logarithms of order 10
    "b1-direct": 1e-10,  # reduced b1 value against the direct double sum
    "b1-slope": 0.0025,  # fitted b1 slope against w_1/2 = 0.25: one percent
    "b2-slope": 0.05,  # fitted b2 log slope against 1 and doubling steps against ln 2
    "regrouping": 1e-12,  # window entropy against its Shannon-plus-norm regrouping
    "p-norm": 1e-10,  # p = 2 against the sector entropy; slack of monotone refinement
    "counterexample": 1e-6,  # p = 3 rise ln(2)/3 on the maximally mixed qubit split
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str


def _side_states(rng, dims=(2, 3), times=(0.0, 1.0)) -> list[DecoherenceState]:
    grid = TimeGrid(times=times)
    out = []
    for dim in dims:
        out.append(DecoherenceState(model=random_model(rng, dim), grid=grid))
    return out


def _product_history(rng, ds: DecoherenceState, n_times: int):
    entries = {}
    for t in ds.grid.times[:n_times]:
        entries[t] = random_projector(rng, ds.model.dim)
    return history(entries)


def _check_axioms(scn: Scenario, rng) -> CheckResult:
    worst = 0.0
    states = _side_states(rng) + [DecoherenceState(model=scn.model, grid=scn.grid)]
    unit = history({})
    for ds in states:
        worst = max(worst, abs(d_trace(ds, unit, unit) - 1.0))
        for _ in range(10):
            n = int(rng.integers(1, min(2, len(ds.grid.times)) + 1))
            h = _product_history(rng, ds, n)
            k = _product_history(rng, ds, n)
            hk = d_trace(ds, h, k)
            worst = max(worst, abs(hk - d_trace(ds, k, h).conjugate()))
            worst = max(worst, max(0.0, -d_trace(ds, h, h).real))
    bound = _THRESHOLDS["axioms"]
    return CheckResult("decoherence-axioms", worst <= bound, worst, bound,
                       "unit norm, Hermiticity, diagonal positivity")


def _check_representations(scn: Scenario, rng) -> CheckResult:
    worst = 0.0
    skipped = []
    scn_state = DecoherenceState(model=scn.model, grid=scn.grid)
    for ds in _side_states(rng) + [scn_state]:
        for n in (1, 2):
            if n > len(ds.grid.times):
                continue
            if not sector_fits(ds.model.dim, n):
                if ds is scn_state:
                    skipped.append(f"n = {n}")
                continue
            support = ds.grid.times[:n]
            ils = ils_reconstruct(ds, support)
            for _ in range(8):
                h = _product_history(rng, ds, n)
                k = _product_history(rng, ds, n)
                ref = d_trace(ds, h, k)
                hb = embed(ds.model, h, support, ds.grid.t0)
                kb = embed(ds.model, k, support, ds.grid.t0)
                worst = max(worst, abs(ref - d_basis_sum(ds, hb, kb)))
                worst = max(worst, abs(ref - ils.pair_value(hb.op, kb.op)))
    bound = active_tolerances().agreement
    detail = "chain form vs basis sum vs doubled-space reconstruction"
    if skipped:
        detail += (f"; scenario skipped at {', '.join(skipped)}: "
                   "support too large for ILS reconstruction")
    return CheckResult("representation-agreement", worst <= bound, worst, bound, detail)


def _check_wright(scn: Scenario, rng) -> CheckResult:
    worst_state = 0.0
    worst_agree = 0.0
    worst_selfadj = 0.0
    states = _side_states(rng)
    for ds in states:
        for n in (1, 2):
            if not sector_fits(ds.model.dim, n):
                continue
            support = ds.grid.times[:n]
            t = wright_operator(ds, support)
            e = unit_proposition(t.space)
            worst_state = max(worst_state, abs(probability(t, e) - 1.0))
            worst_selfadj = max(worst_selfadj,
                                float(np.max(np.abs(t.matrix - t.matrix.conj().T)))
                                / t.space.op_dim)
            for _ in range(10):
                b = proposition(t.space, random_operator(rng, t.space.op_dim))
                hb = b.as_history_operator()
                worst_agree = max(worst_agree,
                                  abs(probability(t, b) - d_form(ds, hb, hb).real))
    worst = max(worst_state, worst_agree, worst_selfadj)
    bound = active_tolerances().agreement
    passed = (worst_state <= _THRESHOLDS["wright-unit"] and worst_agree <= bound
              and worst_selfadj <= _THRESHOLDS["wright-self-adjoint"])
    return CheckResult("wright-state", passed, worst, bound,
                       "unit expectation, quadratic-form agreement, self-adjointness")


def scenario_windows(scn: Scenario) -> list[Window]:
    """Decided windows of the scenario's decompositions; the one path of
    ``verify``, ``windows`` and ``entropy``.  ``ScenarioError`` without
    decompositions, ``CapacityError`` over the sector cap."""
    if not scn.pvms:
        raise ScenarioError("pvms", "scenario defines no decompositions to search")
    ds = DecoherenceState(model=scn.model, grid=scn.grid)
    t = wright_operator(ds, scn.grid.times[:len(scn.pvms)])
    return search_windows(ds, t, scn.pvms)


def _unchecked_note(count: int) -> str:
    """Detail suffix for windows without an operator-picture verdict."""
    return f"; {count} window(s) without operator check: members not projectors" if count else ""


def _check_bridge(scn: Scenario, rng) -> CheckResult:
    tol = active_tolerances()
    decided: list[Window] = []
    for ds in _side_states(rng, dims=(2, 2, 3)):
        for two_time in (False, True):
            if two_time and ds.model.dim > 2:
                continue  # keeps the partition count desk scale
            t = wright_operator(ds, ds.grid.times[:2 if two_time else 1])
            base = random_pvm(rng, ds.model.dim)  # all its coarse grainings, unfiltered
            if two_time:
                second = random_pvm(rng, ds.model.dim)
                base = [np.kron(a, b) for a in base for b in second]
            decided += [window(t.space, [np.sum(block, axis=0) for block in blocks]).decide(ds, t)
                        for blocks in set_partitions(base)]
    skipped = ""
    if scn.pvms:
        try:
            decided += scenario_windows(scn)
        except CapacityError as exc:
            skipped = f"; scenario windows skipped: {exc}"
    positive = [w for w in decided
                if all(p > tol.strict_positive for p in w.kreport.probabilities)]
    compared = [w for w in positive if w.opreport is not None]
    skipped += _unchecked_note(len(positive) - len(compared))
    mismatches = sum(w.kreport.consistent != w.opreport.consistent for w in compared)
    bound = _THRESHOLDS["mismatches"]
    return CheckResult("picture-bridge", mismatches <= bound, float(mismatches), bound,
                       f"verdict agreement on {len(compared)} strictly positive "
                       f"windows{skipped}")


def _check_gap_grid(scn: Scenario, rng) -> CheckResult:
    grid = np.logspace(math.log10(0.1), math.log10(10.0), 60)
    worst = 0.0
    argmin_ok = True
    for q in (1.0, 1.5, 2.0, 3.0):
        values = refinement_gap(grid[:, None], grid[None, :], q)  # row a, column b
        worst = min(worst, float(values.min()))
        argmin_ok &= bool(np.all(np.abs(np.argmin(values, axis=1) - np.arange(grid.size)) <= 1))
    bound = _THRESHOLDS["gap"]
    passed = worst >= -bound and argmin_ok
    return CheckResult("split-gap-grid", passed, abs(min(worst, 0.0)), bound,
                       "nonnegativity and argmin location on the 60x60 grid")


def _check_divergence(scn: Scenario, rng) -> CheckResult:
    fit1 = growth_fit(b1_series(b1_grid()))
    s1_ok = fit1.classification == "linear" and abs(fit1.slope - 0.25) <= _THRESHOLDS["b1-slope"]

    ns2 = b2_grid()
    s2 = b2_series(ns2)
    fit2 = growth_fit(s2)
    values = dict(s2.points)
    doubling = [values[b] - values[a] for a, b in zip(ns2[-5:], ns2[-4:])]  # the last four
    s2_ok = (fit2.classification == "logarithmic"
             and abs(fit2.slope - 1.0) <= _THRESHOLDS["b2-slope"]
             and all(abs(d - math.log(2)) <= _THRESHOLDS["b2-slope"] for d in doubling))

    direct_worst = 0.0
    for n in (2, 4, 6):
        reduced = dict(b1_series([n]).points)[n]
        direct_worst = max(direct_worst, abs(reduced - b1_direct_value(n)))
    passed = s1_ok and s2_ok and direct_worst <= _THRESHOLDS["b1-direct"]
    return CheckResult(
        "divergence-trends", passed, direct_worst, _THRESHOLDS["b1-direct"],
        f"b1 slope {fit1.slope:.6f} ({fit1.classification}), "
        f"b2 slope {fit2.slope:.4f} ({fit2.classification}), "
        f"reduced-vs-direct residual {direct_worst:.2e}")


def _check_entropy(scn: Scenario, rng) -> CheckResult:
    worst_identity = 0.0
    worst_p2 = 0.0
    monotone_ok = True
    pairs = 0
    unscored = 0
    states = _side_states(rng, dims=(2, 3, 4), times=(0.0,))
    for ds in states:
        t = wright_operator(ds, (0.0,))
        found = search_windows(ds, t, [[random_pvm(rng, ds.model.dim)]])
        scored = [w for w in found if w.opreport is not None]  # p-norm needs it
        unscored += len(found) - len(scored)
        pnorm = {(w, p): window_entropy_pnorm(w, p).value
                 for w in scored for p in (1.0, 1.5, 2.0)}
        for w in found:
            rep = window_entropy(w)
            probs = w.kreport.probabilities
            shannon = -sum(p * math.log(p) for p in probs)
            regroup = shannon + sum(
                p * math.log(hs_inner(x, x).real) for p, x in zip(probs, w.members))
            worst_identity = max(worst_identity, abs(rep.value - regroup))
            if w.opreport is not None:
                worst_p2 = max(worst_p2, abs(rep.value - pnorm[w, 2.0]))
        for coarse in scored:
            for fine in strict_refinements(coarse, scored):
                pairs += 1
                for p in (1.0, 1.5, 2.0):
                    if pnorm[coarse, p] - pnorm[fine, p] < -_THRESHOLDS["p-norm"]:
                        monotone_ok = False

    # p = 3 must fail monotonicity on the maximally mixed qubit split.
    mm = DecoherenceState(
        model=SystemModel.from_matrices(np.zeros((2, 2)), np.eye(2) / 2),
        grid=TimeGrid(times=(0.0,)))
    t = wright_operator(mm, (0.0,))
    coarse_w = window(t.space, [np.eye(2, dtype=complex)]).decide(mm, t)
    fine_w = window(t.space, [np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex)]).decide(mm, t)
    rise = (window_entropy_pnorm(fine_w, 3.0).value
            - window_entropy_pnorm(coarse_w, 3.0).value)
    counterexample_ok = abs(rise - math.log(2) / 3.0) <= _THRESHOLDS["counterexample"]

    worst = max(worst_identity, worst_p2)
    passed = (worst_identity <= _THRESHOLDS["regrouping"] and worst_p2 <= _THRESHOLDS["p-norm"]
              and monotone_ok and counterexample_ok)
    return CheckResult(
        "entropy-identities", passed, worst, _THRESHOLDS["p-norm"],
        f"regrouping and p=2 agreement, monotone on {pairs} refinement pairs, "
        f"p=3 counterexample rise {rise:.6f}{_unchecked_note(unscored)}")


def run_suite(scn: Scenario) -> list[CheckResult]:
    """Run every property check; deterministic for a fixed scenario and seed."""
    rng = np.random.default_rng(scn.seed)
    checks = [
        _check_axioms,
        _check_representations,
        _check_wright,
        _check_bridge,
        _check_gap_grid,
        _check_divergence,
        _check_entropy,
    ]
    return [check(scn, rng) for check in checks]
