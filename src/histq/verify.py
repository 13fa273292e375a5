"""The built-in property suite behind the ``verify`` subcommand.

Each check exercises one contract of the engine on the supplied scenario plus
seeded random side scenarios, and records the worst residual it saw together
with the threshold it was held to.  All randomness is drawn from one
generator seeded by the scenario, so two runs produce identical reports.
The decoherence checks evaluate each sector's random histories or operators
as one stack, with one call per representation of the functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .consistency import (Window, base_family, partition_windows, refinements,
                          scenario_windows, search_windows, window)
from .core import TOLERANCES, SystemModel, TimeGrid, heisenberg, tensor_product
from .decoherence import (CapacityError, DecoherenceState, chain_gram, d_basis_sums, d_gram,
                          d_trace, ils_reconstruct, sector_fits)
from .divergence import b1_direct_value, b1_grid, b1_series, b2_grid, b2_series, growth_fit
from .entropy import refinement_gap, window_entropy, window_entropy_pnorm
from .histories import chains, history
from .propositions import hs_inner, probabilities, wright_operator
from .sampling import (draw_projectors, random_model, random_operators, random_projectors,
                       random_pvm, resolve_projectors)
from .scenario import Scenario

__all__ = ["CheckResult", "run_suite"]

# Fixed property thresholds.  Each bounds an exact identity evaluated in double
# precision; representation-agreement and the quadratic-form bound of
# wright-state use TOLERANCES.agreement instead.
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


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN when one is NaN (``max`` can drop a NaN)."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str


def _side_states(rng, dims=(2, 3), times=(0.0, 1.0)) -> list[DecoherenceState]:
    grid = TimeGrid(times=times)
    return [DecoherenceState(model=random_model(rng, dim), grid=grid) for dim in dims]


def _product_histories(ds: DecoherenceState, n_times: int, ps) -> np.ndarray:
    """The projectors ``ps``, drawn history by history and within a history
    time by time, as the stack (count, n_times, dim, dim) of product histories
    on the first ``n_times`` times of ``ds``, transported by one ``heisenberg`` call.
    ``draw_projectors`` takes each projector's rank and Gaussian matrices in
    turn, so a block's draws are those of one call per projector; they are
    projectors by construction, so nothing checks them again."""
    stack = np.reshape(ps, (-1, n_times, ds.model.dim, ds.model.dim))
    return heisenberg(ds.model, stack, ds.grid.times[:n_times], ds.grid.t0)


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    """The largest |a - b| of two arrays of values; NaN when one is NaN."""
    return float(np.abs(a - b).max())


def _check_axioms(scn: Scenario, rng) -> CheckResult:
    worst = 0.0
    states = _side_states(rng) + [DecoherenceState(model=scn.model, grid=scn.grid)]
    unit = history({})
    for ds in states:
        worst = _worst(worst, abs(d_trace(ds, unit, unit) - 1.0))
        times, ranks, zs = [], [], []  # per drawn projector: its history's number of times
        for _ in range(10):
            n = int(rng.integers(1, min(2, len(ds.grid.times)) + 1))
            r, z = draw_projectors(rng, ds.model.dim, 2 * n)  # the iteration's h and k
            times, ranks = times + [n] * len(r), ranks + r
            zs.append(z)
        drawn = resolve_projectors(ranks, np.concatenate(zs))  # one QR per state
        for n in (1, 2):
            ps = [p for p, m in zip(drawn, times) if m == n]
            if ps:
                d = chain_gram(ds, chains(_product_histories(ds, n, ps)))
                h = np.arange(0, len(d), 2)  # h at even rows, its k after it
                worst = _worst(worst, _gap(d[h, h + 1], d[h + 1, h].conj()),
                               float(-d[h, h].real.min()))
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
            ils = ils_reconstruct(ds, ds.grid.times[:n])
            stack = _product_histories(ds, n, random_projectors(rng, ds.model.dim, 16 * n))
            h = np.arange(0, len(stack), 2)  # h at even rows, its k after it
            chain = chain_gram(ds, chains(stack))[h, h + 1]  # chain form from the factors
            dense = tensor_product(stack.swapaxes(0, 1))  # each history's operator
            worst = _worst(worst, _gap(chain, d_basis_sums(ds, stack[h], stack[h + 1])),
                           _gap(chain, ils.pair_values(dense[h], dense[h + 1])))
    bound = TOLERANCES.agreement
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
            t = wright_operator(ds, ds.grid.times[:n])
            k = t.space.op_dim
            ops = np.concatenate([np.eye(k)[None], random_operators(rng, k, 10)])  # e first
            probs = probabilities(t, ops)
            worst_state = _worst(worst_state, abs(probs[0] - 1.0))
            worst_selfadj = _worst(worst_selfadj, t.self_adjoint_residual())
            worst_agree = _worst(worst_agree,
                                 _gap(probs[1:], d_gram(ds, ops[1:], n).diagonal().real))
    worst = _worst(worst_state, worst_agree, worst_selfadj)
    bound = TOLERANCES.agreement
    passed = (worst_state <= _THRESHOLDS["wright-unit"] and worst_agree <= bound
              and worst_selfadj <= _THRESHOLDS["wright-self-adjoint"])
    return CheckResult("wright-state", passed, worst, bound,
                       "unit expectation, quadratic-form agreement, self-adjointness")


def _check_bridge(scn: Scenario, rng) -> CheckResult:
    decided: list[Window] = []
    for ds in _side_states(rng, dims=(2, 2, 3)):
        for two_time in (False, True):
            if two_time and ds.model.dim > 2:
                continue  # keeps the partition count desk scale
            t = wright_operator(ds, ds.grid.times[:2 if two_time else 1])
            factors = [random_pvm(rng, ds.model.dim) for _ in t.space.support]
            decided += partition_windows(base_family(t, factors))  # all, unfiltered
    skipped = ""
    if scn.pvms:
        try:
            decided += scenario_windows(scn)
        except CapacityError as exc:
            skipped = f"; scenario windows skipped: {exc}"
    positive = [w for w in decided
                if all(p > TOLERANCES.strict_positive for p in w.kreport.probabilities)]
    mismatches = sum(w.kreport.consistent != w.opreport.consistent for w in positive)
    bound = _THRESHOLDS["mismatches"]
    return CheckResult("picture-bridge", mismatches <= bound, float(mismatches), bound,
                       f"verdict agreement on {len(positive)} strictly positive "
                       f"windows{skipped}")


def _check_gap_grid(scn: Scenario, rng) -> CheckResult:
    grid = np.logspace(math.log10(0.1), math.log10(10.0), 60)
    worst = 0.0  # the largest negative part of a gap
    argmin_ok = True
    for q in (1.0, 1.5, 2.0, 3.0):
        values = refinement_gap(grid[:, None], grid[None, :], q)  # row a, column b
        worst = _worst(worst, -float(values.min()))
        argmin_ok &= bool(np.all(np.abs(np.argmin(values, axis=1) - np.arange(grid.size)) <= 1))
    bound = _THRESHOLDS["gap"]
    passed = worst <= bound and argmin_ok
    return CheckResult("split-gap-grid", passed, worst, bound,
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
        direct_worst = _worst(direct_worst, abs(reduced - b1_direct_value(n)))
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
    states = _side_states(rng, dims=(2, 3, 4), times=(0.0,))
    for ds in states:
        t = wright_operator(ds, (0.0,))
        found = search_windows(t, [[random_pvm(rng, ds.model.dim)]])
        pnorm = {(w, p): window_entropy_pnorm(w, p).value
                 for w in found for p in (1.0, 1.5, 2.0)}
        for w in found:
            rep = window_entropy(w)
            probs = w.kreport.probabilities
            shannon = -sum(p * math.log(p) for p in probs)
            regroup = shannon + sum(
                p * math.log(hs_inner(x, x).real) for p, x in zip(probs, w.members))
            worst_identity = _worst(worst_identity, abs(rep.value - regroup))
            worst_p2 = _worst(worst_p2, abs(rep.value - pnorm[w, 2.0]))
        refining = list(zip(*np.nonzero(refinements(found))))  # (i, j): j refines i
        pairs += len(refining)
        monotone_ok &= all(pnorm[found[i], p] - pnorm[found[j], p] >= -_THRESHOLDS["p-norm"]
                           for i, j in refining for p in (1.0, 1.5, 2.0))

    # p = 3 must fail monotonicity on the maximally mixed qubit split.
    mm = DecoherenceState(
        model=SystemModel.from_matrices(np.zeros((2, 2)), np.eye(2) / 2),
        grid=TimeGrid(times=(0.0,)))
    split = base_family(wright_operator(mm, (0.0,)),
                        [[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]])
    coarse_w, fine_w = window(split, (0, 0)), window(split, (0, 1))
    rise = (window_entropy_pnorm(fine_w, 3.0).value
            - window_entropy_pnorm(coarse_w, 3.0).value)
    counterexample_ok = abs(rise - math.log(2) / 3.0) <= _THRESHOLDS["counterexample"]

    worst = _worst(worst_identity, worst_p2)
    passed = (worst_identity <= _THRESHOLDS["regrouping"] and worst_p2 <= _THRESHOLDS["p-norm"]
              and monotone_ok and counterexample_ok)
    return CheckResult(
        "entropy-identities", passed, worst, _THRESHOLDS["p-norm"],
        f"regrouping and p=2 agreement, monotone on {pairs} refinement pairs, "
        f"p=3 counterexample rise {rise:.6f}")


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
