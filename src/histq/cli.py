"""Batch front door: scenario files in, deterministic reports and CSV out.

Usage:
    histq <decohere|windows|entropy|diverge|verify>
          [--scenario PATH] [--out DIR] [--seed INT]
          [--max-n INT] [--series b1|b2]

Exit codes: 0 success, 2 scenario, ``--seed`` or ``--max-n`` validation error,
a tolerance override (refused: the tolerances are fixed) or an ``--out`` that
cannot be written, 3 property failure, 4 support sector too large for the
dense constructions (``CapacityError``).  Without ``--scenario`` the bundled
qubit scenario is used.  Reports are computed before ``--out`` is created,
so a failed run leaves none.  Each subcommand imports the modules it runs
when it runs, so a call loads only those, and the parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .decoherence import CapacityError
from .report import (
    TAG_BASIS_SUM,
    TAG_CHAIN,
    TAG_ENTROPY,
    TAG_ILS,
    TAG_QUADRATIC,
    complex_entry,
    write_csv,
    write_json,
)
from .scenario import Scenario, ScenarioError, load_scenario

__all__ = ["main", "bundled_scenario_path"]

# Largest --max-n: b2_series holds about 48 bytes per unit of its top truncation.
MAX_N_LIMIT = 2 ** 22


def bundled_scenario_path() -> Path:
    return Path(resources.files("histq") / "scenarios" / "qubit.json")


def _scenario_section(scn: Scenario, source: str) -> dict:
    return {
        "source": source,
        "dim": scn.dim,
        "times": list(scn.grid.times),
        "t0": scn.grid.t0,
        "seed": scn.seed,
    }


def _decohere_payload(scn: Scenario) -> dict:
    from .core import heisenberg
    from .decoherence import DecoherenceState, chain_gram, d_basis_sum, ils_reconstruct
    from .histories import Proposition, PropositionSpace, chains

    ds = DecoherenceState(model=scn.model, grid=scn.grid)
    support = scn.grid.times
    rows, residual_sum, residual_ils = [], 0.0, 0.0
    moved = heisenberg(scn.model, scn.histories, support, scn.grid.t0)  # times broadcast over rows
    space = PropositionSpace(support=support, dim_single=scn.dim)
    embedded = [Proposition(space=space, factors=tuple(row)) for row in moved]
    chain_rows = chain_gram(ds, chains(moved)).tolist()
    ils, ils_note = None, None
    try:
        ils = ils_reconstruct(ds, support)
    except CapacityError as exc:
        ils_note = str(exc)
    for label_h, hb, row in zip(scn.labels, embedded, chain_rows):
        for label_k, kb, chain in zip(scn.labels, embedded, row):
            values = {TAG_CHAIN: chain, TAG_BASIS_SUM: d_basis_sum(ds, hb, kb)}
            residual_sum = max(residual_sum, abs(chain - values[TAG_BASIS_SUM]))
            if ils is not None:
                values[TAG_ILS] = ils.pair_value(hb, kb)
                residual_ils = max(residual_ils, abs(chain - values[TAG_ILS]))
            rows += [{"h": label_h, "k": label_k, "representation": tag,
                      "value": complex_entry(value)} for tag, value in values.items()]
    agreement = {
        "chain_vs_basis_sum": residual_sum,
        "chain_vs_ils": residual_ils if ils is not None else None,
    }
    if ils_note:
        agreement["ils_skipped"] = ils_note
    return {"histories": scn.labels, "rows": rows, "agreement": agreement}


def _report_entry(report) -> dict:
    return {
        "verdict": report.verdict,
        "violated": list(report.violated),
        "max_residual": report.max_residual,
    }


def _windows_payload(scn: Scenario, found, labels, refines) -> dict:
    entries = []
    for label, w, row in zip(labels, found, refines):
        entries.append({
            "label": label,
            "members": len(w.members),
            "representation": TAG_QUADRATIC,
            "probabilities": [float(p) for p in w.kreport.probabilities],
            "squared_norms": list(w.squared_norms),
            "sector_check": _report_entry(w.kreport),
            "operator_check": _report_entry(w.opreport),
            "maximally_refined": not row.any(),
        })
    return {"support": list(scn.grid.times[:len(scn.pvms)]), "windows": entries}


def _entropy_payload(found, labels, refines, entropy_p) -> dict:
    from .entropy import min_entropy, window_entropy, window_entropy_pnorm

    table = []
    skipped = []
    scored = {w: window_entropy(w) for w in found}  # the search keeps consistent windows only
    for label, w in zip(labels, found):
        for p in entropy_p:
            if p == 2.0:
                rep = scored[w]
            elif not w.opreport.consistent:
                reason = f"operator picture inconsistent: {', '.join(w.opreport.violated)}"
                skipped.append({"window": label, "p": float(p), "reason": reason})
                continue
            else:
                rep = window_entropy_pnorm(w, p)
            table.append({
                "window": label,
                "p": float(p),
                "representation": TAG_ENTROPY,
                "value": rep.value,
                "terms": [{"probability": term.probability,
                           "squared_norm": term.squared_norm,
                           "contribution": term.contribution}
                          for term in rep.terms],
            })
    best_value, best_window = min_entropy(scored)
    values = np.array([scored[w].value for w in found])
    sups = [{"window": label,
             "representation": TAG_ENTROPY,
             "sup_over_refinements": float(max([value, *values[row]]))}
            for label, value, row in zip(labels, values, refines)]
    return {
        "table": table,
        **({"skipped": skipped} if skipped else {}),
        "minimum": {"value": best_value, "window": labels[found.index(best_window)],
                    "note": "upper bound: family is not exhaustive"},
        "suprema": sups,
    }


def _series_section(series) -> dict:
    """Report entry of one truncation series."""
    from .divergence import growth_fit

    fit = growth_fit(series)
    return {
        "representation": TAG_BASIS_SUM,
        "omega_rule": series.omega_rule,
        "points": [[n, v] for n, v in series.points],
        "fit": {"classification": fit.classification,
                "slope": fit.slope, "residual": fit.residual},
    }


def _diverge_payload(which: str, max_n: int | None) -> tuple[dict, list]:
    """The report of the series ``--series`` names, and those series; each is
    also written as ``<label>.csv``."""
    from .divergence import b1_grid, b1_series, b2_grid, b2_series

    # the growth fit needs two decades of N, so never stop below 10^3 or 2^11
    payload, series = {}, []
    if which in ("b1", "both"):
        s1 = b1_series(b1_grid(max(max_n, 1000)) if max_n else b1_grid())
        payload["b1"] = _series_section(s1)
        series.append(s1)
    if which in ("b2", "both"):
        s2 = b2_series(b2_grid(max(max_n, 2 ** 11)) if max_n else b2_grid())
        doubling = [{"from": a, "to": b, "difference": vb - va}
                    for (a, va), (b, vb) in zip(s2.points, s2.points[1:])]
        payload["b2"] = {**_series_section(s2),
                         "doubling_differences": doubling, "ln2": math.log(2)}
        series.append(s2)
    return payload, series


def _verify_payload(scn: Scenario) -> tuple[dict, bool]:
    from .verify import run_suite

    results = run_suite(scn)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail} (residual {r.residual:.3e})")
    # a row per check, its fields in order; JSON has no NaN, so a NaN residual is null
    checks = [{**vars(r), "residual": None if math.isnan(r.residual) else r.residual}
              for r in results]
    ok = all(r.passed for r in results)
    return {"checks": checks, "passed": ok}, ok


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="histq",
        description="decoherence functionals, consistent windows, entropies, "
                    "and divergence trends for finite-dimensional history models")
    parser.add_argument("subcommand",
                        choices=["decohere", "windows", "entropy", "diverge", "verify"])
    parser.add_argument("--scenario", default=None,
                        help="scenario JSON path (default: bundled qubit scenario)")
    parser.add_argument("--out", default="histq-report", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--max-n", type=int, default=None,
                        help="largest truncation for diverge")
    parser.add_argument("--series", choices=["b1", "b2", "both"], default="both")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if "HISTQ_TOL" in os.environ:  # refused, not ignored: its setter expects other bounds
            raise ValueError("HISTQ_TOL is no longer read: the tolerances are fixed "
                             "(see README, Tolerances)")
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.max_n is not None and not 1 <= args.max_n <= MAX_N_LIMIT:
            raise ValueError(f"--max-n must be an integer in [1, {MAX_N_LIMIT}], "
                             f"got {args.max_n}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    source = args.scenario or str(bundled_scenario_path())
    try:
        scn = load_scenario(source)
        if args.seed is not None:
            scn.seed = args.seed

        payload = {"scenario": _scenario_section(scn, source)}
        series = []
        exit_code = 0
        if args.subcommand == "decohere":
            payload["decoherence"] = _decohere_payload(scn)
        elif args.subcommand in ("windows", "entropy"):
            from .consistency import refinements, scenario_windows

            found = scenario_windows(scn)
            refines = refinements(found)
            labels = [f"w{idx:02d}" for idx in range(len(found))]  # by search position
            payload["windows"] = _windows_payload(scn, found, labels, refines)
            if args.subcommand == "entropy":
                payload["entropy"] = _entropy_payload(found, labels, refines, scn.entropy_p)
        elif args.subcommand == "diverge":
            payload["divergence"], series = _diverge_payload(args.series, args.max_n)
        elif args.subcommand == "verify":
            payload["verify"], ok = _verify_payload(scn)
            if not ok:
                exit_code = 3
        out_dir = Path(args.out)  # created only now that every report is computed
        out_dir.mkdir(parents=True, exist_ok=True)
        for s in series:
            write_csv(out_dir / f"{s.label}.csv", ["N", "value"], list(s.points))
        write_json(out_dir / f"{args.subcommand}.json", payload)
    except (ScenarioError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, CapacityError) else 2
    except OSError as exc:  # load_scenario turns its own OSError into ScenarioError
        print(f"error: --out {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_dir / (args.subcommand + '.json')}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
