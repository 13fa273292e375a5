"""Batch front door: scenario files in, deterministic reports and CSV out.

Usage:
    histq <decohere|windows|entropy|diverge|verify>
          [--scenario PATH] [--out DIR] [--seed INT]
          [--max-n INT] [--series b1|b2]

Exit codes: 0 success, 2 scenario or ``HISTQ_TOL`` validation error,
3 property failure, 4 support sector too large for the dense constructions
(``CapacityError``).
Without ``--scenario`` the bundled qubit scenario is used.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import resources
from pathlib import Path

from .consistency import is_maximally_refined
from .core import active_tolerances
from .decoherence import CapacityError, DecoherenceState, d_basis_sum, d_trace, ils_reconstruct
from .divergence import b1_grid, b1_series, b2_grid, b2_series, growth_fit
from .entropy import min_entropy, sup_refinement_entropy, window_entropy, window_entropy_pnorm
from .histories import embed
from .propositions import hs_inner
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
from .verify import run_suite, scenario_windows

__all__ = ["main", "bundled_scenario_path"]


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
    ds = DecoherenceState(model=scn.model, grid=scn.grid)
    support = scn.grid.times
    rows = []
    residual_sum = 0.0
    residual_ils = 0.0
    labels = [label for label, _ in scn.histories]
    embedded = {label: embed(scn.model, h, support, scn.grid.t0)
                for label, h in scn.histories}
    ils = None
    ils_note = None
    try:
        ils = ils_reconstruct(ds, support)
    except CapacityError as exc:
        ils_note = str(exc)
    for label_h, h in scn.histories:
        for label_k, k in scn.histories:
            hb, kb = embedded[label_h], embedded[label_k]
            chain = d_trace(ds, h, k)
            values = {TAG_CHAIN: chain, TAG_BASIS_SUM: d_basis_sum(ds, hb, kb)}
            residual_sum = max(residual_sum, abs(chain - values[TAG_BASIS_SUM]))
            if ils is not None:
                values[TAG_ILS] = ils.pair_value(hb.op, kb.op)
                residual_ils = max(residual_ils, abs(chain - values[TAG_ILS]))
            rows += [{"h": label_h, "k": label_k, "representation": tag,
                      "value": complex_entry(value)} for tag, value in values.items()]
    agreement = {
        "chain_vs_basis_sum": residual_sum,
        "chain_vs_ils": residual_ils if ils is not None else None,
    }
    if ils_note:
        agreement["ils_skipped"] = ils_note
    return {"histories": labels, "rows": rows, "agreement": agreement}


def _report_entry(report) -> dict:
    return {
        "verdict": report.verdict,
        "violated": list(report.violated),
        "max_residual": report.max_residual,
    }


def _windows_payload(scn: Scenario, found, labels) -> dict:
    entries = []
    for label, w in zip(labels, found):
        entries.append({
            "label": label,
            "members": len(w.members),
            "representation": TAG_QUADRATIC,
            "probabilities": [float(p) for p in w.kreport.probabilities],
            "squared_norms": [hs_inner(x, x).real for x in w.members],
            "sector_check": _report_entry(w.kreport),
            "operator_check": _report_entry(w.opreport) if w.opreport else None,
            "maximally_refined": is_maximally_refined(w, found),
        })
    return {"support": list(scn.grid.times[:len(scn.pvms)]), "windows": entries}


def _entropy_payload(scn: Scenario, found, labels) -> dict:
    table = []
    skipped = []
    for label, w in zip(labels, found):
        for p in scn.entropy_p:
            if p == 2.0:
                rep = window_entropy(w)
            elif w.opreport is None or not w.opreport.consistent:
                reason = ("members are not projectors" if w.opreport is None else
                          f"operator picture inconsistent: {', '.join(w.opreport.violated)}")
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
    best_value, best_window = min_entropy(found)
    sups = [{"window": label,
             "representation": TAG_ENTROPY,
             "sup_over_refinements": sup_refinement_entropy(w, found)}
            for label, w in zip(labels, found)]
    return {
        "table": table,
        **({"skipped": skipped} if skipped else {}),
        "minimum": {"value": best_value, "window": labels[found.index(best_window)],
                    "note": "upper bound: family is not exhaustive"},
        "suprema": sups,
    }


def _series_section(series, out_dir: Path) -> dict:
    """Report entry of one truncation series; also writes ``<label>.csv``."""
    fit = growth_fit(series)
    write_csv(out_dir / f"{series.label}.csv", ["N", "value"], list(series.points))
    return {
        "representation": TAG_BASIS_SUM,
        "omega_rule": series.omega_rule,
        "points": [[n, v] for n, v in series.points],
        "fit": {"classification": fit.classification,
                "slope": fit.slope, "residual": fit.residual},
    }


def _diverge_payload(scn: Scenario, out_dir: Path, series: str, max_n: int | None) -> dict:
    # the growth fit needs two decades of N, so never stop below 10^3 or 2^11
    payload = {}
    if series in ("b1", "both"):
        ns = b1_grid(max(max_n, 1000)) if max_n else b1_grid()
        payload["b1"] = _series_section(b1_series(ns), out_dir)
    if series in ("b2", "both"):
        ns = b2_grid(max(max_n, 2 ** 11)) if max_n else b2_grid()
        s2 = b2_series(ns)
        values = dict(s2.points)
        doubling = [{"from": a, "to": b, "difference": values[b] - values[a]}
                    for a, b in zip(ns, ns[1:])]
        payload["b2"] = {**_series_section(s2, out_dir),
                         "doubling_differences": doubling, "ln2": math.log(2)}
    return payload


def _verify_payload(scn: Scenario) -> tuple[dict, bool]:
    results = run_suite(scn)
    checks = [{
        "name": r.name,
        "passed": r.passed,
        "residual": r.residual,
        "threshold": r.threshold,
        "detail": r.detail,
    } for r in results]
    ok = all(r.passed for r in results)
    return {"checks": checks, "passed": ok}, ok


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    try:
        active_tolerances()
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    source = args.scenario or str(bundled_scenario_path())
    try:
        scn = load_scenario(source)
        if args.seed is not None:
            scn.seed = args.seed

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        payload = {"scenario": _scenario_section(scn, source)}
        exit_code = 0
        if args.subcommand == "decohere":
            payload["decoherence"] = _decohere_payload(scn)
        elif args.subcommand in ("windows", "entropy"):
            found = scenario_windows(scn)
            labels = [f"w{idx:02d}" for idx in range(len(found))]  # by search position
            payload["windows"] = _windows_payload(scn, found, labels)
            if args.subcommand == "entropy":
                payload["entropy"] = _entropy_payload(scn, found, labels)
        elif args.subcommand == "diverge":
            payload["divergence"] = _diverge_payload(scn, out_dir, args.series, args.max_n)
        elif args.subcommand == "verify":
            payload["verify"], ok = _verify_payload(scn)
            for check in payload["verify"]["checks"]:
                status = "PASS" if check["passed"] else "FAIL"
                print(f"{status} {check['name']}: {check['detail']} "
                      f"(residual {check['residual']:.3e})")
            if not ok:
                exit_code = 3
    except (ScenarioError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, CapacityError) else 2

    write_json(out_dir / f"{args.subcommand}.json", payload)
    print(f"wrote {out_dir / (args.subcommand + '.json')}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
