"""Output checks applied to every report the benchmark receives.

:func:`check_report` holds each workload's correctness conditions;
:func:`compare_reference` compares a report with a committed reference
within an absolute-or-relative tolerance, so a valid optimisation that
changes the last bits of a value still passes.  Both return a list of
problems, empty when the report is good.
"""

from __future__ import annotations

import math
import re

__all__ = ["check_report", "compare_reference"]

REFERENCE_TOL = 1e-9
# Tolerances.agreement of the program: the chain form and the basis sum must
# agree to this absolute residual.
AGREEMENT_TOL = 1e-9
SUM_TOL = 1e-9

# Keys whose values describe the run rather than the result.
_IGNORED_KEYS = {"source"}
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _check_verify(payload: dict) -> list[str]:
    section = payload.get("verify", {})
    problems = [f"verify check {c['name']} failed: {c['detail']}"
                for c in section.get("checks", []) if not c["passed"]]
    if not section.get("checks"):
        problems.append("verify reported no checks")
    if section.get("passed") is not True:
        problems.append("verify did not pass")
    return problems


def _check_decohere(payload: dict) -> list[str]:
    section = payload.get("decoherence", {})
    residual = section.get("agreement", {}).get("chain_vs_basis_sum")
    if residual is None or not residual <= AGREEMENT_TOL:
        return [f"chain_vs_basis_sum {residual!r} exceeds {AGREEMENT_TOL}"]
    if not section.get("rows"):
        return ["decohere reported no rows"]
    return []


def _check_entropy(payload: dict) -> list[str]:
    windows = payload.get("windows", {}).get("windows", [])
    if not windows:
        return ["no consistent window reported"]
    problems = []
    for w in windows:
        if w["sector_check"]["verdict"] != "consistent":
            problems.append(f"window {w['label']}: sector check {w['sector_check']}")
        if w["operator_check"] is not None and w["operator_check"]["verdict"] != "consistent":
            problems.append(f"window {w['label']}: operator check {w['operator_check']}")
        total = math.fsum(w["probabilities"])
        if abs(total - 1.0) > SUM_TOL:
            problems.append(f"window {w['label']}: probabilities sum to {total!r}")
    if not payload.get("entropy", {}).get("table"):
        problems.append("entropy table is empty")
    return problems


_CHECKS = {"verify": _check_verify, "decohere": _check_decohere, "entropy": _check_entropy}


def check_report(subcommand: str, payload: dict) -> list[str]:
    """Correctness problems of one report of ``subcommand``."""
    return _CHECKS[subcommand](payload)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def compare_reference(actual, expected, tol: float = REFERENCE_TOL, path: str = "$") -> list[str]:
    """Differences between two JSON values: same structure, numbers within ``tol``.

    Numbers inside strings (check details) are compared the same way, so a
    residual printed as ``1.1e-16`` may become ``2.2e-16``.
    """
    if isinstance(expected, bool) or expected is None:
        return [] if actual is expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{path}: {actual!r} is not a number"]
        return [] if _close(actual, expected, tol) else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, str):
        if not isinstance(actual, str):
            return [f"{path}: {actual!r} is not a string"]
        same_text = _NUMBER.split(actual) == _NUMBER.split(expected)
        nums_a, nums_e = _NUMBER.findall(actual), _NUMBER.findall(expected)
        if same_text and len(nums_a) == len(nums_e) and all(
                _close(float(x), float(y), tol) for x, y in zip(nums_a, nums_e)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: list length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare_reference(a, e, tol, f"{path}[{i}]")
        return out
    if not isinstance(actual, dict) or set(actual) != set(expected):
        return [f"{path}: keys differ"]
    out = []
    for key in expected:
        if key not in _IGNORED_KEYS:
            out += compare_reference(actual[key], expected[key], tol, f"{path}.{key}")
    return out
