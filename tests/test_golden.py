"""Fresh reports of the bundled qubit scenario against the reference reports
in ``tests/data/bundled``: all five subcommands, and the two series CSVs of
``diverge``.

The comparison is the benchmark's own ``compare_reference`` at 1e-12, so a
value may move in its last bits (a probability summed in another order) while
every count, label, verdict and key must stay.  The scenario path in
``source`` is not compared.
"""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from histq.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "bundled"
SUBCOMMANDS = ["decohere", "windows", "entropy", "diverge", "verify"]


def _compare_reference():
    spec = importlib.util.spec_from_file_location("bench_check", ROOT / "bench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare_reference


compare_reference = _compare_reference()


def _rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return [header, *([float(v) for v in row] for row in rows)]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_report_matches_the_reference(tmp_path, subcommand, capsys):
    assert main([subcommand, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    name = f"{subcommand}.json"
    fresh = json.loads((tmp_path / name).read_text(encoding="utf-8"))
    expected = json.loads((DATA / name).read_text(encoding="utf-8"))
    assert compare_reference(fresh, expected, tol=1e-12) == []
    if subcommand == "diverge":
        for series in ("b1.csv", "b2.csv"):
            assert compare_reference(_rows(tmp_path / series), _rows(DATA / series),
                                     tol=1e-12) == []
