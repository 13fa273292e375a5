"""The committed measurement files: every ``BENCH_<pr>.json`` at the root of
the repository is strict JSON, and its ``claim`` names a workload and an
end-to-end metric that ``BENCHMARK.json`` declares, with that metric's
direction.  Nothing here runs the benchmark."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _strict(path: Path):
    def reject(token):
        raise ValueError(f"{path.name}: non-JSON constant {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_there_are_measurement_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_claim_names_a_declared_workload_and_metric(path):
    declared = _strict(ROOT / "BENCHMARK.json")
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    claim = _strict(path)["claim"]
    assert claim["workload"] in workloads
    assert claim["metric"] in metrics
    assert claim.get("better", metrics[claim["metric"]]) == metrics[claim["metric"]]
