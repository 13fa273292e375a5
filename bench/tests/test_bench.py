"""Tests of the benchmark itself: span arithmetic, tracer transparency,
scenario generation, output checks and the metric list.

Run from the root of a checkout: ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import histq.cli
import histq.consistency
from check import check_report, compare_reference
from layertrace import LAYERS, NO_PARENT, Tracer, layer_metrics, load_spans, self_times
from run import END_TO_END, PER_LAYER
from scenarios import WORKLOADS, generate, write_scenario
from worker import Client

from histq.scenario import parse_scenario

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _reference(name: str) -> dict:
    return json.loads((BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))


# -- span arithmetic -------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > g [2, 3];  root > b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([NO_PARENT, 0, 1, 0])
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_per_operation_medians_and_layer_sums():
    names = ["cli.main", "consistency.search_windows", "consistency.check_window",
             "propositions.hs_inner"]
    # op 0: main [0,10] > search [1,9] > check [2,5] > hs [3,4]; check [6,8]
    # op 1: main [20,24] > search [21,23] > check [21.5,22.5]
    spans = {
        "names": np.array(names),
        "raised": np.array([0, 0, 2, 0]),
        "counter_names": np.array(["consistency.partitions_examined",
                                   "consistency.windows_accepted",
                                   "decoherence.d_basis_sum.terms"]),
        "counter_values": np.array([3, 1, 0]),
        "name": np.array([0, 1, 2, 3, 2, 0, 1, 2]),
        "parent": np.array([NO_PARENT, 0, 1, 2, 1, NO_PARENT, 5, 6]),
        "op": np.array([0, 0, 0, 0, 0, 1, 1, 1]),
        "start": np.array([0.0, 1.0, 2.0, 3.0, 6.0, 20.0, 21.0, 21.5]),
        "end": np.array([10.0, 9.0, 5.0, 4.0, 8.0, 24.0, 23.0, 22.5]),
    }
    m = layer_metrics(spans)
    # self: op0 main 2, search 3, check 2 + 2, hs 1; op1 main 2, search 1, check 1
    assert m["cli.main.self_s"] == 2.0
    assert m["consistency.search_windows.self_s"] == pytest.approx(2.0)  # median(3, 1)
    assert m["consistency.check_window.self_s"] == pytest.approx(2.5)  # median(4, 1)
    assert m["consistency.check_window.calls"] == 1.5  # median(2, 1)
    assert m["propositions.hs_inner.calls"] == 0.5
    assert m["consistency.self_s"] == pytest.approx(4.5)  # median(7, 2)
    assert m["consistency.calls"] == 2.5  # median(3, 2)
    assert m["consistency.check_window.raised"] == 1.0  # 2 raised over 2 operations
    assert m["consistency.partitions_examined"] == 1.5
    assert m["consistency.accept_ratio"] == pytest.approx(1 / 3)
    assert m["core.self_s"] == 0.0 and m["core.calls"] == 0.0
    # every layer's self time adds up to the operation's wall time
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(np.median([10.0, 4.0]))


# -- tracer transparency ---------------------------------------------------

@pytest.mark.parametrize("subcommand", ["entropy", "decohere", "verify"])
def test_traced_report_is_byte_identical(tmp_path, subcommand):
    scenario = write_scenario(tmp_path / "scn.json", "verify-qubit", 3)
    original = histq.consistency.check_window

    def report(out: str) -> bytes:
        argv = [subcommand, "--scenario", str(scenario), "--out", str(tmp_path / out)]
        assert histq.cli.main(argv) == 0
        return (tmp_path / out / f"{subcommand}.json").read_bytes()

    plain = report("plain")
    tracer = Tracer()
    tracer.install()
    try:
        assert histq.consistency.check_window is not original
        traced = report("traced")
    finally:
        tracer.uninstall()
    assert histq.consistency.check_window is original
    assert traced == plain

    tracer.save(tmp_path / "spans.npz")
    m = layer_metrics(load_spans(tmp_path / "spans.npz"))
    assert m["cli.main.calls"] == 1
    if subcommand == "entropy":
        # two base families of two elements: Bell(2) = 2 partitions each,
        # recorded through the module-global call search_windows -> check_window
        assert m["consistency.partitions_examined"] == 4
        assert m["consistency.windows_accepted"] >= 1
    if subcommand == "decohere":
        assert m["decoherence.d_basis_sum.calls"] == 9
        assert m["decoherence.d_basis_sum.terms"] == 9 * 2 ** 4
        assert m["decoherence.IlsOperator.pair_value.calls"] == 9


# -- scenario generation ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded(name):
    assert generate(name, 5) == generate(name, 5)
    assert generate(name, 5) != generate(name, 6)
    scn = parse_scenario(json.loads(json.dumps(generate(name, 5))))
    assert np.all(scn.model.weights > 0)  # full-rank rho


def test_workload_shapes():
    search = parse_scenario(generate("search-qubit3", 2))
    assert (search.dim, len(search.grid.times), [len(p) for p in search.pvms]) == (2, 3, [1, 1, 1])
    dec = parse_scenario(generate("decohere-qubit7", 2))
    assert (dec.dim, len(dec.grid.times), len(dec.histories)) == (2, 7, 3)
    ver = parse_scenario(generate("verify-qubit", 2))
    assert (ver.dim, len(ver.grid.times), [len(p) for p in ver.pvms]) == (2, 2, [2])


# -- output checks ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_pass_their_checks(name):
    assert check_report(WORKLOADS[name].subcommand, _reference(name)) == []


def _corruptions():
    def verify_fail(r):
        r["verify"]["checks"][1]["passed"] = False
        r["verify"]["passed"] = False

    def basis_sum(r):
        r["decoherence"]["agreement"]["chain_vs_basis_sum"] = 1e-6

    def probabilities(r):
        r["windows"]["windows"][-1]["probabilities"][0] += 1e-6

    def sector(r):
        r["windows"]["windows"][0]["sector_check"]["verdict"] = "inconsistent"

    def operator(r):
        first = next(w for w in r["windows"]["windows"] if w["operator_check"])
        first["operator_check"]["verdict"] = "inconsistent"

    def no_windows(r):
        r["windows"]["windows"] = []

    return [("verify-qubit", verify_fail), ("decohere-qubit7", basis_sum),
            ("search-qubit3", probabilities), ("search-qubit3", sector),
            ("search-qubit3", operator), ("search-qubit3", no_windows)]


@pytest.mark.parametrize("name,corrupt", _corruptions(),
                         ids=[f.__name__ for _, f in _corruptions()])
def test_check_rejects_corrupted_report(name, corrupt):
    report = _reference(name)
    corrupt(report)
    assert check_report(WORKLOADS[name].subcommand, report)


def test_reference_comparison_tolerance():
    expected = _reference("search-qubit3")
    close = copy.deepcopy(expected)
    close["entropy"]["table"][0]["value"] += 1e-12
    close["scenario"]["source"] = "/elsewhere/scenario.json"
    assert compare_reference(close, expected) == []
    far = copy.deepcopy(expected)
    far["entropy"]["table"][0]["value"] += 1e-6
    assert compare_reference(far, expected)
    fewer = copy.deepcopy(expected)
    fewer["windows"]["windows"].pop()
    assert compare_reference(fewer, expected)


def test_reference_comparison_reads_numbers_inside_strings():
    assert compare_reference("residual 1.1e-16, slope 0.250000",
                             "residual 2.2e-16, slope 0.250000") == []
    assert compare_reference("slope 0.250000 (linear)", "slope 0.250000 (bounded)")
    assert compare_reference("on 12 windows", "on 13 windows")


def test_client_counts_a_corrupted_report_as_failed(tmp_path, monkeypatch):
    good = _reference("search-qubit3")
    bad = copy.deepcopy(good)
    bad["windows"]["windows"][0]["probabilities"][0] = 0.5
    reports = iter([good, bad, good])
    path = tmp_path / "entropy.json"

    def fake_main(argv):
        path.write_text(json.dumps(next(reports)), encoding="utf-8")
        return 0

    monkeypatch.setattr(histq.cli, "main", fake_main)
    client = Client([], path, "entropy")
    for _ in range(3):
        client.run()
    # the second report fails both the byte-identity and the window checks
    assert (client.attempted, client.failed) == (3, 1)
    assert client.problems == ["report differs from the first report of this run"]


# -- metric list and stand-alone behaviour ----------------------------------

def test_metric_lists_match_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-qubit",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
