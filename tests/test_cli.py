import argparse
import dataclasses
import errno
import json
import math
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histq.cli
from histq.cli import (
    MAX_N_LIMIT,
    _decohere_payload,
    _entropy_payload,
    bundled_scenario_path,
    main,
)
import histq.histories
from histq.consistency import ConsistencyReport, refinements, scenario_windows
from histq.decoherence import IlsOperator
from histq.sampling import random_density, random_hermitian, random_pvm, random_unitary
from histq.scenario import load_scenario
from histq.verify import _check_axioms, run_suite

from helpers import count_calls
from oracles import random_projector


def run(args):
    return main(args)


SUBCOMMANDS = ["decohere", "windows", "entropy", "diverge", "verify"]

# variants that parse_scenario refuses, each with the field it names
REFUSED = {"malformed": "rho", "nan-p": "entropy_p", "inf-p": "entropy_p",
           "negative-seed": "seed", "null-label": "histories[0].label"}


def write_scenario(tmp_path, kind):
    """The bundled scenario, or a variant: over-cap sectors or malformed."""
    scenario = json.loads(bundled_scenario_path().read_text())
    if kind in ("dim4", "dim3-three-times"):
        dim, times = (4, [0.0, 1.0]) if kind == "dim4" else (3, [0.0, 1.0, 2.0])
        scenario.update(
            dim=dim, times=times,
            hamiltonian={"real": np.zeros((dim, dim)).tolist()},
            rho={"matrix": {"real": (np.eye(dim) / dim).tolist()}},
            histories=[{"label": "unit", "projectors": [{"identity": True}] * len(times)}],
            pvms=[[{"basis": "computational"}, {"basis": "hadamard"}]] * len(times))
    elif kind == "malformed":
        scenario["rho"] = {"matrix": {"real": [[0.9, 0.0], [0.0, 0.25]]}}
    elif kind in ("nan-p", "inf-p"):
        scenario["entropy_p"] = [math.nan if kind == "nan-p" else math.inf, 2.0]
    elif kind == "negative-seed":
        scenario["seed"] = -1
    elif kind == "null-label":  # never written to a report as "None"
        scenario["histories"][0]["label"] = None
    elif kind == "near-bound":
        # P = [[1, d], [d, 0]] has P^2 - P = d^2 1 = 8.8e-11, within the 1e-10
        # projector bound, so {P, 1 - P} parses; a sum of two products P (x) Q
        # at two times has residual 2 d^2 and fails it, yet as a block sum of
        # its base family it is decided in both pictures
        d = 9.4e-6
        pair = {"projectors": [{"matrix": {"real": [[1.0, d], [d, 0.0]]}},
                               {"matrix": {"real": [[0.0, -d], [-d, 1.0]]}}]}
        scenario.update(histories=[], pvms=[[pair]] * 2, entropy_p=[1.0, 2.0])
    elif kind in ("no-histories", "computational-only"):
        # no history needs a Hadamard projector, which an exact check refuses
        scenario["histories"] = []
        if kind == "computational-only":  # exact projectors: the scenario parses
            scenario["pvms"] = [[{"basis": "computational"}]]
    elif kind == "no-pvms":
        scenario["pvms"] = []
    elif kind in ("family-over-cap", "two-time-computational"):
        # computational P0 and P1 at each of the two times, and for
        # "family-over-cap" three zero projectors too: 5 x 5 = 25 offered
        # elements, over the 9 a family under SECTOR_CAP can hold, until the
        # zero ones leave it
        zero = {"matrix": {"real": [[0.0, 0.0], [0.0, 0.0]]}}
        padded = {"projectors": [{"basis": "computational", "index": 0}, zero,
                                 {"basis": "computational", "index": 1}, zero, zero]}
        if kind == "two-time-computational":
            padded["projectors"] = [p for p in padded["projectors"] if p is not zero]
        scenario["pvms"] = [[padded], [padded]]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


def strict_json(path):
    """The parsed report; ``ValueError`` on NaN or Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("kind", ["bundled", "dim4", "dim3-three-times", "family-over-cap",
                                  *REFUSED])
def test_every_subcommand_exits_with_a_documented_code(tmp_path, capsys, subcommand, kind):
    code = run([subcommand, "--scenario", str(write_scenario(tmp_path, kind)),
                "--out", str(tmp_path / "o")])
    assert code in (0, 2, 3, 4)
    if kind in REFUSED:
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {REFUSED[kind]}: ")
    for report in (tmp_path / "o").glob("*.json"):
        strict_json(report)


OVERFLOWING_PHASES = {  # finite inputs whose phases E (t - t0) overflow
    "shifted-times": {"times": [1e308, 1.5e308], "t0": -1e308},
    "large-energies": {"times": [0.0, 1e200],
                       "hamiltonian": {"real": [[1e200, 0.0], [0.0, -1e200]]}},
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("kind", OVERFLOWING_PHASES)
def test_overflowing_phases_are_refused_at_parse_time(tmp_path, capsys, subcommand, kind):
    # every evolution U(t, t0) would be NaN, whichever subcommand reads it
    scenario = {**json.loads(bundled_scenario_path().read_text()), **OVERFLOWING_PHASES[kind]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert run([subcommand, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: times: ")
    assert not (tmp_path / "o").exists()


class TestVerify:
    def test_bundled_scenario_passes(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path / "a")])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 7
        assert all(l.startswith("PASS") for l in lines)

    def test_nan_residual_fails_its_check_and_is_written_as_null(self, monkeypatch, tmp_path,
                                                                  capsys):
        # every reduced-vs-direct residual NaN: a fold that drops NaN would
        # report 0 and pass the check
        monkeypatch.setattr("histq.verify.b1_direct_value", lambda n: math.nan)
        assert run(["verify", "--out", str(tmp_path)]) == 3
        assert "FAIL divergence-trends" in capsys.readouterr().out
        checks = {c["name"]: c for c in strict_json(tmp_path / "verify.json")["verify"]["checks"]}
        assert checks["divergence-trends"]["residual"] is None
        assert not checks["divergence-trends"]["passed"]
        assert sum(c["passed"] for c in checks.values()) == 6

    def test_reports_are_byte_identical(self, tmp_path):
        run(["verify", "--out", str(tmp_path / "a")])
        run(["verify", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "verify.json").read_bytes()
        b = (tmp_path / "b" / "verify.json").read_bytes()
        assert a == b

    def test_seed_override_changes_draws_not_verdict(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
        assert run(["verify", "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
        a = json.loads((tmp_path / "a" / "verify.json").read_text())
        b = json.loads((tmp_path / "b" / "verify.json").read_text())
        assert a["verify"]["passed"] and b["verify"]["passed"]
        assert a["scenario"]["seed"] == 1 and b["scenario"]["seed"] == 2

    def test_axioms_build_two_chains_per_draw(self, monkeypatch):
        # two side states and the scenario's: the unit pair, then 10 draws of
        # (h, k), each state's draws read as one chain stack per number of
        # times; the unit pair is the chains of two histories with no time to
        # evolve to, while each stack is transported by one evolve call on its
        # times (9 calls when it was one per time)
        scn = load_scenario(bundled_scenario_path())
        grams = count_calls(monkeypatch, "chain_gram")
        evolve = count_calls(monkeypatch, "evolve")
        result = _check_axioms(scn, np.random.default_rng(1))
        assert result.passed is True  # a bool, which the report writer takes
        assert sum(len(chains) for _, chains in grams) == 3 * (2 + 10 * 2)
        assert [len(t) for _, t, _ in evolve] == [1, 2] * 3

    def test_drawn_history_projectors_are_not_checked_again(self, monkeypatch, tmp_path):
        # the scenario's projectors at parse and the searched decompositions;
        # the drawn ones are projectors by construction (272 calls when every
        # drawn history checked them again)
        calls = count_calls(monkeypatch, "is_projector")
        assert run(["verify", "--out", str(tmp_path)]) == 0
        assert 0 < len(calls) <= 40

    def test_drawn_histories_are_transported_once_per_time(self, monkeypatch, tmp_path):
        # each stack of drawn histories moves to the Heisenberg picture by one
        # evolve call on its times (23 calls at one per time, 296 when every
        # projector was transported twice, by embed and by the chain)
        calls = count_calls(monkeypatch, "evolve")
        assert run(["verify", "--out", str(tmp_path)]) == 0
        assert len(calls) == 17

    @pytest.mark.parametrize("seed", [1, 7])
    def test_results_hold_builtin_json_types(self, seed):
        # write_json refuses numpy scalars such as np.bool_
        scn = load_scenario(bundled_scenario_path())
        scn.seed = seed
        for r in run_suite(scn):
            assert type(r.passed) is bool, r.name
            assert type(r.residual) is float and type(r.threshold) is float, r.name

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --seed ")
        assert not (tmp_path / "o").exists()

    def test_agreement_threshold_follows_tolerances(self, tmp_path):
        run(["verify", "--out", str(tmp_path)])
        checks = json.loads((tmp_path / "verify.json").read_text())["verify"]["checks"]
        threshold = {c["name"]: c["threshold"] for c in checks}
        assert threshold["representation-agreement"] == threshold["wright-state"] == 1e-9

    def test_near_bound_windows_are_compared_in_both_pictures(self, tmp_path):
        code = run(["verify", "--scenario", str(write_scenario(tmp_path, "near-bound")),
                    "--out", str(tmp_path / "o")])
        assert code == 0
        checks = strict_json(tmp_path / "o" / "verify.json")["verify"]["checks"]
        bridge = next(c for c in checks if c["name"] == "picture-bridge")
        # the 42 side-scenario and product windows and the two near-bound sums
        assert bridge["detail"] == "verdict agreement on 44 strictly positive windows"


class TestValidationExit:
    def test_malformed_rho_exits_2_and_names_field(self, tmp_path, capsys):
        scenario = json.loads(bundled_scenario_path().read_text())
        scenario["rho"] = {"matrix": {"real": [[0.9, 0.0], [0.0, 0.25]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code = run(["verify", "--scenario", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "rho" in err

    def test_undersized_hamiltonian_of_a_large_dim_exits_2(self, tmp_path, capsys):
        # refused by its shape before anything of dim x dim is built (a
        # MemoryError traceback when a zero imaginary part of that shape was)
        scenario = json.loads(bundled_scenario_path().read_text())
        scenario.update(dim=10 ** 6, hamiltonian={"real": [[0.0]]})
        path = tmp_path / "large-dim.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert run(["decohere", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: hamiltonian: expected shape")
        assert not (tmp_path / "o").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run(["decohere", "--scenario", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unreadable" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", [0, -5, MAX_N_LIMIT + 1])
    def test_max_n_out_of_range_exits_2(self, tmp_path, capsys, max_n):
        code = run(["diverge", "--out", str(tmp_path / "o"), "--max-n", str(max_n)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --max-n ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("a file, not a directory\n", encoding="utf-8")
        code = run(["decohere", "--out", str(tmp_path / out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: --out {tmp_path / out}: ")

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    @pytest.mark.parametrize("value", ["{}", '{"agreement": 1e-6}', '{"bogus": 1}',
                                       '{"agreement": "x"}', ""])
    def test_tolerance_variable_is_refused(self, tmp_path, capsys, monkeypatch, subcommand,
                                           value):
        monkeypatch.setenv("HISTQ_TOL", value)
        code = run([subcommand, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == ("error: HISTQ_TOL is no longer read: the tolerances "
                                           "are fixed (see README, Tolerances)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, code", [("no-pvms", 2), ("dim4", 4)])
    def test_failed_windows_run_leaves_no_out(self, tmp_path, kind, code):
        assert run(["windows", "--scenario", str(write_scenario(tmp_path, kind)),
                    "--out", str(tmp_path / "o")]) == code
        assert not (tmp_path / "o").exists()


class TestReplacedReports:
    @pytest.mark.parametrize("subcommand", ["entropy", "diverge"])
    def test_rerun_into_same_out_writes_new_files(self, tmp_path, subcommand):
        out = tmp_path / "o"

        def files():
            return {p.name: (p.read_bytes(), p.stat().st_ino) for p in out.iterdir()}

        assert run([subcommand, "--out", str(out)]) == 0
        first = files()
        assert run([subcommand, "--out", str(out)]) == 0
        second = files()
        assert second.keys() == first.keys()  # no .tmp is left
        for name, (data, inode) in second.items():
            assert data == first[name][0]
            assert inode != first[name][1]

    def test_failed_write_keeps_the_earlier_report(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"
        assert run(["decohere", "--out", str(out)]) == 0
        before = (out / "decohere.json").read_bytes()

        def interrupted(path, text, encoding=None):
            with open(path, "w", encoding=encoding) as f:
                f.write(text[:10])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", interrupted)
        assert run(["decohere", "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["decohere.json"]
        assert (out / "decohere.json").read_bytes() == before


class TestTightProjectorBound:
    """A projector check that refuses the rounding of Hadamard projectors
    fails the scenario with exit 2 naming the field, never a traceback."""

    @pytest.fixture(autouse=True)
    def exact_projectors_only(self, monkeypatch):
        monkeypatch.setattr("histq.scenario.is_projector", lambda p: not np.any(p @ p - p))

    @pytest.mark.parametrize("subcommand", ["windows", "entropy", "verify"])
    def test_named_basis_decomposition_exits_2(self, tmp_path, capsys, subcommand):
        code = run([subcommand, "--scenario", str(write_scenario(tmp_path, "no-histories")),
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: pvms[0][1].basis: not a projector within the projector bound 1e-10\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["windows", "entropy"])
    def test_exact_decomposition_still_searches(self, tmp_path, subcommand):
        assert run([subcommand, "--scenario", str(write_scenario(tmp_path, "computational-only")),
                    "--out", str(tmp_path / "o")]) == 0


class TestCapacity:
    @pytest.mark.parametrize("subcommand", ["windows", "entropy"])
    @pytest.mark.parametrize("kind", ["dim4", "dim3-three-times"])
    def test_over_cap_sector_exits_4(self, tmp_path, capsys, subcommand, kind):
        code = run([subcommand, "--scenario", str(write_scenario(tmp_path, kind)),
                    "--out", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err == "error: support too large for Wright construction\n"

    @staticmethod
    def padded_and_plain_reports(tmp_path, subcommand):
        """The reports of the zero-padded scenario and of the same scenario
        without the zeros, each without its ``scenario.source``; each is
        compared as its JSON text, so the signs of zeros count."""
        reports = []
        for kind in ("family-over-cap", "two-time-computational"):
            out = tmp_path / kind
            assert run([subcommand, "--scenario", str(write_scenario(tmp_path, kind)),
                        "--out", str(out)]) == 0
            report = json.loads((out / f"{subcommand}.json").read_text())
            del report["scenario"]["source"]
            reports.append(report)
        assert json.dumps(reports[0]) == json.dumps(reports[1])
        return reports

    @pytest.mark.parametrize("subcommand", ["windows", "entropy"])
    def test_zero_padded_family_exits_0(self, tmp_path, subcommand):
        # the zero elements leave the family: the 4-element family's windows
        padded, _ = self.padded_and_plain_reports(tmp_path, subcommand)
        assert len(padded["windows"]["windows"]) > 1

    def test_verify_reads_the_zero_padded_family(self, tmp_path):
        padded, _ = self.padded_and_plain_reports(tmp_path, "verify")
        detail = {c["name"]: c["detail"] for c in padded["verify"]["checks"]}
        assert "skipped" not in detail["picture-bridge"]

    def test_decohere_reports_skipped_ils(self, tmp_path):
        code = run(["decohere", "--scenario", str(write_scenario(tmp_path, "dim4")),
                    "--out", str(tmp_path / "o")])
        agreement = json.loads((tmp_path / "o" / "decohere.json").read_text())[
            "decoherence"]["agreement"]
        assert code == 0
        assert agreement["chain_vs_ils"] is None
        assert agreement["ils_skipped"] == "support too large for ILS reconstruction"

    def test_verify_names_skipped_scenario_checks(self, tmp_path, capsys):
        code = run(["verify", "--scenario", str(write_scenario(tmp_path, "dim4")),
                    "--out", str(tmp_path / "o")])
        checks = json.loads((tmp_path / "o" / "verify.json").read_text())["verify"]["checks"]
        detail = {c["name"]: c["detail"] for c in checks}
        assert code == 0
        assert detail["representation-agreement"].endswith(
            "; scenario skipped at n = 2: support too large for ILS reconstruction")
        assert detail["picture-bridge"].endswith(
            "; scenario windows skipped: support too large for Wright construction")
        assert "skipped" in capsys.readouterr().out


class TestOneStackedCallPerSector:
    """``verify`` reads each drawn stack with one call per representation;
    ``decohere`` still pairs its histories one call at a time."""

    FUNCTIONS = ("d_basis_sum", "d_basis_sums", "probabilities")

    def spies(self, monkeypatch) -> dict:
        calls = {name: count_calls(monkeypatch, name) for name in self.FUNCTIONS}
        for method in ("pair_value", "pair_values"):
            calls[method] = []

            def spy(ils, *args, _original=getattr(IlsOperator, method), _calls=calls[method]):
                _calls.append(args)
                return _original(ils, *args)

            monkeypatch.setattr(IlsOperator, method, spy)
        return calls

    def test_verify_makes_one_stacked_call_per_sector(self, monkeypatch, tmp_path):
        # side states of dim 2 and 3 and the dim-2 bundled scenario, each on
        # one and two times: 6 sectors for the representation check, of
        # 16 histories (8 pairs) each; the Wright check reads the side
        # states' 4 sectors, each with the unit and 10 drawn operators
        calls = self.spies(monkeypatch)
        grams = count_calls(monkeypatch, "d_gram")
        assert run(["verify", "--out", str(tmp_path)]) == 0
        assert {name: len(c) for name, c in calls.items()} == {
            "d_basis_sum": 0, "d_basis_sums": 6, "probabilities": 4, "pair_value": 0,
            "pair_values": 6}
        assert [len(hs) for _, hs, _ in calls["d_basis_sums"]] == [8] * 6
        assert [len(ps) for ps, _ in calls["pair_values"]] == [8] * 6
        assert [len(ops) for _, ops in calls["probabilities"]] == [11] * 4
        # the forms are held against one Gram matrix of the 10 draws per sector
        assert [len(ops) for _, ops, _ in grams if len(ops) == 10] == [10] * 4

    def test_decohere_still_pairs_one_at_a_time(self, monkeypatch, tmp_path):
        # three bundled histories: 9 pairs, each its own basis sum and its
        # own one-pair view of the reconstruction
        calls = self.spies(monkeypatch)
        assert run(["decohere", "--out", str(tmp_path)]) == 0
        assert {name: len(c) for name, c in calls.items()} == {
            "d_basis_sum": 9, "d_basis_sums": 0, "probabilities": 0, "pair_value": 9,
            "pair_values": 9}


class TestDecohere:
    def test_repeated_label_exits_2(self, tmp_path, capsys):
        scenario = json.loads(bundled_scenario_path().read_text())
        scenario["histories"][2]["label"] = scenario["histories"][1]["label"]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code = run(["decohere", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: histories[2].label: ")

    def test_rows_pair_histories_by_position(self):
        # even under one label, each history's rows use its own operator
        scn = load_scenario(bundled_scenario_path())
        scn.labels[2] = scn.labels[1]
        agreement = _decohere_payload(scn)["agreement"]
        assert agreement["chain_vs_basis_sum"] <= 1e-9
        assert agreement["chain_vs_ils"] <= 1e-9

    @pytest.mark.parametrize("times", [2, 4, 11])
    def test_each_chain_and_eigenbasis_form_is_built_once(self, monkeypatch, tmp_path, times):
        # three histories: all transported by one heisenberg call on their
        # stack, one evolve call on the grid times, and the 3 chains multiplied
        # out from those factors for one chain Gram matrix of the 9 chain-form
        # pairs; each transported history written in the state's eigenbasis
        # once, as the 2^(n+1) entries of its form that the basis sum reads,
        # while the basis sum and the reconstruction are still called per
        # pair.  The dense operator of a history is built once, by the
        # reconstruction, and not at all above the sector cap, where nothing
        # reads it.
        scenario = json.loads(bundled_scenario_path().read_text())
        scenario["times"] = [float(t) for t in range(times)]
        for entry in scenario["histories"]:
            entry["projectors"] = [entry["projectors"][t % 2] for t in range(times)]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        transports = count_calls(monkeypatch, "heisenberg")
        evolve = count_calls(monkeypatch, "evolve")
        grams = count_calls(monkeypatch, "chain_gram")
        sums = count_calls(monkeypatch, "d_basis_sum")
        pairs = []
        pair_value = IlsOperator.pair_value
        monkeypatch.setattr(IlsOperator, "pair_value",
                            lambda self, p, q: pairs.append((p, q)) or pair_value(self, p, q))
        dense = []
        tensor_product = histq.histories.tensor_product
        monkeypatch.setattr(histq.histories, "tensor_product",
                            lambda factors: dense.append(factors) or tensor_product(factors))
        assert run(["decohere", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        ils = times == 2
        assert [stack.shape for _, stack, _, _ in transports] == [(3, times, 2, 2)]
        assert [t for _, t, _ in evolve] == [scenario["times"]]
        # the reconstruction reads the kernel on its 4^n matrix units
        assert [len(chains) for _, chains in grams] == [3] + ([4 ** times] if ils else [])
        assert len(sums) == 9
        embedded = [h for _, h, _ in sums[::3]]  # the pairs run h-major
        assert [k for _, _, k in sums] == embedded * 3
        assert len(pairs) == (9 if ils else 0)
        assert [len(x.eigen_forms) for x in embedded] == [1] * 3
        assert [s.size for x in embedded for s in x.eigen_forms.values()] == [2 ** (times + 1)] * 3
        assert ["op" in vars(x) for x in embedded] == [ils] * 3
        assert dense == ([x.factors for x in embedded] if ils else [])
        report = json.loads((tmp_path / "o" / "decohere.json").read_text())
        assert report["decoherence"]["agreement"]["chain_vs_basis_sum"] <= 1e-9

    def test_one_transport_and_one_projector_check_per_call(self, monkeypatch, tmp_path):
        # all histories are moved by one heisenberg call, which makes one
        # evolve call, and their specs checked by one is_projector call
        scenario = json.loads(bundled_scenario_path().read_text())
        scenario["pvms"] = []
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        counts = {name: count_calls(monkeypatch, name)
                  for name in ("heisenberg", "evolve", "is_projector")}
        assert run(["decohere", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        assert {name: len(calls) for name, calls in counts.items()} == {
            "heisenberg": 1, "evolve": 1, "is_projector": 1}
        assert [len(stack) for (stack,) in counts["is_projector"]] == [4]  # not the unit's

    def test_the_parser_is_built_once_per_process(self, monkeypatch, tmp_path):
        built = []

        def counting(*args, **kwargs):
            built.append(kwargs["prog"])
            return argparse.ArgumentParser(*args, **kwargs)

        monkeypatch.setattr(histq.cli, "argparse", types.SimpleNamespace(ArgumentParser=counting))
        histq.cli._parser.cache_clear()
        try:
            for out in ("a", "b", "c"):
                assert run(["decohere", "--out", str(tmp_path / out)]) == 0
        finally:
            histq.cli._parser.cache_clear()
        assert built == ["histq"]

    def test_worked_numbers_in_report(self, tmp_path):
        assert run(["decohere", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decohere.json").read_text())
        rows = payload["decoherence"]["rows"]
        unit = [r for r in rows if r["h"] == "unit" and r["k"] == "unit"]
        assert all(r["value"]["re"] == pytest.approx(1.0, abs=1e-12) for r in unit)
        tags = {r["representation"] for r in rows}
        assert tags == {"decf1", "decf", "ILS2"}
        agreement = payload["decoherence"]["agreement"]
        assert agreement["chain_vs_basis_sum"] <= 1e-9
        assert agreement["chain_vs_ils"] <= 1e-9

    def test_two_time_chain_value(self, tmp_path):
        # bundled rho = diag(3/4, 1/4): the plus-then-zero diagonal entry is
        # tr(P0 P+ rho P+ P0) = (3/4 + 1/4)/4 ... computed directly below
        rho = np.diag([0.75, 0.25])
        plus = 0.5 * np.array([[1, 1], [1, 1]])
        p0 = np.diag([1.0, 0.0])
        chain = plus @ p0
        oracle = np.trace(chain.conj().T @ rho @ chain).real
        assert run(["decohere", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decohere.json").read_text())
        row = next(r for r in payload["decoherence"]["rows"]
                   if r["h"] == "plus-then-zero" and r["k"] == "plus-then-zero"
                   and r["representation"] == "decf1")
        assert row["value"]["re"] == pytest.approx(oracle, abs=1e-12)


class TestWindows:
    def test_finds_expected_windows(self, tmp_path):
        assert run(["windows", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "windows.json").read_text())
        entries = payload["windows"]["windows"]
        assert [e["members"] for e in entries] == [2, 2, 1]
        probs = {tuple(round(p, 4) for p in e["probabilities"]) for e in entries}
        assert (0.75, 0.25) in probs and (0.5, 0.5) in probs and (1.0,) in probs
        assert all(e["representation"] == "propa" for e in entries)
        unit_entry = next(e for e in entries if e["members"] == 1)
        assert unit_entry["maximally_refined"] is False


class TestEntropy:
    def test_entropy_table_values(self, tmp_path):
        assert run(["entropy", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "entropy.json").read_text())
        table = payload["entropy"]["table"]
        assert all(row["representation"] == "ent" for row in table)
        best = payload["entropy"]["minimum"]
        assert best["value"] == pytest.approx(-0.13081, abs=1e-4)
        by_key = {(row["window"], row["p"]): row["value"] for row in table}
        assert by_key[(best["window"], 1.0)] == pytest.approx(-0.82396, abs=1e-4)
        assert by_key[(best["window"], 2.0)] == pytest.approx(-0.13081, abs=1e-4)


    @pytest.mark.parametrize("subcommand", ["entropy", "verify"])
    def test_no_singular_values(self, monkeypatch, tmp_path, subcommand):
        # squared norms are block sums of the family; no member is decomposed
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert run([subcommand, "--out", str(tmp_path)]) == 0
        assert calls == []

    def test_bundled_report_names_no_skipped_rows(self, tmp_path):
        assert run(["entropy", "--out", str(tmp_path)]) == 0
        assert "skipped" not in json.loads((tmp_path / "entropy.json").read_text())["entropy"]

    def test_near_bound_windows_are_scored_at_every_p(self, tmp_path):
        assert run(["entropy", "--scenario", str(write_scenario(tmp_path, "near-bound")),
                    "--out", str(tmp_path)]) == 0
        payload = strict_json(tmp_path / "entropy.json")
        entries = payload["windows"]["windows"]
        assert [e["label"] for e in entries] == ["w00", "w01", "w02", "w03", "w04"]
        # w00 and w03 are sums of two near-bound products
        assert all(e["operator_check"]["verdict"] == "consistent" for e in entries)
        assert "skipped" not in payload["entropy"]
        rows = {(row["window"], row["p"]) for row in payload["entropy"]["table"]}
        assert rows == {(e["label"], p) for e in entries for p in (1.0, 2.0)}

    @pytest.mark.parametrize("opreport, reason", [
        (ConsistencyReport("inconsistent", ("re-cross-term",), 0.1, (0.5, 0.5)),
         "operator picture inconsistent: re-cross-term"),
        (ConsistencyReport("inconsistent", ("orthogonality", "re-cross-term"), 0.1, (0.5, 0.5)),
         "operator picture inconsistent: orthogonality, re-cross-term"),
    ])
    def test_skip_reason_names_the_cause(self, opreport, reason):
        scn = load_scenario(bundled_scenario_path())
        found = scenario_windows(scn)
        found[0] = dataclasses.replace(found[0], opreport=opreport)
        labels = [f"w{idx:02d}" for idx in range(len(found))]
        payload = _entropy_payload(found, labels, refinements(found), scn.entropy_p)
        assert payload["skipped"] == [{"window": "w00", "p": p, "reason": reason}
                                      for p in (1.0, 1.5, 3.0)]
        assert {row["window"] for row in payload["table"] if row["p"] != 2.0} == {"w01", "w02"}
        assert list(payload) == ["table", "skipped", "minimum", "suprema"]


class TestDiverge:
    def test_csv_doubling_differences(self, tmp_path):
        assert run(["diverge", "--out", str(tmp_path), "--series", "b2",
                    "--max-n", "16384"]) == 0
        rows = (tmp_path / "b2.csv").read_text().strip().splitlines()
        assert rows[0] == "N,value"
        values = {int(line.split(",")[0]): float(line.split(",")[1])
                  for line in rows[1:]}
        for k in range(10, 14):
            diff = values[2 ** (k + 1)] - values[2 ** k]
            assert abs(diff - math.log(2)) <= 0.05

    def test_b1_fit_in_report(self, tmp_path):
        assert run(["diverge", "--out", str(tmp_path), "--series", "b1"]) == 0
        payload = json.loads((tmp_path / "diverge.json").read_text())
        fit = payload["divergence"]["b1"]["fit"]
        assert fit["classification"] == "linear"
        assert abs(fit["slope"] - 0.25) <= 0.0025

    def test_deterministic_outputs(self, tmp_path):
        run(["diverge", "--out", str(tmp_path / "a")])
        run(["diverge", "--out", str(tmp_path / "b")])
        for name in ("diverge.json", "b1.csv", "b2.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


def _matrix(m):
    m = np.asarray(m, dtype=complex)
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


@st.composite
def fuzzed_scenarios(draw):
    """A valid scenario (dim <= 3, at most two times) and at most one mutation
    of it; returns the scenario and the mutation's name, or None."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 3))
    times = draw(st.sampled_from([[0.0], [0.0, 0.7], [0.3, 1.1]]))
    names = ["computational", "hadamard"]

    def projector_spec():
        kind = draw(st.sampled_from(["identity", "index", "indices", "matrix"]))
        if kind == "identity":
            return {"identity": True}
        if kind == "index":
            return {"basis": draw(st.sampled_from(names)), "index": draw(st.integers(0, dim - 1))}
        if kind == "indices":
            indices = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim,
                                    unique=True))
            return {"basis": draw(st.sampled_from(names)), "indices": indices}
        return {"matrix": _matrix(random_projector(rng, dim))}

    def decomposition():
        if draw(st.booleans()):
            return {"basis": draw(st.sampled_from(names))}
        return {"projectors": [{"matrix": _matrix(p)} for p in random_pvm(rng, dim)]}

    if draw(st.booleans()):
        rho = {"matrix": _matrix(random_density(rng, dim))}
    else:
        weights = rng.dirichlet(np.ones(dim))
        vectors = random_unitary(rng, dim)
        rho = {"spectral": [{"weight": float(w), "vector": {"real": v.real.tolist(),
                                                             "imag": v.imag.tolist()}}
                            for w, v in zip(weights, vectors.T)]}
    scenario = {
        "dim": dim,
        "hamiltonian": _matrix(random_hermitian(rng, dim)),
        "rho": rho,
        "times": times,
        "histories": [{"label": f"h{i}", "projectors": [projector_spec() for _ in times]}
                      for i in range(draw(st.integers(0, 2)))],
        "pvms": [[decomposition() for _ in range(draw(st.integers(1, 2)))]
                 for _ in range(draw(st.integers(1, len(times))))],
        "entropy_p": draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=1,
                                   max_size=3)),
        "seed": draw(st.integers(0, 1000)),
    }

    mutation = draw(st.sampled_from([None, "dropped", "wrong-type", "non-finite",
                                     "repeated-label", "over-cap"]))
    if mutation == "dropped":
        del scenario[draw(st.sampled_from(["dim", "hamiltonian", "rho", "times"]))]
    elif mutation == "wrong-type":
        scenario[draw(st.sampled_from(sorted(scenario)))] = draw(
            st.sampled_from(["x", 5, None, [], {}, True, [[1]]]))
    elif mutation == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        where = draw(st.sampled_from(["hamiltonian", "entropy_p", "times"]))
        if where == "hamiltonian":
            scenario["hamiltonian"]["real"][0][0] = bad
        else:
            scenario[where][0] = bad
    elif mutation == "repeated-label":
        h = {"projectors": [{"identity": True} for _ in times]}
        scenario["histories"] += [dict(h, label="twice"), dict(h, label="twice")]
    elif mutation == "over-cap":  # dim^(2n) above the 81 of the dense constructions
        dim, times = draw(st.sampled_from([(4, [0.0, 1.0]), (3, [0.0, 0.5, 1.0])]))
        scenario.update(dim=dim, times=times, hamiltonian=_matrix(random_hermitian(rng, dim)),
                        rho={"matrix": _matrix(random_density(rng, dim))},
                        histories=[{"label": "unit",
                                    "projectors": [{"identity": True} for _ in times]}],
                        pvms=[[{"basis": "computational"}] for _ in times])
    return scenario, mutation


@given(fuzzed_scenarios())
@settings(max_examples=50, deadline=None)
def test_exit_code_contract_holds_on_fuzzed_scenarios(case):
    scenario, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")  # NaN and Infinity included
        for subcommand in SUBCOMMANDS:
            out = Path(tmp) / subcommand
            extra = ["--max-n", "1000"] if subcommand == "diverge" else []
            code = main([subcommand, "--scenario", str(path), "--out", str(out), *extra])
            assert code in (0, 2, 3, 4)
            if mutation in ("dropped", "non-finite", "repeated-label"):
                assert code == 2
            if code in (2, 4):
                assert not out.exists()
            for report in out.glob("*.json"):
                strict_json(report)
