import dataclasses
import json
import math

import numpy as np
import pytest

from histq.cli import _entropy_payload, bundled_scenario_path, main
from histq.consistency import ConsistencyReport
from histq.scenario import load_scenario
from histq.verify import scenario_windows


def run(args):
    return main(args)


# variants that parse_scenario refuses, each with the field it names
REFUSED = {"malformed": "rho", "nan-p": "entropy_p", "inf-p": "entropy_p",
           "negative-seed": "seed"}


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
    elif kind == "rotating":
        # under H = sigma_x the transported Hadamard projectors carry rounding,
        # so a tight projector tolerance refuses some of their sums
        scenario.update(hamiltonian={"real": [[0.0, 1.0], [1.0, 0.0]]}, times=[0.3, 1.1],
                        histories=[], pvms=[[{"basis": "hadamard"}]] * 2,
                        entropy_p=[1.0, 2.0])
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


def strict_json(path):
    """The parsed report; ``ValueError`` on NaN or Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("subcommand", ["decohere", "windows", "entropy", "diverge", "verify"])
@pytest.mark.parametrize("kind", ["bundled", "dim4", "dim3-three-times", *REFUSED])
def test_every_subcommand_exits_with_a_documented_code(tmp_path, capsys, subcommand, kind):
    code = run([subcommand, "--scenario", str(write_scenario(tmp_path, kind)),
                "--out", str(tmp_path / "o")])
    assert code in (0, 2, 3, 4)
    if kind in REFUSED:
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {REFUSED[kind]}: ")
    for report in (tmp_path / "o").glob("*.json"):
        strict_json(report)


class TestVerify:
    def test_bundled_scenario_passes(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path / "a")])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 7
        assert all(l.startswith("PASS") for l in lines)

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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --seed ")
        assert not (tmp_path / "o").exists()

    def test_agreement_threshold_follows_tolerances(self, tmp_path, monkeypatch):
        def threshold(out, name="representation-agreement"):
            checks = json.loads((tmp_path / out / "verify.json").read_text())["verify"]["checks"]
            return next(c["threshold"] for c in checks if c["name"] == name)

        monkeypatch.delenv("HISTQ_TOL", raising=False)
        run(["verify", "--out", str(tmp_path / "a")])
        monkeypatch.setenv("HISTQ_TOL", json.dumps({"agreement": 1e-6}))
        run(["verify", "--out", str(tmp_path / "b")])
        assert threshold("a") == 1e-9
        assert threshold("b") == 1e-6
        assert threshold("a", "wright-state") == 1e-9
        assert threshold("b", "wright-state") == 1e-6


    def test_windows_without_operator_check_are_named(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HISTQ_TOL", json.dumps({"projector": 1e-15}))
        code = run(["verify", "--scenario", str(write_scenario(tmp_path, "rotating")),
                    "--out", str(tmp_path / "o")])
        assert code in (0, 3)
        checks = strict_json(tmp_path / "o" / "verify.json")["verify"]["checks"]
        bridge = next(c for c in checks if c["name"] == "picture-bridge")
        assert "window(s) without operator check: members not projectors" in bridge["detail"]


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

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run(["decohere", "--scenario", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unreadable" in capsys.readouterr().err

    @pytest.mark.parametrize("override, field", [('{"bogus": 1}', "bogus"),
                                                 ('{"agreement": "x"}', "agreement")])
    def test_bad_tolerance_override_exits_2_and_names_field(self, tmp_path, capsys,
                                                            monkeypatch, override, field):
        monkeypatch.setenv("HISTQ_TOL", override)
        code = run(["decohere", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: HISTQ_TOL") and repr(field) in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestCapacity:
    @pytest.mark.parametrize("subcommand", ["windows", "entropy"])
    @pytest.mark.parametrize("kind", ["dim4", "dim3-three-times"])
    def test_over_cap_sector_exits_4(self, tmp_path, capsys, subcommand, kind):
        code = run([subcommand, "--scenario", str(write_scenario(tmp_path, kind)),
                    "--out", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err == "error: support too large for Wright construction\n"

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


class TestDecohere:
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


    def test_bundled_report_names_no_skipped_rows(self, tmp_path):
        assert run(["entropy", "--out", str(tmp_path)]) == 0
        assert "skipped" not in json.loads((tmp_path / "entropy.json").read_text())["entropy"]

    def test_non_projector_windows_are_skipped_by_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HISTQ_TOL", json.dumps({"projector": 1e-15}))
        assert run(["entropy", "--scenario", str(write_scenario(tmp_path, "rotating")),
                    "--out", str(tmp_path)]) == 0
        payload = strict_json(tmp_path / "entropy.json")
        unchecked = [e["label"] for e in payload["windows"]["windows"]
                     if e["operator_check"] is None]
        assert unchecked  # the tolerance refuses at least one found window
        assert payload["entropy"]["skipped"] == [
            {"window": label, "p": 1.0, "reason": "members are not projectors"}
            for label in unchecked]
        rows = {(row["window"], row["p"]) for row in payload["entropy"]["table"]}
        assert all((label, 1.0) not in rows and (label, 2.0) in rows for label in unchecked)

    @pytest.mark.parametrize("opreport, reason", [
        (None, "members are not projectors"),
        (ConsistencyReport("inconsistent", ("orthogonality", "re-cross-term"), 0.1, (0.5, 0.5)),
         "operator picture inconsistent: orthogonality, re-cross-term"),
    ])
    def test_skip_reason_names_the_cause(self, opreport, reason):
        scn = load_scenario(bundled_scenario_path())
        found = scenario_windows(scn)
        found[0] = dataclasses.replace(found[0], opreport=opreport)
        labels = [f"w{idx:02d}" for idx in range(len(found))]
        payload = _entropy_payload(scn, found, labels)
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
