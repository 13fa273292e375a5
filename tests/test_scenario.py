import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histq.cli import _decohere_payload, bundled_scenario_path
from histq.scenario import Scenario, ScenarioError, _projectors, load_scenario, parse_scenario
from helpers import count_calls
import oracles

BUNDLED = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))


def base_scenario():
    return {
        "dim": 2,
        "hamiltonian": {"real": [[0.0, 0.0], [0.0, 0.0]]},
        "rho": {"matrix": {"real": [[0.75, 0.0], [0.0, 0.25]]}},
        "times": [0.0, 1.0],
        "histories": [
            {"label": "z", "projectors": [
                {"basis": "computational", "index": 0},
                {"identity": True},
            ]},
        ],
        "pvms": [[{"basis": "computational"}]],
        "entropy_p": [1.0, 2.0],
        "seed": 7,
    }


def replaced(data, path, value):
    """A copy of ``data`` with the node at ``path`` (keys and indices) set to ``value``."""
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def node_paths(node, prefix=()):
    """Every node of a JSON document, the root included, as a key/index path."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def spec_keys(node):
    if isinstance(node, dict):
        yield from node
    for child in node.values() if isinstance(node, dict) else (
            node if isinstance(node, list) else ()):
        yield from spec_keys(child)


# Any JSON value; object keys favour the scenario's own field names so that
# generated objects also reach the nested spec parsers.
SPEC_KEYS = sorted(set(spec_keys(BUNDLED)) | {"matrix", "indices", "weight"})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.sampled_from(["computational", "hadamard"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SPEC_KEYS) | st.text(), children, max_size=4),
    max_leaves=12)


class TestParsing:
    def test_bundled_scenario_parses(self):
        scn = load_scenario(bundled_scenario_path())
        assert scn.dim == 2
        assert scn.grid.times == (0.0, 1.0)
        assert scn.labels == ["unit", "plus-then-zero", "zero-zero"]
        assert scn.histories.shape == (3, 2, 2, 2)
        assert len(scn.pvms) == 1 and len(scn.pvms[0]) == 2
        assert np.trace(scn.model.rho).real == pytest.approx(1.0)

    def test_matrix_rho(self):
        scn = parse_scenario(base_scenario())
        assert np.allclose(scn.model.rho, np.diag([0.75, 0.25]))

    def test_rank_k_basis_projector(self):
        data = base_scenario()
        data["dim"] = 3
        data["hamiltonian"] = {"real": np.zeros((3, 3)).tolist()}
        data["rho"] = {"matrix": {"real": (np.eye(3) / 3).tolist()}}
        data["histories"] = [{"label": "r2", "projectors": [
            {"basis": "computational", "indices": [0, 2]},
            {"identity": True},
        ]}]
        data["pvms"] = []
        scn = parse_scenario(data)
        assert np.allclose(scn.histories[0, 0], np.diag([1.0, 0.0, 1.0]))

    def test_spectral_rho(self):
        data = base_scenario()
        data["rho"] = {"spectral": [
            {"weight": 0.75, "vector": {"real": [1.0, 0.0]}},
            {"weight": 0.25, "vector": {"real": [0.0, 1.0]}},
        ]}
        scn = parse_scenario(data)
        assert np.allclose(scn.model.rho, np.diag([0.75, 0.25]))

    def test_each_projector_is_checked_once(self, monkeypatch):
        # one stacked call for the specs of all histories, then one per
        # decomposition; every checked matrix in it once
        calls = count_calls(monkeypatch, "is_projector")
        scn = parse_scenario(copy.deepcopy(BUNDLED))
        lists = [list(scn.histories[1:].reshape(-1, 2, 2))]  # not the unit's
        lists += [pvm for per_time in scn.pvms for pvm in per_time]
        assert sum(map(len, lists)) == 8  # identity specs are exact and need no check
        assert [stack.shape for (stack,) in calls] == [(len(ps), 2, 2) for ps in lists]
        for (stack,), ps in zip(calls, lists):
            assert np.array_equal(stack, ps)


class TestValidationErrors:
    def test_bad_trace_names_rho(self):
        data = base_scenario()
        data["rho"] = {"matrix": {"real": [[0.9, 0.0], [0.0, 0.25]]}}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert "rho" in str(err.value)

    @pytest.mark.parametrize("vector", [{"real": ["a", 0.0]},
                                        {"real": [1.0, 0.0], "imag": [0.0]},
                                        {"real": [1.0, 0.0, 0.0]}])
    def test_malformed_spectral_vector_names_its_path(self, vector):
        data = base_scenario()
        data["rho"] = {"spectral": [{"weight": 0.75, "vector": vector},
                                    {"weight": 0.25, "vector": {"real": [0.0, 1.0]}}]}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert err.value.path == "rho.spectral[0].vector"

    def test_non_hermitian_hamiltonian(self):
        data = base_scenario()
        data["hamiltonian"] = {"real": [[0.0, 1.0], [0.0, 0.0]]}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert "hamiltonian" in str(err.value)

    def test_non_projector_matrix_flagged_with_path(self):
        data = base_scenario()
        data["histories"][0]["projectors"][0] = {
            "matrix": {"real": [[0.5, 0.0], [0.0, 0.5]]}}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert "histories[0].projectors[0]" in str(err.value)

    @pytest.mark.parametrize("where, spec, path", [
        ("histories", {"basis": "hadamard", "index": 0}, "histories[0].projectors[0].basis"),
        ("pvms", {"basis": "hadamard"}, "pvms[0][0].basis"),
    ])
    def test_named_basis_projector_checked_under_tight_bound(self, monkeypatch, where, spec,
                                                             path):
        # the Hadamard projectors carry rounding that an exact check refuses
        data = base_scenario()
        if where == "histories":
            data["histories"][0]["projectors"][0] = spec
        else:
            data["pvms"] = [[spec]]
        parse_scenario(data)
        monkeypatch.setattr("histq.scenario.is_projector",  # exact, one verdict per matrix
                            lambda p: ~np.any(p @ p - p, axis=(-2, -1)))
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert err.value.path == path
        assert err.value.message == "not a projector within the projector bound 1e-10"

    def test_times_must_increase(self):
        data = base_scenario()
        data["times"] = [1.0, 0.0]
        data["histories"] = []
        data["pvms"] = []
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert "times" in str(err.value)

    def test_history_length_mismatch(self):
        data = base_scenario()
        data["histories"][0]["projectors"] = [{"identity": True}]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert "projectors" in str(err.value)

    def test_pvm_must_sum_to_identity(self):
        data = base_scenario()
        data["pvms"] = [[{"projectors": [
            {"basis": "computational", "index": 0},
            {"basis": "computational", "index": 0},
        ]}]]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert "pvms[0][0]" in str(err.value)

    def test_entropy_p_range(self):
        data = base_scenario()
        data["entropy_p"] = [0.5]
        with pytest.raises(ScenarioError, match="entropy_p"):
            parse_scenario(data)

    def test_missing_field(self):
        data = base_scenario()
        del data["dim"]
        with pytest.raises(ScenarioError, match="dim"):
            parse_scenario(data)

    @pytest.mark.parametrize("first, second", [("z", "z"), (None, "h0")])
    def test_repeated_label_names_its_path(self, first, second):
        # labels compare as strings, after the default h<i> is filled in
        data = base_scenario()
        data["histories"].append(copy.deepcopy(data["histories"][0]))
        data["histories"][1]["label"] = second
        if first is None:
            del data["histories"][0]["label"]
        else:
            data["histories"][0]["label"] = first
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert err.value.path == "histories[1].label"

    @pytest.mark.parametrize("label", [None, True, 1, 1.5, [1], {"a": 1}])
    def test_label_that_is_not_a_string_is_refused(self, label):
        # never written as str(label): "None", "True" or "{'a': 1}" in a JSON report
        data = base_scenario()
        data["histories"][0]["label"] = label
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert (err.value.path, err.value.message) == ("histories[0].label", "expected a string")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="unreadable"):
            load_scenario(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)


@pytest.mark.parametrize("path, value, field", [
    (("pvms",), [[{"projectors": 5}]], "pvms[0][0].projectors"),
    (("histories",), 5, "histories"),
    (("histories", 1, "projectors", 0), {"basis": "hadamard", "indices": 3},
     "histories[1].projectors[0].indices"),
    (("rho", "spectral", 0, "weight"), "x", "rho.spectral[0].weight"),
    (("histories", 1, "projectors", 0), {"basis": "computational", "index": True},
     "histories[1].projectors[0].index"),
    (("dim",), True, "dim"),
    (("seed",), True, "seed"),
    (("t0",), "a", "t0"),
    (("rho", "spectral", 1, "vector", "imag"), [None, 2.7e154], "rho.spectral[1].vector"),
    (("rho", "spectral", 1, "vector", "imag"), [math.inf, 0.0], "rho.spectral[1].vector"),
    (("rho", "spectral", 1, "vector", "imag"), [0.0, 2.7e154], "rho"),
], ids=["pvm-projectors", "histories", "indices", "weight", "bool-index", "bool-dim",
        "bool-seed", "t0", "null-entry", "infinite-entry", "overflowing-entry"])
def test_malformed_value_names_its_field(path, value, field):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(replaced(BUNDLED, path, value))
    assert err.value.path == field


@pytest.mark.parametrize("path, value, field", [
    (("t0",), "0.5", "t0"),
    (("t0",), True, "t0"),
    (("times",), ["0", "1"], "times"),
    (("times",), [0.0, True], "times"),
    (("entropy_p",), [True], "entropy_p"),
    (("entropy_p",), ["2"], "entropy_p"),
    (("rho", "spectral", 0, "weight"), "0.75", "rho.spectral[0].weight"),
    (("rho", "spectral", 1, "weight"), False, "rho.spectral[1].weight"),
    (("hamiltonian", "real", 0, 0), "0", "hamiltonian"),
    (("hamiltonian", "imag", 1, 1), False, "hamiltonian"),
    (("rho", "spectral", 0, "vector", "real", 0), True, "rho.spectral[0].vector"),
    (("histories", 1, "projectors", 0), {"matrix": {"real": [["1", 0], [0, 0]]}},
     "histories[1].projectors[0].matrix"),
], ids=["t0-string", "t0-bool", "times-strings", "times-bool", "entropy_p-bool",
        "entropy_p-string", "weight-string", "weight-bool", "matrix-string", "matrix-bool",
        "vector-bool", "projector-string"])
def test_real_must_be_a_json_number(path, value, field):
    # float() reads "0.5" and True, so every real is checked for its JSON type
    with pytest.raises(ScenarioError) as err:
        parse_scenario(replaced(BUNDLED, path, value))
    assert err.value.path == field


@given(st.sampled_from(list(node_paths(BUNDLED))), JSON_VALUES)
@settings(max_examples=500, deadline=None)
def test_any_json_value_parses_or_raises_scenario_error(path, value):
    try:
        scn = parse_scenario(replaced(BUNDLED, path, value))
    except ScenarioError:
        return
    assert isinstance(scn, Scenario)


# Projector specs of a dim-2 list: exact identities, named-basis projectors
# and matrix specs, the last with integer or float entries and with or
# without their imaginary parts.
PLUS_SPEC = {"real": [[0.5, 0.5], [0.5, 0.5]]}
SPECS = st.sampled_from([
    {"identity": True},
    {"basis": "computational", "index": 1},
    {"basis": "hadamard", "indices": [0]},
    {"basis": "computational", "indices": []},
    {"basis": "hadamard", "indices": [0, 1]},
    {"matrix": {"real": [[1, 0], [0, 0]]}},
    {"matrix": {"real": [[0.0, 0.0], [0.0, 0.0]], "imag": [[0.0, 0.0], [0.0, 0.0]]}},
    {"matrix": PLUS_SPEC},
    {"matrix": {"real": [[0.5, 0.0], [0.0, 0.5]], "imag": [[0.0, -0.5], [0.5, 0.0]]}},
])
# A bad matrix spec and whether its conversion (not the projector check) refuses it.
BAD_MATRICES = st.sampled_from([
    ({"real": [[True, 0], [0, 0]]}, True),
    ({"real": [["1", 0], [0, 0]]}, True),
    ({"real": [[math.nan, 0.0], [0.0, 0.0]]}, True),
    ({"real": [[1.0, 0.0], [0.0, 0.0]], "imag": [[math.inf, 0.0], [0.0, 0.0]]}, True),
    ({"real": [[1, 0], [0]]}, True),
    ({"real": [[1, 0, 0], [0, 0, 0]]}, True),
    ({"real": [[1, 0], [0, 0]], "imag": [[0, 0]]}, True),
    ({"real": 1.0}, True),
    ([[1, 0], [0, 0]], True),
    ({"real": [[1, 1], [0, 0]]}, False),
])
PATH = "histories[0].projectors"


def _paths(specs):
    return [f"{PATH}[{k}]" for k in range(len(specs))]


class TestSpecListConversion:
    """``_projectors`` converts a list's matrix specs together; it must return
    and refuse exactly what one conversion per spec does."""

    @given(specs=st.lists(SPECS, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_per_spec_conversion(self, specs):
        got = _projectors(specs, 2, _paths(specs))
        want = oracles.projector_specs(specs, 2, _paths(specs))
        assert [p.dtype for p in got] == [complex] * len(specs)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]

    @given(specs=st.lists(SPECS, min_size=1, max_size=5), data=st.data(), bad=BAD_MATRICES,
           later=st.sampled_from([None, {"basis": "computational", "index": 2},
                                  {"matrix": {"real": [[math.nan]]}}, {"nope": 1}]))
    @settings(max_examples=120, deadline=None)
    def test_a_bad_matrix_is_named_by_its_position(self, specs, data, bad, later):
        # a later refused spec is named only when the bad matrix passes its
        # conversion and fails the projector check after every conversion
        node, converting = bad
        k = data.draw(st.integers(0, len(specs)), label="k")
        specs = specs[:k] + [{"matrix": node}] + specs[k:] + ([later] if later else [])
        with pytest.raises(ScenarioError) as want:
            oracles.projector_specs(specs, 2, _paths(specs))
        with pytest.raises(ScenarioError) as got:
            _projectors(specs, 2, _paths(specs))
        assert (got.value.path, got.value.message) == (want.value.path, want.value.message)
        if converting or later is None:
            assert got.value.path == f"{PATH}[{k}].matrix"


# One bad field of one history: the change it makes to that history object.
ONE_BAD = st.sampled_from([
    ("label", True),
    ("label", None),
    ("spec", {"basis": "computational", "index": True}),
    ("spec", {"matrix": {"real": [[True, 0], [0, 0]]}}),
    ("spec", {"matrix": {"real": [[math.nan, 0.0], [0.0, 0.0]]}}),
    ("spec", {"matrix": {"real": [[1, 0], [0]]}}),
    ("spec", {"matrix": {"real": [[1, 0, 0], [0, 0, 0]]}}),
    ("spec", {"matrix": {"real": [[1, 1], [0, 0]]}}),
    ("spec", {"nope": 1}),
    ("projectors", [{"identity": True}]),
    ("history", 5),
])


class TestHistoriesReadTogether:
    """``parse_scenario`` checks every history's structure, then reads all their
    specs as one list; on valid input and on one bad field it must agree with
    reading the histories one at a time."""

    @staticmethod
    def scenario(rows):
        return {**base_scenario(),
                "histories": [{"label": f"h{i}", "projectors": row} for i, row in enumerate(rows)]}

    @given(rows=st.lists(st.lists(SPECS, min_size=2, max_size=2), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_one_history_at_a_time_parse(self, rows):
        data = self.scenario(rows)
        got = parse_scenario(data)
        want = oracles.parse_histories(data["histories"], (0.0, 1.0), 2)
        assert got.labels == [label for label, _ in want]
        assert got.histories.shape == (len(want), 2, 2, 2)
        assert [[p.tobytes() for p in row] for row in got.histories] == \
            [[p.tobytes() for _, p in h.items] for _, h in want]

    @given(rows=st.lists(st.lists(SPECS, min_size=2, max_size=2), max_size=4),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_decohere_moves_each_history_as_the_oracle_embeds_it(self, rows, seed):
        # identity, basis and matrix specs, and no history at all: decohere's
        # one transport of the parsed stack has the bits of one transport per
        # projector of the one-history-at-a-time parse
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        data = {**self.scenario(rows), "t0": float(rng.uniform(-1.0, 1.0)),
                "hamiltonian": {"real": (a + a.conj().T).real.tolist(),
                                "imag": (a + a.conj().T).imag.tolist()}}
        scn = parse_scenario(data)
        with pytest.MonkeyPatch.context() as patch:
            calls = count_calls(patch, "chains")
            _decohere_payload(scn)
        [(moved,)] = calls
        assert moved.shape == (len(rows), 2, 2, 2)
        want = oracles.parse_histories(data["histories"], scn.grid.times, 2)
        for row, (_, h) in zip(moved, want):
            x = oracles.embed(scn.model, h, scn.grid.times, scn.grid.t0)
            assert [f.tobytes() for f in row] == [f.tobytes() for f in x.factors]

    @given(rows=st.lists(st.lists(SPECS, min_size=2, max_size=2), min_size=1, max_size=4),
           bad=ONE_BAD, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_bad_field_names_the_one_history_at_a_time_path(self, rows, bad, data):
        scenario = self.scenario(rows)
        i = data.draw(st.integers(0, len(rows) - 1), label="history")
        k = data.draw(st.integers(0, 1), label="spec")
        where, value = bad
        node = scenario["histories"][i]
        if where == "history":
            scenario["histories"][i] = value
        elif where == "spec":
            node["projectors"][k] = value
        else:
            node[where] = value
        with pytest.raises(ScenarioError) as want:
            oracles.parse_histories(scenario["histories"], (0.0, 1.0), 2)
        with pytest.raises(ScenarioError) as got:
            parse_scenario(scenario)
        assert (got.value.path, got.value.message) == (want.value.path, want.value.message)
        assert got.value.path.startswith(f"histories[{i}]")
