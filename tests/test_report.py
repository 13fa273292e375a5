"""The report writer against its oracle, ``json.dumps(..., indent=2,
ensure_ascii=True, allow_nan=False)``: the same bytes, the same errors."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histq.report import write_json


def oracle(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def written(tmp_path, payload) -> str:
    write_json(tmp_path / "r.json", payload)
    return (tmp_path / "r.json").read_text(encoding="utf-8")


# non-ASCII, astral and control characters, quotes and backslashes
TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\n\t\x00\x1f\x7f é😀'),
               max_size=8)
FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]))
LEAVES = (FLOATS | TEXT | st.booleans() | st.none() | st.integers()
          | st.integers(-2 ** 200, 2 ** 200) | FLOATS.map(np.float64))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(TEXT, inner, max_size=4), max_leaves=30)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """One directory whose report each example replaces."""
    return tmp_path_factory.mktemp("reports")


@given(payload=st.dictionaries(TEXT, VALUES, max_size=5))
@settings(max_examples=200, deadline=None)
def test_bytes_equal_the_oracle(out, payload):
    assert written(out, payload) == oracle(payload)


@given(value=VALUES)
@settings(max_examples=100, deadline=None)
def test_any_value_at_the_top_equals_the_oracle(out, value):
    assert written(out, value) == oracle(value)


@pytest.mark.parametrize("payload", [
    {}, [], {"a": []}, {"a": {}}, [[], {}, [[]]], {"t": (1, 2.5)},
    {"z": -0.0, "tiny": 5e-324, "big": 1e16, "int": 10 ** 30, "flags": [True, False, None]},
    {"n": np.float64(0.1), "text": "é \x00\"\\"},
])
def test_edge_payloads_equal_the_oracle(tmp_path, payload):
    assert written(tmp_path, payload) == oracle(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_nan_and_infinity_raise_the_oracles_value_error(tmp_path, bad):
    payload = {"rows": [{"value": bad}]}
    with pytest.raises(ValueError) as expected:
        oracle(payload)
    with pytest.raises(ValueError) as got:
        write_json(tmp_path / "r.json", payload)
    assert str(got.value) == str(expected.value)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("bad", [np.bool_(True), np.int64(3), {1, 2}, 1j, b"x", object()])
def test_unsupported_types_raise_the_oracles_type_error(tmp_path, bad):
    payload = {"rows": [1.0, bad]}
    with pytest.raises(TypeError) as expected:
        oracle(payload)
    with pytest.raises(TypeError) as got:
        write_json(tmp_path / "r.json", payload)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("key", [1, 2.5, None, True, (1, 2)])
def test_keys_that_are_not_str_raise_type_error(tmp_path, key):
    with pytest.raises(TypeError):
        write_json(tmp_path / "r.json", {key: 1})
    assert not (tmp_path / "r.json").exists()
