"""Deterministic JSON/CSV report serialization.

Reports never contain timestamps or data about the host; for a fixed scenario
and seed two runs emit byte-identical files.  Keys appear in the order they
are documented in the README.  Complex values are written as ``{"re": ...,
"im": ...}`` pairs, so no format relies on complex literals.

A report is written to ``<name>.tmp``, the earlier file is removed, and the
``.tmp`` is renamed to the name: a failed write leaves the earlier report, and
ext4 does not flush the data at once as it does for a file replaced in place.

``write_json`` writes the bytes of ``json.dumps(payload, indent=2,
ensure_ascii=True, allow_nan=False)``, with its errors, by one recursive join
instead of the standard library's pure-Python indent encoder; keys are str.

Every value row carries a ``representation`` tag naming the producing form:
``decf1`` (chain trace), ``decf`` (basis sum), ``ILS2`` (doubled-space
reconstruction), ``propa`` (sector quadratic form), ``ent`` (entropy).
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

__all__ = [
    "TAG_CHAIN",
    "TAG_BASIS_SUM",
    "TAG_ILS",
    "TAG_QUADRATIC",
    "TAG_ENTROPY",
    "complex_entry",
    "write_json",
    "write_csv",
]

TAG_CHAIN = "decf1"
TAG_BASIS_SUM = "decf"
TAG_ILS = "ILS2"
TAG_QUADRATIC = "propa"
TAG_ENTROPY = "ent"


def _clean(x: float) -> float:
    # -0.0 and 0.0 are equal but serialize differently
    return float(x) + 0.0


def complex_entry(z: complex) -> dict:
    z = complex(z)
    return {"re": _clean(z.real), "im": _clean(z.imag)}


def _replace(path, text: str) -> None:
    """Write ``<name>.tmp``, remove ``path``, rename; a failure removes the ``.tmp``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        path.unlink(missing_ok=True)
        tmp.rename(path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _json(value, indent: str) -> str:
    """``value`` as JSON text nested at ``indent``; frequent types are tested first."""
    if isinstance(value, float):
        if not math.isfinite(value):  # NaN and Infinity are not JSON; refused, not written
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):  # a key that is not a str raises TypeError
        ends, items = "{}", [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                             for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        ends, items = "[]", [_json(v, inner) for v in value]
    elif value is None or isinstance(value, int):  # bool is an int
        return ("null" if value is None else "true" if value is True
                else "false" if value is False else int.__repr__(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


def write_json(path, payload: dict) -> None:
    _replace(path, _json(payload, "") + "\n")


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(_clean(v)) if isinstance(v, float) else str(v)
                              for v in row))
    _replace(path, "\n".join(lines) + "\n")
