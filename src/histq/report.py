"""Deterministic JSON/CSV report serialization.

Reports never contain timestamps or data about the host; for a fixed scenario
and seed two runs emit byte-identical files.  Keys appear in the order they
are documented in the README.  Complex values are written as ``{"re": ...,
"im": ...}`` pairs, so no format relies on complex literals.

A report is written to ``<name>.tmp``, the earlier file is removed, and the
``.tmp`` is renamed to the name: a failed write leaves the earlier report, and
ext4 does not flush the data at once as it does for a file replaced in place.

Every value row carries a ``representation`` tag naming the producing form:
``decf1`` (chain trace), ``decf`` (basis sum), ``ILS2`` (doubled-space
reconstruction), ``propa`` (sector quadratic form), ``ent`` (entropy).
"""

from __future__ import annotations

import json
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


def write_json(path, payload: dict) -> None:
    # NaN and Infinity are not JSON; refuse them rather than write them
    text = json.dumps(payload, indent=2, ensure_ascii=True, allow_nan=False)
    _replace(path, text + "\n")


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(_clean(v)) if isinstance(v, float) else str(v)
                              for v in row))
    _replace(path, "\n".join(lines) + "\n")
