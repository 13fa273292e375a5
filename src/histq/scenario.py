"""Scenario files: JSON in, validated model + history stack + decompositions out.

A scenario file is a JSON object with the fields

* ``dim``: single-time dimension (positive integer);
* ``hamiltonian``: matrix as parallel ``real``/``imag`` 2-D arrays;
* ``rho``: either ``{"matrix": {...}}`` or ``{"spectral": [{"weight": w,
  "vector": {"real": [...], "imag": [...]}}, ...]}``;
* ``t0``: evolution origin (optional, default 0);
* ``times``: strictly increasing list of reals;
* ``histories``: list of ``{"label": str, "projectors": [spec, ...]}`` with
  one projector spec per time; labels (default ``h<i>``) must be distinct;
* ``pvms``: per-time lists of alternative projector decompositions, aligned
  with the first ``len(pvms)`` times;
* ``entropy_p``: list of finite norm parameters >= 1;
* ``seed``: non-negative integer driving all randomized verification.

A projector spec is one of ``{"identity": true}``, ``{"matrix": {"real":
[[...]], "imag": [[...]]}}``, or ``{"basis": "computational"|"hadamard",
"index": i}`` / ``{"basis": ..., "indices": [i, j, ...]}`` for rank-k
projectors onto named basis vectors.  A decomposition spec is either
``{"basis": name}`` (all rank-1 projectors of that basis) or
``{"projectors": [spec, ...]}``.

Validation failures raise :class:`ScenarioError` carrying the JSON path of
the offending field.  The histories come out as one stack (count, n, dim,
dim) of their projectors on the n grid times, beside the list of their
labels.  They are read in two passes: the structure of each (object, label,
projector list), then all their specs as one list, projector check last.  So
of two bad histories a later one's structural or spec error can be named
before an earlier one's; one bad field names the same path.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import TOLERANCES, SystemModel, TimeGrid, is_projector, named_basis, projector_onto

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario"]


class ScenarioError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass
class Scenario:
    dim: int
    model: SystemModel
    grid: TimeGrid
    labels: list[str]
    histories: np.ndarray  # (len(labels), len(grid.times), dim, dim) projectors
    pvms: list[list[list[np.ndarray]]]
    entropy_p: list[float]
    seed: int


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ScenarioError(f"{path}{key}", "missing field")
    return data[key]


def _is_int(value) -> bool:
    """True for JSON integers; ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reals(node) -> bool:
    """True for a finite JSON number (not NaN or Infinity) or nested lists of them."""
    if isinstance(node, list):
        types = set(map(type, node))
        if types <= {float}:  # a row of floats: one C-level pass
            return all(map(math.isfinite, node))
        if types == {list}:  # lists of lists: one level flattened per call
            return _reals([x for row in node for x in row])
        return all(map(_reals, node))
    return (_is_int(node) or isinstance(node, float)) and abs(node) <= sys.float_info.max


def _real(value, path: str) -> float:
    """``value`` as a float; ``ScenarioError`` unless it is a finite JSON number."""
    if isinstance(value, list) or not _reals(value):
        raise ScenarioError(path, f"expected a finite real number, got {value!r}")
    return float(value)


def _complex_arrays(nodes: list, shape: tuple[int, ...], paths: list[str]) -> np.ndarray:
    """The 'real'/'imag' objects ``nodes`` as one array (count, *shape): one ``_reals`` pass and
    one float conversion over all parts when each node has both, else node by node to name
    the first bad one's path, a missing 'imag' read as a zero scalar (nothing of ``shape``)."""
    if all(isinstance(m, dict) and "real" in m and "imag" in m for m in nodes):
        parts = [[m["real"] for m in nodes], [m["imag"] for m in nodes]]
        with contextlib.suppress(ValueError):  # ragged lists
            if _reals(parts) and (z := np.asarray(parts, dtype=float)).shape[2:] == shape:
                return z[0] + 1j * z[1]
    out = []
    for node, path in zip(nodes, paths):
        if not isinstance(node, dict) or "real" not in node:
            raise ScenarioError(path, "expected an object with 'real' (and optional 'imag') arrays")
        if not (_reals(node["real"]) and _reals(node.get("imag", []))):
            raise ScenarioError(path, "entries must be finite JSON numbers")
        try:
            real = np.asarray(node["real"], dtype=float)
            imag = np.asarray(node.get("imag", 0.0), dtype=float)
        except ValueError as exc:  # ragged lists
            raise ScenarioError(path, f"not numeric arrays: {exc}") from None
        if "imag" in node and real.shape != imag.shape:
            raise ScenarioError(path, "'real' and 'imag' shapes differ")
        if real.shape != shape:
            raise ScenarioError(path, f"expected shape {shape}, got {real.shape}")
        out.append(real + 1j * imag)
    return np.reshape(out, (-1, *shape))


def _rho(node, dim: int, path: str) -> SystemModel | tuple:
    if not isinstance(node, dict):
        raise ScenarioError(path, "expected an object with 'matrix' or 'spectral'")
    if "matrix" in node:
        return ("matrix", _complex_arrays([node["matrix"]], (dim, dim), [f"{path}.matrix"])[0])
    if "spectral" in node:
        entries = node["spectral"]
        if not isinstance(entries, list) or not entries:
            raise ScenarioError(f"{path}.spectral", "expected a nonempty list")
        weights, vectors = [], []
        for i, entry in enumerate(entries):
            epath = f"{path}.spectral[{i}]"
            if not isinstance(entry, dict):
                raise ScenarioError(epath, "expected an object")
            weights.append(_real(_require(entry, "weight", f"{epath}."), f"{epath}.weight"))
            vectors.append(_complex_arrays([_require(entry, "vector", f"{epath}.")], (dim,),
                                           [f"{epath}.vector"])[0])
        if len(entries) != dim:
            raise ScenarioError(f"{path}.spectral",
                                f"need exactly dim={dim} entries (pad with zero weights)")
        return ("spectral", np.asarray(weights), np.column_stack(vectors))
    raise ScenarioError(path, "expected 'matrix' or 'spectral'")


def _projector(node, dim: int, path: str) -> tuple[np.ndarray | None, str | None]:
    """The spec's matrix (none for a matrix spec) and its check path (none for the identity)."""
    if not isinstance(node, dict):
        raise ScenarioError(path, "expected an object")
    if node.get("identity"):
        return np.eye(dim, dtype=complex), None
    if "matrix" in node:
        return None, f"{path}.matrix"
    if "basis" not in node:
        raise ScenarioError(path, "unknown projector spec (need identity/matrix/basis)")
    try:
        basis = named_basis(node["basis"], dim)
    except ValueError as exc:
        raise ScenarioError(f"{path}.basis", str(exc)) from None
    key = "index" if "index" in node else "indices"
    if key not in node:
        raise ScenarioError(path, "basis projector needs 'index' or 'indices'")
    indices = [node["index"]] if key == "index" else node["indices"]
    if not isinstance(indices, list):
        raise ScenarioError(f"{path}.{key}", "expected a list of integers")
    for i in indices:
        if not _is_int(i) or not 0 <= i < dim:
            raise ScenarioError(f"{path}.{key}",
                                f"basis index {i!r} is not an integer in [0, {dim})")
    return projector_onto(basis[:, indices]), f"{path}.basis"  # rounding can fail a tight bound


def _projectors(specs: list, dim: int, paths: list[str]) -> list[np.ndarray]:
    """One spec list's matrices, its matrix specs converted together and every
    non-identity one checked by one ``is_projector`` call; ``ScenarioError``
    under the first refused one's path."""
    built = []
    try:
        for node, path in zip(specs, paths):
            built.append(_projector(node, dim, path))
    finally:  # so a bad matrix before a refused spec is named first
        pending = [(node["matrix"], path) for node, (p, path) in zip(specs, built) if p is None]
        matrices = iter(_complex_arrays([m for m, _ in pending], (dim, dim),
                                        [path for _, path in pending]))
    built = [(next(matrices) if p is None else p, path) for p, path in built]
    checked = [(p, path) for p, path in built if path]
    if checked:
        bad = np.flatnonzero(np.logical_not(is_projector(np.array([p for p, _ in checked]))))
        if bad.size:
            raise ScenarioError(checked[bad[0]][1], "not a projector within the projector "
                                                    f"bound {TOLERANCES.projector:g}")
    return [p for p, _ in built]


def _pvm(node, dim: int, path: str) -> list[np.ndarray]:
    if not isinstance(node, dict):
        raise ScenarioError(path, "expected an object")
    if "basis" in node and "projectors" not in node:
        return _projectors([{"basis": node["basis"], "index": i} for i in range(dim)], dim,
                           [path] * dim)
    if "projectors" in node:
        if not isinstance(node["projectors"], list):
            raise ScenarioError(f"{path}.projectors", "expected a list of projector specs")
        elements = _projectors(node["projectors"], dim,
                               [f"{path}.projectors[{i}]" for i in range(len(node["projectors"]))])
        total = sum(elements)
        if np.max(np.abs(total - np.eye(dim))) > TOLERANCES.consistency:
            raise ScenarioError(f"{path}.projectors", "elements must sum to the identity")
        return elements
    raise ScenarioError(path, "unknown decomposition spec (need basis/projectors)")


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("$", "scenario must be a JSON object")

    dim = _require(data, "dim", "")
    if not _is_int(dim) or dim < 1:
        raise ScenarioError("dim", "must be a positive integer")

    hmat = _complex_arrays([_require(data, "hamiltonian", "")], (dim, dim), ["hamiltonian"])[0]
    rho_spec = _rho(_require(data, "rho", ""), dim, "rho")

    try:  # finite entries may still overflow: refused, not carried as inf or NaN
        with np.errstate(over="raise", invalid="raise"):
            if rho_spec[0] == "matrix":
                model = SystemModel.from_matrices(hmat, rho_spec[1])
            else:
                model = SystemModel.from_spectral(hmat, rho_spec[1], rho_spec[2])
    except (ValueError, FloatingPointError) as exc:
        text = str(exc)
        field = "hamiltonian" if "hamiltonian" in text else "rho"
        raise ScenarioError(field, text) from None

    times = _require(data, "times", "")
    if not isinstance(times, list) or not times:
        raise ScenarioError("times", "expected a nonempty list of reals")
    t0 = _real(data.get("t0", 0.0), "t0")
    times = tuple(_real(t, "times") for t in times)
    try:
        grid = TimeGrid(times=times, t0=t0)
    except ValueError as exc:
        raise ScenarioError("times", str(exc)) from None
    # the largest phase |E| |t - t0|, in Python floats: an overflow reads inf, or NaN at E = 0
    if not np.isfinite(float(np.abs(model.energies).max()) * max(abs(t - t0) for t in times)):
        raise ScenarioError("times", "the evolution phases E (t - t0) overflow")

    labels, specs, paths = [], [], []
    history_nodes = data.get("histories", [])
    if not isinstance(history_nodes, list):
        raise ScenarioError("histories", "expected a list of histories")
    for i, node in enumerate(history_nodes):
        hpath = f"histories[{i}]"
        if not isinstance(node, dict):
            raise ScenarioError(hpath, "expected an object")
        label = node.get("label", f"h{i}")
        if not isinstance(label, str):  # labels are report strings, never str() of a value
            raise ScenarioError(f"{hpath}.label", "expected a string")
        if label in labels:  # labels name the report rows
            raise ScenarioError(f"{hpath}.label", f"repeats the label {label!r}")
        labels.append(label)
        row = _require(node, "projectors", f"{hpath}.")
        if not isinstance(row, list) or len(row) != len(grid.times):
            raise ScenarioError(f"{hpath}.projectors",
                                f"need one projector spec per time ({len(grid.times)})")
        specs += row
        paths += [f"{hpath}.projectors[{k}]" for k in range(len(row))]
    histories = np.reshape(np.array(_projectors(specs, dim, paths), dtype=complex),
                           (len(labels), len(grid.times), dim, dim))

    pvms: list[list[list[np.ndarray]]] = []
    pvm_nodes = data.get("pvms", [])
    if not isinstance(pvm_nodes, list):
        raise ScenarioError("pvms", "expected a list (one entry per leading time)")
    if len(pvm_nodes) > len(grid.times):
        raise ScenarioError("pvms", f"more entries than times ({len(grid.times)})")
    for k, per_time in enumerate(pvm_nodes):
        if not isinstance(per_time, list) or not per_time:
            raise ScenarioError(f"pvms[{k}]", "expected a nonempty list of decompositions")
        pvms.append([_pvm(node, dim, f"pvms[{k}][{j}]") for j, node in enumerate(per_time)])

    entropy_p = data.get("entropy_p", [1.0, 2.0])
    if not isinstance(entropy_p, list) or not entropy_p:
        raise ScenarioError("entropy_p", "expected a nonempty list of reals >= 1")
    entropy_p = [_real(p, "entropy_p") for p in entropy_p]
    if not all(p >= 1 for p in entropy_p):
        raise ScenarioError("entropy_p", "norm parameters must be >= 1")

    seed = data.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ScenarioError("seed", "must be a non-negative integer")

    return Scenario(dim=dim, model=model, grid=grid, labels=labels, histories=histories,
                    pvms=pvms, entropy_p=entropy_p, seed=seed)


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(str(path), f"unreadable scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"invalid JSON: {exc}") from None
    return parse_scenario(data)
