"""Outside-in layer tracer for the ``histq`` modules, and the span arithmetic.

The program has no tracing of its own, so :class:`Tracer` wraps it from the
outside: every public function (each module's ``__all__``) and
``IlsOperator.pair_value`` is replaced by a recording wrapper in *every*
``histq`` module namespace that binds it.  Cross-module calls
(``cli`` -> ``search_windows``) and same-module calls through module globals
(``search_windows`` -> ``check_window``) are therefore both recorded.
Generator functions are wrapped too; their span covers creating the
generator, and the iteration is charged to the caller.

Spans are kept in memory as parallel arrays (name, start, end, parent,
operation id) together with call and raised counts, and are written out as
one ``.npz`` file by :meth:`Tracer.save`.  :func:`self_times` and
:func:`layer_metrics` turn a saved span set into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

__all__ = ["LAYERS", "Tracer", "load_spans", "self_times", "layer_metrics"]

# The histq modules, in dependency order; their names are the layer names.
LAYERS = ("core", "histories", "decoherence", "propositions", "consistency", "entropy",
          "divergence", "sampling", "scenario", "report", "verify", "cli")

NO_PARENT = -1


def _flat_terms(ds, p) -> int:
    """dim^(2n) index terms that one ``d_basis_sum(ds, p, q)`` call sums."""
    n = p.n_times if hasattr(p, "n_times") else len(list(p)[0][1].times)
    return ds.model.dim ** (2 * n)


class Tracer:
    """Records a span for every call into a wrapped ``histq`` function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: list[int] = []
        self.counters = {"decoherence.d_basis_sum.terms": 0,
                         "consistency.partitions_examined": 0,
                         "consistency.windows_accepted": 0}
        self.op = 0
        self._current = NO_PARENT
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.raised.append(0)
        return self._ids[name]

    def _after(self, name: str, parent: int, args, result) -> None:
        """Computed counts, derived from the arguments and results of a call."""
        if name == "decoherence.d_basis_sum":
            self.counters["decoherence.d_basis_sum.terms"] += _flat_terms(args[0], args[1])
        elif name == "consistency.check_window" and parent != NO_PARENT \
                and self.names[self.span_name[parent]] == "consistency.search_windows":
            self.counters["consistency.partitions_examined"] += 1
            self.counters["consistency.windows_accepted"] += int(result.consistent)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        counted = name in ("decoherence.d_basis_sum", "consistency.check_window")
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end, clock = self.span_start, self.span_end, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(parent)
            span_op.append(self.op)
            span_end.append(0.0)
            self._current = idx
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[nid] += 1
                raise
            finally:
                span_end[idx] = clock()
                self._current = parent
            if counted:
                self._after(name, parent, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public ``histq`` function wherever a module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"histq.{layer}") for layer in LAYERS]
        namespaces = modules + [importlib.import_module("histq")]
        targets: dict[int, tuple[str, object]] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in targets:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        ils = importlib.import_module("histq.decoherence").IlsOperator
        self._patches.append((ils, "pair_value", ils.pair_value))
        ils.pair_value = self._wrap("decoherence.IlsOperator.pair_value", ils.pair_value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save(self, path: Path) -> None:
        """Write the spans, per-name raised counts and computed counters."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            raised=np.array(self.raised, dtype=np.int64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def load_spans(path: Path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct child spans cover.

    One thread records the spans, so the children of a span are disjoint
    intervals inside it and the covered time is the sum of their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent != NO_PARENT
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-operation metrics of every traced function and layer.

    For each function and each layer (``core``, ``consistency``, ...):
    ``<name>.calls`` and ``<name>.self_s``, taken per traced operation and
    reported as the median over operations; ``<name>.raised`` counts the
    calls that raised, over the whole run, per operation.  The computed
    counters are reported per operation as well.
    """
    names = [str(n) for n in spans["names"]]
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    ops = np.unique(spans["op"])
    n_ops = max(len(ops), 1)
    n_names = len(names)
    calls_per_op, self_per_op = [], []
    for op in ops:
        mask = spans["op"] == op
        calls_per_op.append(np.bincount(spans["name"][mask], minlength=n_names))
        self_per_op.append(np.bincount(spans["name"][mask], weights=selfs[mask],
                                       minlength=n_names))
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for nid, name in enumerate(names):
        calls = [float(c[nid]) for c in calls_per_op] or [0.0]
        self_s = [float(s[nid]) for s in self_per_op] or [0.0]
        out[f"{name}.calls"] = statistics.median(calls)
        out[f"{name}.self_s"] = statistics.median(self_s)
        out[f"{name}.raised"] = float(spans["raised"][nid]) / n_ops
    for layer in LAYERS:
        ids = [nid for nid, name in enumerate(names) if name.split(".")[0] == layer]
        if ids:
            out[f"{layer}.calls"] = statistics.median(float(c[ids].sum()) for c in calls_per_op)
            out[f"{layer}.self_s"] = statistics.median(float(s[ids].sum()) for s in self_per_op)
    for key, value in zip(spans["counter_names"], spans["counter_values"]):
        out[str(key)] = float(value) / n_ops
    examined = out["consistency.partitions_examined"]
    out["consistency.accept_ratio"] = (
        out["consistency.windows_accepted"] / examined if examined else 0.0)
    return out
