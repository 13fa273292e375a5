"""Finite-dimensional numerics for temporal (history) quantum theories.

The public names below resolve on first use (PEP 562): ``import histq``
loads no submodule, and ``histq.X`` or ``from histq import X`` imports the
one module that defines ``X``.
"""

import importlib

# Each re-exported name, by the module that defines it.
_EXPORTS = {
    "core": ("TOLERANCES", "SystemModel", "TimeGrid", "Tolerances", "evolve", "heisenberg",
             "named_basis", "projector_onto", "tensor_product"),
    "histories": ("Proposition", "PropositionSpace", "chain_map", "chains", "proposition"),
    "decoherence": ("CapacityError", "DecoherenceState", "IlsOperator", "d_basis_sum",
                    "ils_reconstruct"),
    "propositions": ("WrightOperator", "hs_inner", "wright_operator"),
    "consistency": ("BaseFamily", "ConsistencyReport", "Window", "base_family",
                    "check_window", "refinements", "search_windows", "window"),
    "entropy": ("EntropyReport", "min_entropy", "refinement_gap", "window_entropy",
                "window_entropy_pnorm"),
    "divergence": ("GrowthVerdict", "TruncationSeries", "b1_series", "b2_series",
                   "growth_fit"),
    "sampling": ("random_projectors",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
