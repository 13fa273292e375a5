"""The ``histq`` package namespace: names resolve on first use to the objects
their defining modules bind."""

import importlib

import pytest

import histq

# Every name the package re-exports, by its defining module.
EXPORTED = {
    "core": {"TOLERANCES", "SystemModel", "TimeGrid", "Tolerances", "evolve", "heisenberg",
             "named_basis", "projector_onto", "tensor_product"},
    "histories": {"Proposition", "PropositionSpace", "chain_map", "chains", "proposition"},
    "decoherence": {"CapacityError", "DecoherenceState", "IlsOperator", "d_basis_sum",
                    "ils_reconstruct"},
    "propositions": {"WrightOperator", "hs_inner", "wright_operator"},
    "consistency": {"BaseFamily", "ConsistencyReport", "Window", "base_family",
                    "check_window", "refinements", "search_windows", "window"},
    "entropy": {"EntropyReport", "min_entropy", "refinement_gap", "window_entropy",
                "window_entropy_pnorm"},
    "divergence": {"GrowthVerdict", "TruncationSeries", "b1_series", "b2_series",
                   "growth_fit"},
    "sampling": {"random_projectors"},
}
DEFINED_IN = {name: module for module, names in EXPORTED.items() for name in names}


def test_all_lists_every_exported_name_once():
    assert len(histq.__all__) == len(set(histq.__all__)) == 41
    assert set(histq.__all__) == set(DEFINED_IN)


def test_each_name_is_its_defining_modules_object():
    for name, module_name in DEFINED_IN.items():
        module = importlib.import_module(f"histq.{module_name}")
        value = getattr(histq, name)
        assert value is getattr(module, name), name
        # functions and classes carry their defining module; TOLERANCES its class's
        assert value.__module__ == module.__name__, name


def test_each_name_is_in_its_defining_modules_all():
    for name, module_name in DEFINED_IN.items():
        assert name in importlib.import_module(f"histq.{module_name}").__all__, name


def test_sector_cap_is_the_one_public_cap():
    # the public constants of the modules whose names the package exports:
    # the tolerance record and the one cap, which bounds sectors and, as
    # rank-0 decomposition elements leave them, base families too
    constants = {name for module_name in EXPORTED
                 for name in importlib.import_module(f"histq.{module_name}").__all__
                 if name.isupper()}
    assert constants == {"TOLERANCES", "SECTOR_CAP"}


def test_dir_and_star_import_cover_all():
    assert set(histq.__all__) <= set(dir(histq))
    namespace = {}
    exec("from histq import *", namespace)
    assert set(histq.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        histq.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from histq import no_such_name", {})
