"""Finite-dimensional numerics for temporal (history) quantum theories."""

from .core import (
    TOLERANCES,
    SystemModel,
    TimeGrid,
    Tolerances,
    evolve,
    heisenberg,
    named_basis,
    projector_onto,
    tensor_product,
)
from .histories import (
    HomogeneousHistory,
    Proposition,
    PropositionSpace,
    chain_map,
    class_operator,
    embed,
    history,
    proposition,
    support_reduce,
    unit_proposition,
)
from .decoherence import (
    CapacityError,
    DecoherenceState,
    IlsOperator,
    d_basis_sum,
    d_form,
    d_trace,
    d_trace_matrix,
    hermitian_basis,
    ils_reconstruct,
)
from .propositions import WrightOperator, hs_inner, p_norm, probability, wright_operator
from .consistency import (
    BaseFamily,
    ConsistencyReport,
    Window,
    base_family,
    check_window,
    check_window_operators,
    is_maximally_refined,
    is_refinement,
    search_windows,
    window,
)
from .entropy import (
    EntropyReport,
    min_entropy,
    refinement_gap,
    sup_refinement_entropy,
    window_entropy,
    window_entropy_pnorm,
)
from .divergence import (
    GrowthVerdict,
    TruncationSeries,
    b1_series,
    b2_series,
    growth_fit,
)

__version__ = "0.1.0"
