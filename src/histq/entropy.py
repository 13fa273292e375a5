"""Information entropies of consistent windows.

For a sector state T and a consistent window W = {x_i} the entropy is

    I(T, W) = - sum_i p_i ln( p_i / <x_i, x_i> ),      p_i = <x_i, T x_i>,

in nats.  Each term subtracts the structural information carried by the
member's squared norm from the information of the probability, so the value
may be negative.  The p-norm family replaces <x, x> with ||x||_p^2; p = 2
recovers I(T, W) and p = 1 the original projector-dimension weighting.  The
family is monotone non-increasing under consistent refinement exactly for
1 <= p <= 2, which :func:`refinement_gap` quantifies for a single split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .core import active_tolerances
from .consistency import Window, check_window, check_window_operators, is_refinement
from .decoherence import DecoherenceState, d_form
from .propositions import WrightOperator, hs_inner, p_norm

__all__ = [
    "EntropyTerm",
    "EntropyReport",
    "window_entropy",
    "window_entropy_pnorm",
    "refinement_gap",
    "min_entropy",
    "sup_refinement_entropy",
]


@dataclass(frozen=True)
class EntropyTerm:
    probability: float
    squared_norm: float
    contribution: float


@dataclass(frozen=True)
class EntropyReport:
    p: float
    value: float
    terms: tuple[EntropyTerm, ...]


def _report(p: float, pairs: Sequence[tuple[float, float]]) -> EntropyReport:
    tol = active_tolerances()
    terms = []
    for prob, normsq in pairs:
        if prob <= tol.strict_positive:
            contribution = 0.0  # x ln x -> 0 limit
        else:
            contribution = -prob * math.log(prob / normsq)
        terms.append(EntropyTerm(prob, normsq, contribution))
    value = float(sum(t.contribution for t in terms))
    return EntropyReport(p=p, value=value, terms=tuple(terms))


def _sector_entropy(t: WrightOperator, w: Window) -> EntropyReport | None:
    """Entropy of ``w`` after one sector-picture check; None when inconsistent."""
    if not check_window(w, t).consistent:
        return None
    pairs = [(p, hs_inner(x, x).real)
             for p, x in zip(w.probabilities, w.members)]
    return _report(2.0, pairs)


def window_entropy(t: WrightOperator, w: Window) -> EntropyReport:
    """Entropy of a sector-consistent window for the state ``t``."""
    report = _sector_entropy(t, w)
    if report is None:
        raise ValueError("entropy undefined for inconsistent window")
    return report


def window_entropy_pnorm(ds: DecoherenceState, w: Window, p: float) -> EntropyReport:
    """p-norm entropy of an operator-consistent projector window.

    p = 2 coincides with :func:`window_entropy`; p = 1 weighs each member by
    its squared normalized trace norm (rank over dimension for projectors).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not check_window_operators(ds, w).consistent:
        raise ValueError("entropy undefined for inconsistent window")
    pairs = []
    for x in w.members:
        b = x.as_history_operator()
        diag = d_form(ds, b, b).real
        pairs.append((diag, p_norm(x, p) ** 2))
    return _report(float(p), pairs)


def refinement_gap(a: ArrayLike, b: ArrayLike, q: ArrayLike) -> np.ndarray | float:
    """a ln(a/b^q) - (1+a) ln((1+a)/(1+b)^q); nonnegative for q >= 1.

    This is the entropy drop caused by splitting one window member whose
    probability and squared-norm ratios between the parts are a and b.  The
    a = 0 limit uses x ln x -> 0.  The arguments broadcast against each
    other; ``ValueError`` when any element is out of its domain.
    """
    a, b, q = (np.asarray(x, dtype=float) for x in (a, b, q))
    if np.any(b <= 0):
        raise ValueError("b must be positive")
    if np.any(a < 0):
        raise ValueError("a must be nonnegative")
    if np.any(q < 1):
        raise ValueError("q must be >= 1")
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) where a == 0
        first = np.where(a == 0, 0.0, a * (np.log(a) - q * np.log(b)))
    second = (1.0 + a) * (np.log(1.0 + a) - q * np.log(1.0 + b))
    return first - second


def min_entropy(t: WrightOperator, family: Sequence[Window]) -> tuple[float, Window]:
    """Minimum window entropy over the consistent members of a family.

    An upper bound on the theory's entropy, since no finite family exhausts
    all consistent sets.  Ties break toward the lowest family index.
    """
    best: tuple[float, int, Window] | None = None
    for idx, w in enumerate(family):
        report = _sector_entropy(t, w)
        if report is not None and (best is None or (report.value, idx) < best[:2]):
            best = (report.value, idx, w)
    if best is None:
        raise ValueError("no consistent window in family")
    return best[0], best[2]


def sup_refinement_entropy(t: WrightOperator, w: Window, family: Sequence[Window]) -> float:
    """Supremum of the entropy over consistent refinements of ``w`` in the family.

    ``w`` itself counts as a refinement; in finite dimension every value is
    finite, so the supremum is a maximum.
    """
    values = [window_entropy(t, w).value]
    for cand in family:
        if cand is not w and is_refinement(cand, w):
            report = _sector_entropy(t, cand)
            if report is not None:
                values.append(report.value)
    return max(values)
