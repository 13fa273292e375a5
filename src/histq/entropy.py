"""Information entropies of consistent windows.

For a sector state T and a consistent window W = {x_i} the entropy is

    I(T, W) = - sum_i p_i ln( p_i / <x_i, x_i> ),      p_i = <x_i, T x_i>,

in nats.  Each term subtracts the structural information carried by the
member's squared norm from the information of the probability, so the value
may be negative.  The p-norm family replaces <x, x> with ||x||_p^2; p = 2
recovers I(T, W) and p = 1 the original projector-dimension weighting.  The
family is monotone non-increasing under consistent refinement exactly for
1 <= p <= 2, which :func:`refinement_gap` quantifies for a single split.

Windows are scored from the verdicts they carry (``consistency.window``),
never checked again: p_i comes from the sector verdict, and the p-norm family
reads Re d(x, x) from the operator-picture verdict; ``ValueError`` when that
verdict is inconsistent.  The squared norms <x, x> are the window's own,
block sums of <base_a, base_b>.  Every member is a block sum of Kronecker
products of checked projector decompositions, hence a projector: x^dag x = x,
so ||x||_p^p = tr(x) / tr(1) = <x, x> and ||x||_p^2 = <x, x>^(2/p) exactly.

The supremum over a window's refinements is the largest of its own value
and those of the refinements ``consistency.refinements`` selects for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .core import TOLERANCES
from .consistency import Window

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "EntropyTerm",
    "EntropyReport",
    "window_entropy",
    "window_entropy_pnorm",
    "refinement_gap",
    "min_entropy",
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


def _report(p: float, pairs: Iterable[tuple[float, float]]) -> EntropyReport:
    terms = []
    for prob, normsq in pairs:
        if prob <= TOLERANCES.strict_positive:
            contribution = 0.0  # x ln x -> 0 limit
        else:
            contribution = -prob * math.log(prob / normsq)
        terms.append(EntropyTerm(prob, normsq, contribution))
    value = float(sum(t.contribution for t in terms))
    return EntropyReport(p=p, value=value, terms=tuple(terms))


def window_entropy(w: Window) -> EntropyReport:
    """Entropy of a sector-consistent window for its state."""
    if not w.kreport.consistent:
        raise ValueError("entropy undefined for inconsistent window")
    return _report(2.0, zip(w.kreport.probabilities, w.squared_norms))


def window_entropy_pnorm(w: Window, p: float) -> EntropyReport:
    """p-norm entropy of an operator-consistent window.

    p = 2 coincides with :func:`window_entropy`; p = 1 weighs each member by
    its squared normalized trace norm (rank over dimension for projectors).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not w.opreport.consistent:
        raise ValueError("entropy undefined for inconsistent window")
    pairs = ((diag, normsq ** (2.0 / p))
             for diag, normsq in zip(w.opreport.probabilities, w.squared_norms))
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


def min_entropy(scored: Mapping[Window, EntropyReport]) -> tuple[float, Window]:
    """Minimum window entropy over a scored family.

    ``scored`` maps each consistent window of a family, in family order, to
    its :func:`window_entropy` report.  The minimum is an upper bound on the
    theory's entropy, since no finite family exhausts all consistent sets.
    Ties break toward the first window.
    """
    if not scored:
        raise ValueError("no consistent window in family")
    best = min(scored, key=lambda w: scored[w].value)  # min keeps the first of equals
    return scored[best].value, best

