"""Truncated reproductions of the two singular-history constructions.

Both series evaluate the decoherence functional on a family that has no
finite value in the untruncated infinite-dimensional theory; at truncation N
all basis sums are restricted to indices <= N (weights are not renormalized,
the defect 2^-N is far below fitting tolerance).

Both use the geometric spectral weights w_k = 2^-k.

* Series ``b1``: the projector P_N = sum_{i=2..N} |phi_i><phi_i| with
  phi_i = (|psi_i psi_1> + |psi_1 psi_i>)/sqrt(2), evaluated against the
  identity.  The value is ((N-1) w_1 + sum_{i=2..N} w_i)/2, growing linearly
  with slope w_1/2.
* Series ``b2``: the two-time basis sum for the compact operator
  h = sum_{k1,k4} (k1+k4)^{-1} |e_k4 psi_k1><psi_k1 e_k4| against the unit,
  equal to sum_{k1,k4<=N} w_k1/(k1+k4), growing like ln N.

:func:`growth_fit` classifies a truncation series as bounded, logarithmic,
or linear from least-squares fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

__all__ = [
    "TruncationSeries",
    "GrowthVerdict",
    "geometric_weights",
    "b1_grid",
    "b2_grid",
    "b1_series",
    "b1_direct_value",
    "b2_series",
    "growth_fit",
]

FIT_RESIDUAL_THRESHOLD = 0.05


@dataclass(frozen=True)
class TruncationSeries:
    label: str  # "b1" | "b2"
    points: tuple[tuple[int, float], ...]
    omega_rule: ClassVar[str] = "geometric"  # the spectral weights of every series

    def __post_init__(self):
        ns = [n for n, _ in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("truncation points must be strictly increasing")
        if not all(math.isfinite(v) for _, v in self.points):
            raise ValueError("series values must be finite")


@dataclass(frozen=True)
class GrowthVerdict:
    classification: str  # "bounded" | "logarithmic" | "linear"
    slope: float
    residual: float


def geometric_weights(n: int) -> np.ndarray:
    """Spectral weights w_k = 2^-k for k = 1..n (summable, tail 2^-n), each
    set exactly by its exponent."""
    return np.ldexp(1.0, -np.arange(1, n + 1))


def b1_grid(top: int = 10_000) -> list[int]:
    """Default b1 truncations: 12 log-spaced N from 10 to ``top``, rounded."""
    return sorted(set(int(round(x)) for x in np.logspace(1, math.log10(top), 12)))


def b2_grid(top: int = 2 ** 14) -> list[int]:
    """Default b2 truncations: the powers of two from 2^4 up to ``top``."""
    return [2 ** k for k in range(4, int(math.floor(math.log2(top))) + 1)]


def b1_series(n_values: Sequence[int]) -> TruncationSeries:
    """Closed-form values of the symmetrized-pair projector sum at each truncation."""
    n_values = sorted(int(n) for n in n_values)
    if n_values and n_values[0] < 2:
        raise ValueError("b1 truncations start at N = 2")
    weights = geometric_weights(n_values[-1] if n_values else 2)
    points = []
    for n in n_values:
        w = weights[:n]
        value = 0.5 * ((n - 1) * w[0] + float(np.sum(w[1:])))
        points.append((n, float(value)))
    return TruncationSeries(label="b1", points=tuple(points))


def b1_direct_value(n: int) -> float:
    """Four-index basis-sum evaluation of the b1 value on the truncated space.

    Builds P_N explicitly from the symmetrized pair vectors and sums the
    two-time expansion over all n^4 index terms by one ``einsum``; small n
    only, used to corroborate the closed form of :func:`b1_series`.
    """
    if n < 2:
        raise ValueError("b1 truncations start at N = 2")
    weights = geometric_weights(n)
    p = np.zeros((n * n, n * n), dtype=complex)
    for i in range(2, n + 1):
        phi = np.zeros(n * n, dtype=complex)
        phi[(i - 1) * n + 0] = 1.0 / math.sqrt(2.0)
        phi[0 * n + (i - 1)] = 1.0 / math.sqrt(2.0)
        p += np.outer(phi, phi.conj())
    q = np.eye(n * n, dtype=complex)
    # term (j1, j2, j3, j4) = w[j1] P[(j4, j3), (j1, j4)] Q[(j1, j2), (j2, j3)]
    total = np.einsum("a,dcad,abbc->", weights, p.reshape((n,) * 4), q.reshape((n,) * 4))
    return float(total.real)


def b2_series(n_values: Sequence[int]) -> TruncationSeries:
    """S(N) = sum_{k1,k4 <= N} w_k1 / (k1 + k4) via harmonic partial sums."""
    n_values = sorted(int(n) for n in n_values)
    if n_values and n_values[0] < 1:
        raise ValueError("b2 truncations start at N = 1")
    n_max = n_values[-1] if n_values else 1
    weights = geometric_weights(n_max)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, 2 * n_max + 1))])
    points = []
    for n in n_values:
        k = np.arange(1, n + 1)
        value = float(np.sum(weights[:n] * (harmonic[n + k] - harmonic[k])))
        points.append((n, value))
    return TruncationSeries(label="b2", points=tuple(points))


def growth_fit(series: TruncationSeries) -> GrowthVerdict:
    """Classify a truncation series as bounded, logarithmic, or linear.

    Needs at least 5 points spanning two decades.  A series is bounded when
    its spread is small relative to its mean; otherwise the log and linear
    models compete on normalized RMS residual.
    """
    ns = np.array([n for n, _ in series.points], dtype=float)
    vs = np.array([v for _, v in series.points], dtype=float)
    if len(ns) < 5 or ns.max() < 100 * ns.min():
        raise ValueError("too few points: need >= 5 spanning >= 2 decades")

    mean = float(vs.mean())
    spread = float(np.sqrt(np.mean((vs - mean) ** 2)))
    flat_residual = spread / max(abs(mean), np.finfo(float).tiny)
    if flat_residual <= FIT_RESIDUAL_THRESHOLD:
        return GrowthVerdict(classification="bounded", slope=0.0,
                             residual=flat_residual)

    def fitted(x: np.ndarray) -> tuple[float, float]:
        design = np.column_stack([np.ones_like(x), x])
        coef, *_ = np.linalg.lstsq(design, vs, rcond=None)
        rms = float(np.sqrt(np.mean((vs - design @ coef) ** 2)))
        return float(coef[1]), rms / spread

    slope_log, res_log = fitted(np.log(ns))
    slope_lin, res_lin = fitted(ns)
    if res_log <= res_lin:
        return GrowthVerdict(classification="logarithmic", slope=slope_log,
                             residual=res_log)
    return GrowthVerdict(classification="linear", slope=slope_lin, residual=res_lin)
