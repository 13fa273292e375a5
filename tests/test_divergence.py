import math

import numpy as np
import pytest
from scipy.special import digamma

from histq.divergence import (
    TruncationSeries,
    b1_direct_value,
    b1_series,
    b2_grid,
    b2_series,
    geometric_weights,
    growth_fit,
)


def brute_b2(n):
    """Independent oracle: the literal double sum."""
    total = 0.0
    for k1 in range(1, n + 1):
        w = 0.5 ** k1
        for k4 in range(1, n + 1):
            total += w / (k1 + k4)
    return total


class TestB1Series:
    def test_two_term_closed_form(self):
        series = b1_series([2])
        assert dict(series.points)[2] == pytest.approx(0.375, abs=1e-15)

    def test_increments_approach_half_leading_weight(self):
        ns = list(range(2, 40))
        values = dict(b1_series(ns).points)
        for n in range(30, 40):
            assert values[n] - values[n - 1] == pytest.approx(0.25, abs=1e-7)

    def test_pair_vectors_orthonormal(self):
        n = 6
        vecs = []
        for i in range(2, n + 1):
            phi = np.zeros(n * n)
            phi[(i - 1) * n] = 1 / math.sqrt(2)
            phi[i - 1] = 1 / math.sqrt(2)
            vecs.append(phi)
        gram = np.array([[a @ b for b in vecs] for a in vecs])
        assert np.max(np.abs(gram - np.eye(n - 1))) <= 1e-12

    def test_reduced_formula_matches_direct_evaluation(self):
        for n in (2, 3, 4, 5, 6):
            reduced = dict(b1_series([n]).points)[n]
            assert abs(reduced - b1_direct_value(n)) <= 1e-10

    def test_nonnegative_and_nondecreasing(self):
        values = [v for _, v in b1_series(range(2, 50)).points]
        assert all(v >= 0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestB2Series:
    def test_single_term(self):
        assert dict(b2_series([1]).points)[1] == pytest.approx(0.25, abs=1e-15)

    def test_matches_brute_double_sum(self):
        ns = [1, 2, 5, 10, 37, 100]
        values = dict(b2_series(ns).points)
        for n in ns:
            assert values[n] == pytest.approx(brute_b2(n), abs=1e-12)

    def test_digamma_oracle(self):
        # sum_k4 1/(k1+k4) = digamma(N+k1+1) - digamma(k1+1)
        n = 500
        w = geometric_weights(n)
        k = np.arange(1, n + 1)
        oracle = float(np.sum(w * (digamma(n + k + 1) - digamma(k + 1))))
        assert dict(b2_series([n]).points)[n] == pytest.approx(oracle, abs=1e-10)

    def test_doubling_differences_near_ln2(self):
        ns = [2 ** k for k in range(10, 15)]
        values = dict(b2_series(ns).points)
        for k in range(10, 14):
            diff = values[2 ** (k + 1)] - values[2 ** k]
            assert abs(diff - math.log(2)) <= 0.05

    def test_strictly_increasing(self):
        values = [v for _, v in b2_series(range(1, 60)).points]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestGrowthFit:
    def test_constant_series_is_bounded(self):
        pts = tuple((n, 5.0) for n in (10, 30, 100, 300, 1000, 3000))
        verdict = growth_fit(TruncationSeries("b2", pts))
        assert verdict.classification == "bounded"
        assert verdict.slope == 0.0

    def test_b1_is_linear_with_quarter_slope(self):
        ns = sorted(set(int(round(x)) for x in np.logspace(1, 4, 12)))
        verdict = growth_fit(b1_series(ns))
        assert verdict.classification == "linear"
        assert abs(verdict.slope - 0.25) <= 0.0025

    def test_b2_is_logarithmic_with_unit_slope(self):
        verdict = growth_fit(b2_series([2 ** k for k in range(4, 15)]))
        assert verdict.classification == "logarithmic"
        assert abs(verdict.slope - 1.0) <= 0.05

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="too few points"):
            growth_fit(b1_series([2, 3, 4, 5]))
        with pytest.raises(ValueError, match="too few points"):
            growth_fit(b1_series([10, 20, 40, 80, 160]))  # under two decades


class TestWeights:
    def test_geometric_rule(self):
        w = geometric_weights(5)
        assert np.allclose(w, [0.5, 0.25, 0.125, 0.0625, 0.03125])

    def test_exponent_build_equals_powers_bit_for_bit(self):
        # up to the largest default truncation, subnormal and zero tail included
        n = b2_grid()[-1]
        assert np.array_equal(geometric_weights(n), 0.5 ** np.arange(1, n + 1))
