"""Percentiles, the sample-count rule, spreads and the misorder bound."""

import math
import statistics

import numpy as np
import pytest

from stats import (
    binomial_upper_tail,
    latency_summary,
    misorder_limit,
    percentile,
    required_samples,
    spread,
)


def test_required_samples_leaves_ten_beyond():
    assert required_samples(0.9) == 100
    assert required_samples(0.5) == 20
    assert required_samples(0.99) == 1000
    with pytest.raises(ValueError):
        required_samples(1.0)


@pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_percentile_matches_numpy_linear(q):
    values = np.random.default_rng(3).exponential(10.0, 137)
    assert percentile(values, q) == pytest.approx(np.percentile(values, q * 100))


def test_latency_summary_flags_short_samples():
    assert latency_summary(range(99))["short"] == ["p90"]
    assert latency_summary(range(100))["short"] == []
    assert latency_summary(range(19))["short"] == ["p50", "p90"]
    summary = latency_summary([])
    assert math.isnan(summary["p50"]) and summary["n"] == 0


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 11.0, 12.0, 8.0, 10.5, 9.5, 10.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([5.0] * 10) == 0.0


def _tail_by_enumeration(n, p, m):
    return sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(m, n + 1))


@pytest.mark.parametrize("n,p,m", [(10, 0.05, 1), (50, 0.05, 4), (200, 0.1, 30), (7, 0.5, 7)])
def test_binomial_tail_matches_enumeration(n, p, m):
    assert binomial_upper_tail(n, p, m) == pytest.approx(_tail_by_enumeration(n, p, m), rel=1e-9)


@pytest.mark.parametrize("n", [0, 1, 20, 100, 400])
def test_misorder_limit_is_the_alpha_quantile(n):
    delta, alpha = 0.05, 1e-3
    limit = misorder_limit(n, delta, alpha)
    assert 0 <= limit <= n
    # the limit itself is plausible, one more is not
    assert binomial_upper_tail(n, delta, limit) >= alpha
    assert limit == n or binomial_upper_tail(n, delta, limit + 1) < alpha
    assert limit >= math.floor(delta * n)


def test_misorder_limit_grows_with_delta_and_n():
    assert misorder_limit(100, 0.05) < misorder_limit(100, 0.2)
    assert misorder_limit(100, 0.05) < misorder_limit(1000, 0.05)
    assert misorder_limit(100, 0.0) == 0
