"""Tests for the SUM/COUNT variants (Algorithms 4/5, §6.3.1-6.3.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.memory import InMemoryEngine
from repro.extensions.counts import _run_count_known, run_count_unknown
from repro.extensions.sums import _run_ifocus_sum, run_ifocus_sum_unknown
from repro.viz.properties import check_ordering
from tests.conftest import make_materialized_population


def sums_population(seed: int = 0):
    """Groups whose SUM order differs from their AVG order (sizes dominate)."""
    return make_materialized_population(
        [80.0, 40.0, 20.0],
        sizes=[1_000, 4_000, 20_000],
        spread=5.0,
        seed=seed,
    )


class TestSumKnownSizes:
    def test_orders_sums_not_averages(self):
        pop = sums_population()
        engine = InMemoryEngine(pop)
        res = _run_ifocus_sum(engine, delta=0.05, seed=1)
        true_sums = pop.true_means() * pop.sizes()
        assert check_ordering(res.estimates, true_sums)
        # Sum order is the reverse of average order in this construction.
        assert np.argsort(res.estimates).tolist() != np.argsort(pop.true_means()).tolist()

    def test_estimates_near_true_sums(self):
        pop = sums_population(seed=2)
        res = _run_ifocus_sum(InMemoryEngine(pop), delta=0.05, seed=3)
        true_sums = pop.true_means() * pop.sizes()
        for est, true in zip(res.estimates, true_sums):
            assert est == pytest.approx(true, rel=0.25)

    def test_exhaustion_exact(self):
        pop = make_materialized_population([50.0, 50.1], sizes=80, spread=6.0, seed=4)
        res = _run_ifocus_sum(InMemoryEngine(pop), delta=0.05, seed=5)
        true_sums = pop.true_means() * pop.sizes()
        assert all(g.exhausted for g in res.groups)
        assert np.allclose(res.estimates, true_sums)

    def test_resolution_stop(self):
        pop = sums_population(seed=6)
        spread_sum = float((pop.true_means() * pop.sizes()).max())
        res = _run_ifocus_sum(
            InMemoryEngine(pop), delta=0.05, resolution=spread_sum, seed=7
        )
        plain = _run_ifocus_sum(InMemoryEngine(pop), delta=0.05, seed=7)
        assert res.total_samples <= plain.total_samples

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            _run_ifocus_sum(InMemoryEngine(sums_population()), delta=0.0)


class TestSumUnknownSizes:
    def test_normalized_sums_ordering(self):
        # Clearly separated normalized sums so the k^2 blowup stays small.
        pop = make_materialized_population(
            [90.0, 50.0, 10.0],
            sizes=[30_000, 8_000, 1_000],
            spread=5.0,
            seed=8,
        )
        engine = InMemoryEngine(pop)
        res = run_ifocus_sum_unknown(engine, delta=0.05, seed=9, max_rounds=400_000)
        sizes = pop.sizes().astype(float)
        true_norm = pop.true_means() * sizes / sizes.sum()
        assert check_ordering(res.estimates, true_norm)
        assert not res.params["truncated"]

    def test_unnormalized_scaling(self):
        pop = make_materialized_population(
            [90.0, 10.0], sizes=[20_000, 2_000], spread=5.0, seed=10
        )
        engine = InMemoryEngine(pop)
        norm = run_ifocus_sum_unknown(engine, delta=0.05, seed=11, normalized=True)
        raw = run_ifocus_sum_unknown(engine, delta=0.05, seed=11, normalized=False)
        total = float(pop.sizes().sum())
        assert np.allclose(raw.estimates, norm.estimates * total, rtol=1e-9)

    def test_costs_more_than_known_sizes(self):
        pop = make_materialized_population(
            [90.0, 50.0, 10.0], sizes=[30_000, 8_000, 1_000], spread=5.0, seed=12
        )
        engine = InMemoryEngine(pop)
        known = _run_ifocus_sum(engine, delta=0.05, seed=13)
        unknown = run_ifocus_sum_unknown(engine, delta=0.05, seed=13, max_rounds=400_000)
        # Estimating sizes simultaneously costs extra (the paper's k^2 note).
        assert unknown.total_samples > known.total_samples


class TestCounts:
    def test_known_is_exact_and_free(self):
        pop = sums_population()
        res = _run_count_known(InMemoryEngine(pop))
        assert np.array_equal(res.estimates, pop.sizes().astype(float))
        assert res.total_samples == 0

    def test_unknown_orders_counts(self):
        pop = make_materialized_population(
            [50.0, 50.0, 50.0],
            sizes=[40_000, 10_000, 2_000],
            spread=5.0,
            seed=14,
        )
        engine = InMemoryEngine(pop)
        res = run_count_unknown(engine, delta=0.05, seed=15)
        assert check_ordering(res.estimates, pop.sizes().astype(float))
        # The ordering guarantee implies each estimate sits within its own
        # finalization half-width of the true count (w.h.p.); value accuracy
        # beyond that is not promised (that is the Problem 6 extension).
        for g, true in zip(res.groups, pop.sizes()):
            assert abs(g.estimate - true) <= max(g.half_width, 1.0)
