"""Tests for the reference loop's hooks and the reactivation variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reference import LoopContext, default_policy, run_ifocus_reference
from repro.engines.memory import InMemoryEngine
from repro.viz.properties import check_ordering
from tests.conftest import make_materialized_population


class TestHooks:
    def test_on_finalize_called_once_per_group(self, small_engine):
        seen: list[int] = []
        run_ifocus_reference(
            small_engine, delta=0.05, seed=1, on_finalize=lambda gid, o: seen.append(gid)
        )
        assert sorted(seen) == list(range(small_engine.k))

    def test_on_finalize_order_matches_inactive_order(self, close_engine):
        seen: list[int] = []
        res = run_ifocus_reference(
            close_engine, delta=0.05, seed=2, on_finalize=lambda gid, o: seen.append(gid)
        )
        assert seen == res.inactive_order

    def test_min_half_width_forces_extra_sampling(self, small_engine):
        plain = run_ifocus_reference(small_engine, delta=0.05, seed=3)
        tight = run_ifocus_reference(small_engine, delta=0.05, seed=3, min_half_width=1.0)
        assert tight.total_samples > plain.total_samples
        for g in tight.groups:
            if not g.exhausted:
                assert g.half_width < 1.0

    def test_terminate_when_stops_early(self, close_engine):
        res = run_ifocus_reference(
            close_engine, delta=0.05, seed=4, terminate_when=lambda ctx: ctx.round_index >= 50
        )
        assert res.rounds <= 51

    def test_custom_policy_receives_context(self, small_engine):
        contexts: list[int] = []

        def spy_policy(ctx: LoopContext) -> np.ndarray:
            contexts.append(ctx.round_index)
            return default_policy(ctx)

        run_ifocus_reference(small_engine, delta=0.05, seed=5, policy=spy_policy)
        assert contexts and contexts == sorted(contexts)

    def test_algorithm_name_override(self, small_engine):
        res = run_ifocus_reference(small_engine, delta=0.05, seed=6, algorithm_name="custom")
        assert res.algorithm == "custom"


class TestLoopContext:
    def test_resolved_pair_fraction(self):
        ctx = LoopContext(
            estimates=np.zeros(4),
            half_widths=np.zeros(4),
            active=np.array([True, True, False, False]),
            counts=np.ones(4, dtype=np.int64),
            round_index=1,
            sizes=np.full(4, 10),
        )
        # 2 inactive of 4: 2*1 / (4*3) = 1/6.
        assert ctx.resolved_pair_fraction() == pytest.approx(1 / 6)

    def test_single_group_fraction_is_one(self):
        ctx = LoopContext(
            estimates=np.zeros(1),
            half_widths=np.zeros(1),
            active=np.array([True]),
            counts=np.ones(1, dtype=np.int64),
            round_index=1,
            sizes=np.array([5]),
        )
        assert ctx.resolved_pair_fraction() == 1.0


class TestReactivation:
    def test_reactivation_runs_and_orders(self, close_engine):
        res = run_ifocus_reference(close_engine, delta=0.05, seed=7, reactivation=True)
        assert check_ordering(res.estimates, close_engine.population.true_means())
        assert res.params["reactivation"]

    def test_reactivation_never_cheaper(self):
        # Option (b) can only add samples relative to option (a) on the same
        # draws (re-activated groups resume sampling).
        pop = make_materialized_population([30.0, 33.0, 70.0], sizes=20_000, spread=12.0, seed=8)
        engine = InMemoryEngine(pop)
        a = run_ifocus_reference(engine, delta=0.1, seed=9, reactivation=False)
        b = run_ifocus_reference(engine, delta=0.1, seed=9, reactivation=True)
        assert b.total_samples >= a.total_samples


class TestScale:
    def test_unit_scale_is_bit_identical_to_none(self, close_engine):
        plain = run_ifocus_reference(close_engine, delta=0.05, seed=4)
        ones = run_ifocus_reference(
            close_engine, delta=0.05, seed=4, scale=np.ones(close_engine.k)
        )
        np.testing.assert_array_equal(plain.estimates, ones.estimates)
        np.testing.assert_array_equal(plain.samples_per_group, ones.samples_per_group)
        assert plain.inactive_order == ones.inactive_order
        assert [g.half_width for g in plain.groups] == [g.half_width for g in ones.groups]

    def test_scale_multiplies_estimates_widths_and_exact_means(self):
        pop = make_materialized_population([20.0, 80.0], sizes=[5, 4_000], seed=3)
        engine = InMemoryEngine(pop)
        res = run_ifocus_reference(engine, delta=0.05, seed=5, scale=np.array([2.0, 3.0]))
        small, big = res.groups
        assert small.exhausted
        assert small.estimate == 2.0 * pop.groups[0].true_mean
        # Same seed, same draws: the unscaled loop's mean after as many draws.
        plain = run_ifocus_reference(engine, delta=0.05, seed=5, max_rounds=big.samples)
        assert plain.groups[1].samples == big.samples
        assert big.estimate == pytest.approx(3.0 * plain.groups[1].estimate)
