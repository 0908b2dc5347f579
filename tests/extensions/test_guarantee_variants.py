"""Tests for the mistakes, values, and partial-results variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import SyntheticSource
from repro.core.reference import run_ifocus_reference
from repro.engines.memory import InMemoryEngine
from repro.extensions.mistakes import _run_ifocus_mistakes
from repro.extensions.values import _run_ifocus_values
from repro.session import avg, connect
from repro.viz.properties import pair_accuracy
from tests.conftest import make_materialized_population


class TestMistakes:
    def test_terminates_early_with_contentious_pair(self):
        # One contentious pair among 5 groups: the 3 easy groups resolve
        # early, giving a committed-pair fraction of 3*2/(5*4) = 0.3;
        # requesting that fraction skips the expensive pair entirely.
        pop = make_materialized_population(
            [20.0, 50.0, 50.2, 80.0, 95.0], sizes=30_000, seed=1
        )
        engine = InMemoryEngine(pop)
        relaxed = _run_ifocus_mistakes(engine, min_correct_fraction=0.3, delta=0.05, seed=2)
        full = run_ifocus_reference(engine, delta=0.05, seed=2)
        assert relaxed.total_samples < full.total_samples
        assert relaxed.params["early_terminated"]
        assert relaxed.params["resolved_pair_fraction"] >= 0.3

    def test_accuracy_on_resolved_fraction(self):
        pop = make_materialized_population(
            [20.0, 50.0, 50.2, 80.0, 95.0], sizes=30_000, seed=3
        )
        engine = InMemoryEngine(pop)
        res = _run_ifocus_mistakes(engine, min_correct_fraction=0.3, delta=0.05, seed=4)
        # The committed pairs are correct w.h.p.; in practice the flushed
        # estimates rarely add mistakes, so well over 30% come out right.
        assert pair_accuracy(res.estimates, pop.true_means()) >= 0.3

    def test_fraction_one_is_plain_ifocus(self, small_engine):
        a = _run_ifocus_mistakes(small_engine, min_correct_fraction=1.0, delta=0.05, seed=5)
        b = run_ifocus_reference(small_engine, delta=0.05, seed=5)
        assert a.total_samples == b.total_samples

    def test_invalid_fraction(self, small_engine):
        with pytest.raises(ValueError):
            _run_ifocus_mistakes(small_engine, min_correct_fraction=1.5)


class TestValues:
    def test_estimates_within_d(self):
        pop = make_materialized_population([20.0, 40.0, 60.0, 80.0], sizes=50_000, seed=6)
        engine = InMemoryEngine(pop)
        d = 2.0
        res = _run_ifocus_values(engine, d=d, delta=0.05, seed=7)
        true = pop.true_means()
        for g in res.groups:
            assert abs(g.estimate - true[g.index]) <= d
            if not g.exhausted:
                assert g.half_width < d / 2

    def test_costs_more_than_plain(self, small_engine):
        plain = run_ifocus_reference(small_engine, delta=0.05, seed=8)
        accurate = _run_ifocus_values(small_engine, d=1.0, delta=0.05, seed=8)
        assert accurate.total_samples > plain.total_samples

    def test_d_validation(self, small_engine):
        with pytest.raises(ValueError):
            _run_ifocus_values(small_engine, d=0.0)


def stream_groups(engine, seed):
    """``.stream()`` over the engine's population through the Session API."""
    session = connect(delta=0.05, engine="memory").attach(
        "t", SyntheticSource(lambda: engine.population)
    )
    return session.table("t").group_by("g").agg(avg("value")).stream(seed=seed)


class TestPartial:
    """Problem 7 (partial results) on the path users run: ``.stream()``."""

    def test_updates_arrive_in_finalization_order(self, close_engine):
        stream = stream_groups(close_engine, seed=9)
        updates = list(stream)
        names = close_engine.population.group_names
        emitted = [names.index(u.group.label) for u in updates]
        assert emitted == stream.result.first.raw.inactive_order
        assert len(emitted) == close_engine.k
        assert all(u.live for u in updates)

    def test_emitted_prefix_is_internally_ordered(self, close_engine):
        # At each emission, the already-emitted groups must be correctly
        # ordered among themselves (the Problem 7 guarantee).
        true = close_engine.population.true_means()
        names = close_engine.population.group_names
        emitted = []
        for update in stream_groups(close_engine, seed=10):
            emitted.append(update.group)
            ests = [g.estimate for g in emitted]
            trues = [true[names.index(g.label)] for g in emitted]
            order_est = np.argsort(ests)
            order_true = np.argsort(trues)
            assert np.array_equal(order_est, order_true)
        assert len(emitted) == close_engine.k

    def test_stream_yields_all_updates(self, small_engine):
        updates = list(stream_groups(small_engine, seed=11))
        assert len(updates) == small_engine.k
        assert updates[-1].done
        assert [u.emitted_so_far for u in updates] == list(range(1, small_engine.k + 1))

    def test_stream_order_is_deterministic_under_a_seed(self, small_engine):
        first = [u.group.label for u in stream_groups(small_engine, seed=12)]
        again = [u.group.label for u in stream_groups(small_engine, seed=12)]
        assert first == again
