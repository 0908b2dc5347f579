"""The Session planner and the algorithm layer give bit-identical results.

Every Session query dispatches to one algorithm-layer implementation
(``run_ifocus``, ``_run_ifocus_sum``, ``_run_ifocus_topt``, ...).  With the
same engine construction and seed, calling that implementation directly must
reproduce the Session result exactly: same estimates, same samples per group,
same finalization order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ifocus import run_ifocus
from repro.core.reference import run_ifocus_reference
from repro.extensions.counts import _run_count_known
from repro.extensions.mistakes import _run_ifocus_mistakes
from repro.extensions.multi import _run_ifocus_multi_avg, composite_group_column
from repro.extensions.noindex import _run_noindex
from repro.extensions.sums import _run_ifocus_sum
from repro.extensions.topt import _run_ifocus_topt
from repro.extensions.trends import _run_ifocus_trends
from repro.extensions.values import _run_ifocus_values
from repro.needletail.engine import NeedletailEngine
from repro.needletail.table import Table
from repro.session import avg, connect, count, total


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(9)
    n = 9_000
    names = rng.choice(["a", "b", "c"], size=n)
    base = {"a": 15.0, "b": 45.0, "c": 80.0}
    y = np.clip(np.array([base[x] for x in names]) + rng.normal(0, 6, n), 0, 100)
    z = np.clip(rng.normal(50, 10, n), 0, 100)
    h = rng.choice(["p", "q"], size=n)
    return Table.from_dict("t", {"g": names, "h": h, "y": y, "z": z})


@pytest.fixture()
def session(table):
    return connect().register("t", table)


@pytest.fixture()
def engine(table) -> NeedletailEngine:
    # Identical to the engine the Session planner builds for AVG(y)/SUM(y).
    return NeedletailEngine(table, "g", "y")


def assert_same_ordering_result(direct, raw) -> None:
    np.testing.assert_array_equal(direct.estimates, raw.estimates)
    np.testing.assert_array_equal(direct.samples_per_group, raw.samples_per_group)
    assert direct.inactive_order == raw.inactive_order
    assert [g.name for g in direct.groups] == [g.name for g in raw.groups]


def session_avg(session):
    return session.table("t").group_by("g").agg(avg("y"))


class TestSessionMatchesAlgorithmLayer:
    def test_avg_matches_run_ifocus(self, engine, session):
        direct = run_ifocus(engine, delta=0.05, seed=3)
        res = session_avg(session).run(seed=3)
        assert_same_ordering_result(direct, res.first.raw)

    def test_sum_matches_the_sum_loop(self, engine, session):
        direct = _run_ifocus_sum(engine, delta=0.05, seed=3)
        res = session.table("t").group_by("g").agg(total("y")).run(seed=3)
        assert_same_ordering_result(direct, res.first.raw)

    def test_count_matches_the_known_count(self, engine, session):
        direct = _run_count_known(engine)
        res = session.table("t").group_by("g").agg(count("*")).run(seed=3)
        assert_same_ordering_result(direct, res.first.raw)

    def test_two_avgs_match_the_multi_avg_loop(self, table, session):
        direct = _run_ifocus_multi_avg(table, "g", "y", "z", delta=0.05, seed=3)
        res = session.table("t").group_by("g").agg(avg("y"), avg("z")).run(seed=3)
        assert_same_ordering_result(direct.y, res["AVG(y)"].raw)
        assert_same_ordering_result(direct.z, res["AVG(z)"].raw)

    def test_two_column_group_by_matches_run_ifocus_on_composite_key(
        self, table, session
    ):
        key = composite_group_column(table, ["g", "h"])
        augmented = Table.from_dict(
            "t", {"__group_key__": key, "y": table.column("y")}
        )
        direct = run_ifocus(
            NeedletailEngine(augmented, "__group_key__", "y"), delta=0.05, seed=3
        )
        res = session.table("t").group_by("g", "h").agg(avg("y")).run(seed=3)
        assert_same_ordering_result(direct, res.first.raw)

    def test_top_matches_the_topt_loop(self, engine, session):
        direct = _run_ifocus_topt(engine, 2, delta=0.05, seed=3)
        res = session_avg(session).top(2).run(seed=3)
        assert_same_ordering_result(direct.result, res.first.raw)
        assert direct.top_names == res.first.meta["top_labels"]

    def test_trends_matches_the_trends_loop(self, engine, session):
        direct = _run_ifocus_trends(engine, delta=0.05, seed=3)
        res = session_avg(session).trends().run(seed=3)
        assert_same_ordering_result(direct, res.first.raw)

    def test_values_matches_the_values_loop(self, engine, session):
        direct = _run_ifocus_values(engine, d=4.0, delta=0.05, seed=3)
        res = session_avg(session).values(within=4.0).run(seed=3)
        assert_same_ordering_result(direct, res.first.raw)

    def test_mistakes_matches_the_mistakes_loop(self, engine, session):
        direct = _run_ifocus_mistakes(
            engine, min_correct_fraction=0.9, delta=0.05, seed=3
        )
        res = session_avg(session).mistakes(0.9).run(seed=3)
        assert_same_ordering_result(direct, res.first.raw)

    def test_noindex_engine_matches_the_noindex_loop(self, engine, session):
        direct = _run_noindex(engine, delta=0.05, seed=3)
        res = session_avg(session).on_engine("noindex").run(seed=3)
        assert_same_ordering_result(direct, res.first.raw)


class TestStreamMatchesReferenceLoop:
    """``.stream()`` is the reference loop with an ``on_finalize`` hook."""

    def test_stream_order_matches_on_finalize_order(self, engine, session):
        finalized = []
        direct = run_ifocus_reference(
            engine,
            delta=0.05,
            seed=3,
            on_finalize=lambda gid, outcome: finalized.append(outcome),
        )
        stream = session_avg(session).stream(seed=3)
        updates = list(stream)
        assert [o.name for o in finalized] == [u.group.label for u in updates]
        assert_same_ordering_result(direct, stream.result.first.raw)

    def test_stream_updates_carry_the_finalized_outcomes(self, engine, session):
        finalized = []
        run_ifocus_reference(
            engine,
            delta=0.05,
            seed=3,
            on_finalize=lambda gid, outcome: finalized.append(outcome),
        )
        updates = list(session_avg(session).stream(seed=3))
        assert len(updates) == len(finalized) == engine.k
        for n, (outcome, update) in enumerate(zip(finalized, updates), start=1):
            assert outcome.name == update.group.label
            assert outcome.estimate == update.group.estimate
            assert outcome.samples == update.group.samples
            assert update.emitted_so_far == n


class TestSqlMatchesBuilder:
    def test_sql_with_having_matches_builder(self, session):
        sql = "SELECT g, AVG(y) FROM t GROUP BY g HAVING AVG(y) > 20"
        via_sql = session.sql(sql).run(seed=3)
        via_builder = session_avg(session).having((avg("y"), ">", 20)).run(seed=3)
        assert via_sql.labels == via_builder.labels
        assert via_sql.dropped_by_having == via_builder.dropped_by_having
        assert via_sql.dropped_by_having  # group "a" (mean ~15) is dropped
        assert via_sql.caveats == via_builder.caveats
        assert_same_ordering_result(via_builder.first.raw, via_sql.first.raw)

    def test_two_avg_sql_with_resolution_is_rejected(self, session):
        builder = session.sql("SELECT g, AVG(y), AVG(z) FROM t GROUP BY g")
        res = builder.run(seed=3)
        assert res["AVG(y)"].order() and res["AVG(z)"].order()
        with pytest.raises(ValueError, match="resolution"):
            builder.guarantee(resolution=0.5).run(seed=3)
