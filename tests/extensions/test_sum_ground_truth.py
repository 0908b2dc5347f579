"""IFOCUS-Sum against exact truth (Algorithms 4 and 5).

Two kinds of check:

* **Exhaustion instance** - a 3-row group (sum 30) next to a 1000-row group
  (sum 40).  The small group is fully read after 3 rounds; the big group may
  only finalize once its interval clears the small group's exact sum.  Over
  100 seeds, the misorder count against the exact sums must stay within the
  binomial limit for delta, on every path a SUM can take.
* **Pinned sweep** - seeded instances where no group exhausts.  Running SUM
  on the shared policy loop left these outputs bit-identical to the
  hand-written SUM loops it replaced; the literals below are those outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.confidence import EpsilonSchedule
from repro.engines.memory import InMemoryEngine
from repro.extensions.sums import _run_ifocus_sum, run_ifocus_sum_unknown
from repro.needletail.engine import NeedletailEngine
from repro.session import connect
from perfbench.stats import misorder_limit
from tests.conftest import exhaustion_table, make_materialized_population

DELTA = 0.05
TRIALS = 100
EXACT_SUMS = {"A": 30.0, "B": 40.0}


def misorders(results) -> int:
    """Runs whose (A, B) estimates are ordered unlike the exact sums."""
    return sum(bool(est[0] >= est[1]) for est in results)


@pytest.fixture(scope="module")
def table():
    return exhaustion_table()


class TestExhaustionInstance:
    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["needletail", "memory"])
    def test_sql_sum_within_binomial_limit(self, table, engine):
        session = connect(engine=engine, delta=DELTA).register("t", table)
        query = session.sql("SELECT g, SUM(v) FROM t GROUP BY g")
        results = []
        for seed in range(TRIALS):
            agg = query.run(seed=seed).first
            assert agg.labels == ["A", "B"]
            results.append(agg.raw.estimates)
        assert misorders(results) <= misorder_limit(TRIALS, DELTA)

    @pytest.mark.slow
    def test_algorithm_layer_within_binomial_limit(self, table):
        engine = NeedletailEngine(table, "g", "v")
        results = [
            _run_ifocus_sum(engine, delta=DELTA, seed=seed).estimates for seed in range(TRIALS)
        ]
        assert misorders(results) <= misorder_limit(TRIALS, DELTA)

    def test_small_group_is_an_obstacle(self, table):
        res = _run_ifocus_sum(NeedletailEngine(table, "g", "v"), delta=DELTA, seed=0)
        small, big = res.groups
        assert small.exhausted and small.estimate == EXACT_SUMS["A"]
        assert res.inactive_order[0] == 0
        # The big group left only once its interval cleared the exact sum 30.
        assert big.exhausted or abs(big.estimate - EXACT_SUMS["A"]) > big.half_width

    def test_estimate_and_half_width_are_scaled_by_group_size(self, table):
        engine = NeedletailEngine(table, "g", "v")
        res = _run_ifocus_sum(engine, delta=DELTA, seed=1, max_rounds=50)
        assert res.params["truncated"]
        big = res.groups[1]
        assert big.samples == 50
        ones = round(big.estimate * 50 / 1000)
        assert big.estimate == pytest.approx(1000.0 * ones / 50)
        # Algorithm 4 line 7: eps_i = n_i * eps_m.
        eps_m = float(EpsilonSchedule(2, DELTA, c=engine.c)(50.0, 1000.0))
        assert big.half_width == 1000.0 * eps_m


#: (means, sizes, spread) per instance; population seed = index, run seed =
#: 10 + index.  No group exhausts on any of them.
SWEEP = [
    ([20.0, 50.0, 80.0], [3_000, 5_000, 2_000], 8.0),
    ([10.0, 30.0], [20_000, 4_000], 5.0),
    ([60.0, 40.0, 25.0, 90.0], [2_000, 4_000, 8_000, 1_000], 10.0),
    ([50.0, 55.0, 30.0], [6_000, 6_000, 9_000], 6.0),
    ([70.0, 20.0], [1_500, 9_000], 12.0),
]

#: (index, samples_per_group, inactive_order, rounds, estimates)
KNOWN_SIZES = [
    (0, [93, 252, 252], [0, 1, 2], 252,
     [56637.78081523162, 249857.73347058825, 159884.21178180724]),
    (1, [3338, 3338], [0, 1], 3338, [200956.16691162737, 120212.20552442713]),
    (2, [839, 3012, 3012, 444], [3, 0, 1, 2], 3012,
     [119545.06357940978, 161987.33618847583, 200127.8847004435, 89580.5984465772]),
    (3, [5153, 4141, 5153], [1, 0, 2], 5153,
     [300263.7669574945, 330167.0708118865, 270360.3065780491]),
    (4, [744, 744], [0, 1], 744, [106021.13214365668, 182919.87624060936]),
]

#: Same layout; normalized sums on odd indices, raw sums on even ones, and
#: at most 2000 rounds.
UNKNOWN_SIZES = [
    (0, [1569, 1999, 1999], [0, 1, 2], 1999,
     [55312.13612608475, 254806.65023148945, 158101.35491123647]),
    (1, [2000, 2000], [0, 1], 2000, [8.195974706927675, 5.006850982442358]),
    (2, [2000, 2000, 2000, 2000], [0, 1, 2, 3], 2000,
     [112750.7731769387, 154371.7914866484, 205970.88122455357, 90804.96425583579]),
    (3, [2000, 2000, 2000], [0, 1, 2], 2000,
     [14.642366251569914, 15.245590830184153, 12.611079175506895]),
    (4, [2000, 2000], [0, 1], 2000, [108797.59850011626, 190481.6395282139]),
]


def sweep_engine(index: int) -> InMemoryEngine:
    means, sizes, spread = SWEEP[index]
    return InMemoryEngine(
        make_materialized_population(means, sizes=sizes, spread=spread, seed=index)
    )


def assert_pinned(res, samples, order, rounds, estimates) -> None:
    assert res.samples_per_group.tolist() == samples
    assert res.inactive_order == order
    assert res.rounds == rounds
    assert res.estimates.tolist() == estimates
    assert not any(g.exhausted for g in res.groups)


class TestPinnedSweep:
    @pytest.mark.parametrize("index, samples, order, rounds, estimates", KNOWN_SIZES)
    def test_known_sizes(self, index, samples, order, rounds, estimates):
        res = _run_ifocus_sum(sweep_engine(index), delta=DELTA, seed=10 + index)
        assert_pinned(res, samples, order, rounds, estimates)
        assert res.algorithm == "ifocus-sum"

    @pytest.mark.parametrize("index, samples, order, rounds, estimates", UNKNOWN_SIZES)
    def test_unknown_sizes(self, index, samples, order, rounds, estimates):
        res = run_ifocus_sum_unknown(
            sweep_engine(index),
            delta=DELTA,
            seed=10 + index,
            normalized=bool(index % 2),
            max_rounds=2000,
        )
        assert_pinned(res, samples, order, rounds, estimates)
        assert res.algorithm == "ifocus-sum-unknown"
        assert res.params["normalized"] is bool(index % 2)


def test_exact_sums_are_what_the_table_holds(table):
    g = np.asarray(table.column("g"))
    v = np.asarray(table.column("v"), dtype=np.float64)
    assert {key: float(v[g == key].sum()) for key in ("A", "B")} == EXACT_SUMS
