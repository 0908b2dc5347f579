"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.distributions import TruncatedNormal, TwoPoint
from repro.data.population import MaterializedGroup, Population, VirtualGroup
from repro.engines.memory import InMemoryEngine
from repro.needletail.table import Table


def make_materialized_population(
    means: list[float],
    sizes: list[int] | int = 2000,
    spread: float = 5.0,
    c: float = 100.0,
    seed: int = 0,
) -> Population:
    """A materialized population with groups roughly at the given means."""
    rng = np.random.default_rng(seed)
    if isinstance(sizes, int):
        sizes = [sizes] * len(means)
    groups = []
    for i, (mu, n) in enumerate(zip(means, sizes)):
        values = np.clip(rng.normal(mu, spread, n), 0.0, c)
        groups.append(MaterializedGroup(f"g{i}", values))
    return Population(groups=groups, c=c)


def make_virtual_population(
    means: list[float],
    sizes: list[int] | int = 10**6,
    spread: float = 5.0,
    c: float = 100.0,
) -> Population:
    """A virtual (distribution-backed) population with exact analytic means."""
    if isinstance(sizes, int):
        sizes = [sizes] * len(means)
    groups = [
        VirtualGroup(f"g{i}", TruncatedNormal(mu, spread, 0.0, c), n)
        for i, (mu, n) in enumerate(zip(means, sizes))
    ]
    return Population(groups=groups, c=c)


def make_twopoint_population(
    ps: list[float], sizes: list[int] | int = 10**6, c: float = 100.0
) -> Population:
    """Bernoulli-style virtual population (the paper's highest-variance case)."""
    if isinstance(sizes, int):
        sizes = [sizes] * len(ps)
    groups = [
        VirtualGroup(f"g{i}", TwoPoint(p, 0.0, c), n)
        for i, (p, n) in enumerate(zip(ps, sizes))
    ]
    return Population(groups=groups, c=c)


def exhaustion_table():
    """Two groups where the small one exhausts long before the big one.

    A: 3 rows (v = 10, y = 0.05), sum 30, mean 0.05.  B: 1000 rows, 40 ones
    and 960 zeros in v and y, sum 40, mean 0.04.  z is uniform noise.  A is
    fully read after 3 rounds and freezes at its exact value; B's early
    estimates sit far on the wrong side of it, so only the exhausted-group
    obstacle rule keeps B sampling until its interval clears A's value.
    """
    ones = np.concatenate([np.ones(40), np.zeros(960)])
    return Table.from_dict(
        "t",
        {
            "g": np.array(["A"] * 3 + ["B"] * 1000),
            "v": np.concatenate([np.full(3, 10.0), ones]),
            "y": np.concatenate([np.full(3, 0.05), ones]),
            "z": np.random.default_rng(0).uniform(0.0, 1.0, 1003),
        },
    )


@pytest.fixture
def small_engine() -> InMemoryEngine:
    """Four well-separated materialized groups - fast, deterministic runs."""
    pop = make_materialized_population([20.0, 40.0, 60.0, 80.0], sizes=3000, seed=7)
    return InMemoryEngine(pop)


@pytest.fixture
def close_engine() -> InMemoryEngine:
    """Five groups with one close pair (42 vs 45) - exercises focusing."""
    pop = make_materialized_population([10.0, 42.0, 45.0, 70.0, 90.0], sizes=5000, seed=11)
    return InMemoryEngine(pop)


@pytest.fixture
def virtual_engine() -> InMemoryEngine:
    """Virtual population: analytic means, effectively unlimited draws."""
    pop = make_virtual_population([15.0, 35.0, 55.0, 75.0], sizes=10**7)
    return InMemoryEngine(pop)
