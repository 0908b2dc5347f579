"""SUM aggregation (Algorithms 4 and 5, §6.3.1).

Both regimes are plain IFOCUS on the one per-group policy loop,
:func:`repro.core.reference.run_ifocus_reference`, through its ``scale``
keyword:

* **Known group sizes** (``total(Y)`` in the Session API) - sum_i = mu_i * n_i,
  so each group's estimate and interval are scaled by its size (Algorithm 4
  line 7: eps_i = n_i * eps_m).  The loop's separation test, resolution stop
  and exhausted-group obstacle rule all run on the sum scale, so a fully-read
  group's exact sum blocks any group whose interval still covers it.
* **Unknown group sizes** (:func:`run_ifocus_sum_unknown`) - the algorithm
  simultaneously estimates each group's fractional size s_i and mean via the
  unbiased product estimator x*z of the *normalized sum* s_i * mu_i
  (Algorithm 5): x is a sample from the group, z an unbiased [0, 1] estimate
  of s_i.  NEEDLETAIL derives z from bitmap skip counts without I/O; we
  simulate the same unbiased draw as a group-membership indicator of a
  uniformly random tuple (E[z] = s_i), which preserves unbiasedness and the
  [0, c] range of x*z, hence the identical confidence-interval computation
  the paper highlights.  A small engine adapter hands the loop x*z draws.
"""

from __future__ import annotations

import numpy as np

from repro.core.reference import run_ifocus_reference
from repro.core.types import OrderingResult
from repro.engines.base import SamplingEngine
from repro.resilience.deadline import Deadline

__all__ = ["run_ifocus_sum_unknown"]


def _run_ifocus_sum(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    without_replacement: bool = True,
    seed: int | np.random.Generator | None = None,
    max_rounds: int | None = None,
    deadline: Deadline | None = None,
) -> OrderingResult:
    """IFOCUS-Sum with known group sizes (Algorithm 4).

    Returns estimates of the group *sums* sigma_i = n_i * mu_i, ordered
    correctly with probability >= 1 - delta.  ``resolution`` is interpreted
    on the sum scale.
    """
    result = run_ifocus_reference(
        engine,
        delta=delta,
        resolution=resolution,
        without_replacement=without_replacement,
        seed=seed,
        max_rounds=max_rounds,
        deadline=deadline,
        scale=engine.population.sizes(),
        algorithm_name="ifocus-sum",
    )
    result.params["known_sizes"] = True
    return result


class _ProductRun:
    """An engine run whose draws are Algorithm 5's products x*z.

    z is a group-membership indicator of a uniformly random tuple, drawn from
    a stream of its own, so E[x*z] = s_i * mu_i.  Only the x draws are
    charged: z comes from bitmap metadata, with no disk reads.
    """

    def __init__(self, run, seed) -> None:
        self._run = run
        self.charge = run.charge
        sizes = run.sizes().astype(np.float64)
        self._fractions = (sizes / sizes.sum()).tolist()
        seed_seq = np.random.SeedSequence(
            entropy=seed if isinstance(seed, int) else None, spawn_key=(0xC0DE,)
        )
        self._z_rng = np.random.default_rng(seed_seq)

    def __getattr__(self, name):
        return getattr(self._run, name)

    def draw(self, gid: int, count: int) -> np.ndarray:
        x = self._run.draw(gid, count)
        if count == 1:  # the loop's one-draw case: a scalar z, no array
            return x if self._z_rng.random() < self._fractions[gid] else x * 0.0
        return x * (self._z_rng.random(count) < self._fractions[gid])


class _ProductEngine:
    """Engine adapter whose runs draw x*z instead of x."""

    def __init__(self, engine: SamplingEngine) -> None:
        self._engine = engine

    def open_run(self, seed, without_replacement: bool) -> _ProductRun:
        return _ProductRun(self._engine.open_run(seed, without_replacement), seed)


def run_ifocus_sum_unknown(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    seed: int | np.random.Generator | None = None,
    max_rounds: int | None = None,
    normalized: bool = True,
    deadline: Deadline | None = None,
) -> OrderingResult:
    """IFOCUS-Sum with unknown group sizes (Algorithm 5).

    Estimates the *normalized sums* s_i * mu_i (``normalized=True``) or, when
    the total row count is known, the raw sums N * s_i * mu_i.  The
    size-estimate draws z are free (bitmap metadata, no disk reads), so only
    the value samples are charged, matching the paper's accounting.
    """
    result = run_ifocus_reference(
        _ProductEngine(engine),
        delta=delta,
        resolution=resolution,
        without_replacement=False,  # x*z needs i.i.d. draws
        seed=seed,
        max_rounds=max_rounds,
        deadline=deadline,
        scale=1.0 if normalized else float(engine.population.sizes().sum()),
        algorithm_name="ifocus-sum-unknown",
    )
    result.params.update(known_sizes=False, normalized=normalized)
    return result
