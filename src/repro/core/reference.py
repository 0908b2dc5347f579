"""Reference (one-sample-at-a-time) IFOCUS loop with pluggable policies.

This is the literal transcription of Algorithm 1: a Python loop over rounds,
one draw per active group per round.  It exists for three reasons:

1. **Ground truth** - the vectorized executor in :mod:`repro.core.ifocus`
   must produce exactly the same estimates, removal rounds and sample counts;
   the test suite asserts this equivalence on randomized instances.
2. **Extensions** - the Section 6 variants (trends, top-t, mistakes, values,
   partial results) only change *when a group may leave the active set* or
   *when the loop stops*.  They plug into this loop via the ``policy``,
   ``terminate_when``, ``min_half_width`` and ``on_finalize`` hooks rather
   than re-implementing the algorithm.
3. **Alternative (b)** - Section 3.1 discusses letting inactive groups
   re-activate when another estimate drifts into them; that variant
   (``reactivation=True``) loses the optimality guarantee and exists here for
   the ablation benchmark.

Unlike the batched executor, this loop maintains *per-group* round counts and
half-widths, which is what reactivation and the extension policies need; in
the default configuration every active group has the same count, so the two
implementations coincide.

Its users: the live stream (``.stream()``, Problem 7), the four guarantee
variants (top-t, trends, values, mistakes), IFOCUS-Sum with known and with
unknown group sizes (Algorithms 4 and 5, through the ``scale`` keyword in
:mod:`repro.extensions.sums`), and the ablation experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._util import check_nonnegative, check_probability
from repro.core.confidence import EpsilonSchedule
from repro.core.intervals import covers_obstacle, separated_general
from repro.core.types import GroupOutcome, OrderingResult, RoundSnapshot, Trace
from repro.engines.base import SamplingEngine
from repro.resilience.deadline import Deadline

__all__ = ["LoopContext", "default_policy", "run_ifocus_reference"]


@dataclass
class LoopContext:
    """Snapshot of the loop state passed to policies and hooks.

    Attributes:
        estimates: current estimates for all k groups (frozen for inactive).
        half_widths: current interval half-widths (frozen for inactive,
            0.0 for exhausted groups).
        active: boolean mask of active groups.
        counts: per-group sample counts m_i.
        round_index: the global round number (max of the counts).
        sizes: group sizes n_i.
        inactive_order: indices finalized so far, in order.
    """

    estimates: np.ndarray
    half_widths: np.ndarray
    active: np.ndarray
    counts: np.ndarray
    round_index: int
    sizes: np.ndarray
    inactive_order: list[int] = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.estimates.shape[0]

    def resolved_pair_fraction(self) -> float:
        """Fraction of group pairs with both endpoints inactive.

        Pairs of inactive groups are exactly the pairs whose relative order
        the algorithm has committed to - the quantity the "allowing mistakes"
        variant (Problem 5) tracks.
        """
        k = self.k
        if k < 2:
            return 1.0
        inactive = int((~self.active).sum())
        return (inactive * (inactive - 1)) / (k * (k - 1))


PolicyFn = Callable[[LoopContext], np.ndarray]


def default_policy(ctx: LoopContext) -> np.ndarray:
    """Algorithm 1's rule: an active group may leave the active set iff its
    interval is disjoint from every *other active* group's interval."""
    out = np.zeros(ctx.k, dtype=bool)
    idx = np.flatnonzero(ctx.active)
    if idx.size == 0:
        return out
    sep = separated_general(ctx.estimates[idx], ctx.half_widths[idx])
    out[idx] = sep
    return out


def run_ifocus_reference(
    engine: SamplingEngine,
    *,
    delta: float = 0.05,
    resolution: float = 0.0,
    kappa: float = 1.0,
    heuristic_factor: float = 1.0,
    without_replacement: bool = True,
    seed: int | np.random.Generator | None = None,
    trace_every: int = 0,
    max_rounds: int | None = None,
    reactivation: bool = False,
    policy: PolicyFn | None = None,
    terminate_when: Callable[[LoopContext], bool] | None = None,
    min_half_width: float | None = None,
    on_finalize: Callable[[int, GroupOutcome], None] | None = None,
    algorithm_name: str | None = None,
    deadline: Deadline | None = None,
    scale: np.ndarray | float | None = None,
) -> OrderingResult:
    """Run the reference IFOCUS loop.

    See :func:`repro.core.ifocus.run_ifocus` for the shared parameters.
    Additional hooks:

    Args:
        reactivation: alternative (b) of Section 3.1 - inactive,
            non-exhausted groups whose frozen interval overlaps an active
            interval re-enter the active set.
        policy: replaces the "disjoint from other active intervals" rule;
            receives a :class:`LoopContext`, returns a boolean mask of active
            groups allowed to leave the active set this round.
        terminate_when: extra stopping predicate checked once per round after
            removals (e.g. the mistakes variant's resolved-pair fraction).
        min_half_width: groups may not leave the active set while their
            half-width exceeds this (the approximate-values variant uses d/2).
        on_finalize: callback invoked with (gid, outcome) the moment a group
            is finalized - this is the partial-results stream of Problem 7.
        algorithm_name: override the result's algorithm label.
        deadline: optional time budget / cancel token, polled once per
            round; on expiry remaining groups are finalized at their
            current estimates and ``params["deadline_exceeded"]`` is set.
        scale: per-group factor (scalar or length-k array) applied to every
            estimate, half-width and exhausted group's exact mean, so the
            separation test, the resolution stop and the exhausted-group
            obstacle rule run on the scaled aggregate.  IFOCUS-Sum passes
            the group sizes - Algorithm 4 line 7, eps_i = n_i * eps_m.
            ``None`` (AVG) leaves every value bit-identical to no scaling.
    """
    check_probability(delta, "delta")
    check_nonnegative(resolution, "resolution")
    if policy is None:
        policy = default_policy
    run = engine.open_run(seed, without_replacement=without_replacement)
    k = run.k
    sizes = run.sizes()
    scale = np.broadcast_to(np.asarray(1.0 if scale is None else scale, dtype=np.float64), (k,))
    schedule = EpsilonSchedule(k, delta, c=run.c, kappa=kappa, heuristic_factor=heuristic_factor)

    sums = np.zeros(k, dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    estimates = np.zeros(k, dtype=np.float64)
    half_widths = np.full(k, np.inf)
    active = np.ones(k, dtype=bool)
    exhausted = np.zeros(k, dtype=bool)
    finalized_round = np.zeros(k, dtype=np.int64)
    inactive_order: list[int] = []
    trace = Trace(every=trace_every) if trace_every > 0 else None
    names = run.group_names()

    def current_n_max() -> float | None:
        if not without_replacement:
            return None
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return None
        return float(sizes[idx].max())

    def make_ctx(round_index: int) -> LoopContext:
        return LoopContext(
            estimates=estimates,
            half_widths=half_widths,
            active=active,
            counts=counts,
            round_index=round_index,
            sizes=sizes,
            inactive_order=inactive_order,
        )

    def finalize(gid: int, width: float, round_m: int, is_exhausted: bool) -> None:
        active[gid] = False
        half_widths[gid] = width
        finalized_round[gid] = round_m
        exhausted[gid] = is_exhausted
        inactive_order.append(gid)
        if is_exhausted:
            estimates[gid] = scale[gid] * run.exact_mean(gid)
        if on_finalize is not None:
            on_finalize(
                gid,
                GroupOutcome(
                    index=gid,
                    name=names[gid],
                    estimate=float(estimates[gid]),
                    samples=int(counts[gid]),
                    half_width=float(width),
                    exhausted=is_exhausted,
                    finalized_round=round_m,
                ),
            )

    # Round 1: one sample per group.
    for gid in range(k):
        value = float(run.draw(gid, 1)[0])
        sums[gid] = value
        estimates[gid] = scale[gid] * value
        counts[gid] = 1
        run.charge(gid, 1)
    m = 1
    n_max = current_n_max()
    half_widths[:] = scale * float(schedule(1.0, n_max))
    if trace is not None:
        trace.append(
            RoundSnapshot(
                round_index=1,
                cumulative_samples=int(counts.sum()),
                active=tuple(range(k)),
                estimates=estimates.copy(),
                epsilon=float(half_widths[0]),
            )
        )

    truncated = False
    deadline_exceeded = False
    while active.any():
        if max_rounds is not None and m >= max_rounds:
            truncated = True
            for gid in np.flatnonzero(active):
                finalize(int(gid), float(half_widths[gid]), m, False)
            break
        if deadline is not None and deadline.check():
            deadline_exceeded = True
            for gid in np.flatnonzero(active):
                finalize(int(gid), float(half_widths[gid]), m, False)
            break

        # Exhaustion: a fully-read group is finalized at its exact mean.
        if without_replacement:
            for gid in np.flatnonzero(active & (sizes <= counts)):
                finalize(int(gid), 0.0, m, True)
            if not active.any():
                break

        m += 1
        n_max = current_n_max()
        for gid in np.flatnonzero(active):
            value = float(run.draw(int(gid), 1)[0])
            sums[gid] += value
            counts[gid] += 1
            estimates[gid] = scale[gid] * sums[gid] / counts[gid]
            half_widths[gid] = scale[gid] * float(schedule(float(counts[gid]), n_max))
            run.charge(int(gid), 1)

        if reactivation:
            idx_active = np.flatnonzero(active)
            if idx_active.size:
                for gid in np.flatnonzero(~active & ~exhausted):
                    lo = estimates[gid] - half_widths[gid]
                    hi = estimates[gid] + half_widths[gid]
                    a_lo = estimates[idx_active] - half_widths[idx_active]
                    a_hi = estimates[idx_active] + half_widths[idx_active]
                    if np.any((lo <= a_hi) & (a_lo <= hi)):
                        active[gid] = True
                        inactive_order.remove(int(gid))

        ctx = make_ctx(m)
        active_eps = half_widths[active]
        # Resolution relaxation (Problem 2): stop once eps < r/4.
        if resolution > 0.0 and active_eps.size and float(active_eps.max()) < resolution / 4.0:
            for gid in np.flatnonzero(active):
                finalize(int(gid), float(half_widths[gid]), m, False)
            _trace_round(trace, m, counts, active, estimates, half_widths)
            break

        may_leave = policy(ctx) & active
        if min_half_width is not None:
            may_leave &= half_widths < min_half_width
        # Exhausted groups are zero-width obstacles: a group may not leave
        # while its interval still covers a frozen exact mean (mirrors the
        # batched executor; keeps ordering sound vs fully-read groups).
        leaving = np.flatnonzero(may_leave)
        if leaving.size:
            blocked = covers_obstacle(
                estimates[leaving], half_widths[leaving], estimates[exhausted]
            )
            leaving = leaving[~blocked]
        for gid in leaving:
            finalize(int(gid), float(half_widths[gid]), m, False)

        _trace_round(trace, m, counts, active, estimates, half_widths)

        if terminate_when is not None and terminate_when(make_ctx(m)):
            for gid in np.flatnonzero(active):
                finalize(int(gid), float(half_widths[gid]), m, False)
            break

    groups = [
        GroupOutcome(
            index=i,
            name=names[i],
            estimate=float(estimates[i]),
            samples=int(counts[i]),
            half_width=float(half_widths[i]) if not exhausted[i] else 0.0,
            exhausted=bool(exhausted[i]),
            finalized_round=int(finalized_round[i]),
        )
        for i in range(k)
    ]
    return OrderingResult(
        algorithm=algorithm_name or ("ifocusr-reference" if resolution > 0 else "ifocus-reference"),
        estimates=estimates.copy(),
        samples_per_group=counts.copy(),
        rounds=m,
        groups=groups,
        inactive_order=inactive_order,
        trace=trace,
        params={
            "delta": delta,
            "resolution": resolution,
            "kappa": kappa,
            "heuristic_factor": heuristic_factor,
            "without_replacement": without_replacement,
            "c": run.c,
            "truncated": truncated,
            "deadline_exceeded": deadline_exceeded,
            "reactivation": reactivation,
        },
        stats=run.stats,
    )


def _trace_round(
    trace: Trace | None,
    m: int,
    counts: np.ndarray,
    active: np.ndarray,
    estimates: np.ndarray,
    half_widths: np.ndarray,
) -> None:
    if trace is None or m % trace.every != 0:
        return
    idx = np.flatnonzero(active)
    eps = float(half_widths[idx].max()) if idx.size else 0.0
    trace.append(
        RoundSnapshot(
            round_index=m,
            cumulative_samples=int(counts.sum()),
            active=tuple(int(g) for g in idx),
            estimates=estimates.copy(),
            epsilon=eps,
        )
    )
