"""Ground truth and the correctness checks applied to every answer.

Truth is computed here, from the generated columns (exact per-group means)
or from the generating distributions (analytic means of virtual groups),
never from the program's own output.  Each check returns an error string
(the op failed) or None; ``misordered`` reports whether an answer that is
otherwise valid breaks the visual property its guarantee promises, which
may legitimately happen with probability up to delta.
"""

from __future__ import annotations

import math

import numpy as np


def exact_means(groups, values) -> dict[str, float]:
    """Exact per-group means of one value column."""
    groups = np.asarray(groups)
    values = np.asarray(values, dtype=np.float64)
    keys, inverse = np.unique(groups, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(keys))
    counts = np.bincount(inverse, minlength=len(keys))
    return {str(k): float(s / n) for k, s, n in zip(keys, sums, counts)}


def check_shape(estimates: dict[str, float], truth: dict[str, float]) -> str | None:
    """The answer has exactly the true group set and finite estimates."""
    if set(estimates) != set(truth):
        missing = sorted(set(truth) - set(estimates))
        extra = sorted(set(estimates) - set(truth))
        return f"group set differs (missing {missing}, extra {extra})"
    bad = [label for label, v in estimates.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite estimates for {bad}"
    return None


def _pairs_wrong(labels, est, truth) -> tuple[int, int]:
    """(pairs whose true order the estimates do not reproduce, pairs)."""
    e = np.array([est[g] for g in labels])
    t = np.array([truth[g] for g in labels])
    dt = t[:, None] - t[None, :]
    de = e[:, None] - e[None, :]
    matters = np.triu(dt != 0, k=1)
    wrong = matters & (np.sign(de) != np.sign(dt))
    return int(wrong.sum()), int(matters.sum())


def misordered(mode: dict, estimates: dict[str, float], truth: dict[str, float],
               labels: list[str]) -> bool:
    """Whether the answer breaks the property of its guarantee ``mode``.

    ``mode["kind"]`` is ``ordering`` (every pair), ``top`` (the ``t`` largest,
    in order), ``trends`` (neighbours along the answer's x axis, ``labels``),
    ``values`` (every estimate within ``within`` of its mean) or
    ``mistakes`` (at least ``fraction`` of pairs ordered right).
    """
    kind = mode["kind"]
    if kind == "ordering":
        return _pairs_wrong(labels, estimates, truth)[0] > 0
    if kind == "top":
        t = mode["t"]
        by_est = sorted(labels, key=lambda g: -estimates[g])[:t]
        by_true = sorted(labels, key=lambda g: -truth[g])[:t]
        return by_est != by_true
    if kind == "trends":
        for a, b in zip(labels, labels[1:]):
            dt = truth[b] - truth[a]
            if dt != 0 and np.sign(estimates[b] - estimates[a]) != np.sign(dt):
                return True
        return False
    if kind == "values":
        return any(abs(estimates[g] - truth[g]) > mode["within"] for g in labels)
    if kind == "mistakes":
        wrong, pairs = _pairs_wrong(labels, estimates, truth)
        return pairs > 0 and 1.0 - wrong / pairs < mode["fraction"]
    raise ValueError(f"unknown guarantee mode {kind!r}")


def same_run(a_samples, a_estimates, b_samples, b_estimates) -> str | None:
    """A stream's final answer against ``.run()`` with the same seed: equal
    per-group sample counts and estimates equal to fp tolerance (the two
    go through different loops that sum in different orders)."""
    if not np.array_equal(np.asarray(a_samples), np.asarray(b_samples)):
        return "stream and run drew different per-group sample counts"
    if not np.allclose(a_estimates, b_estimates, rtol=1e-12, atol=1e-9):
        return "stream and run estimates differ"
    return None
