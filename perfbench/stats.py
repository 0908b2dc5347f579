"""Order statistics, run-to-run spread, and the misorder bound.

Pure functions over lists of floats, shared by the workloads, the
steadiness report and the tests.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it (so p90 needs 100 samples, p50 needs 20).
TAIL_SAMPLES = 10


def required_samples(q: float) -> int:
    """Fewest samples for which percentile ``q`` (0 < q < 1) has
    :data:`TAIL_SAMPLES` samples beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    return math.ceil(round(TAIL_SAMPLES / (1.0 - q), 9))


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile ``q`` of ``values`` (numpy's default)."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def latency_summary(values) -> dict:
    """p50 and p90 of one op type's latencies, with the sample-count rule.

    ``short`` lists the percentiles whose sample is too small to have
    :data:`TAIL_SAMPLES` values beyond them; they are still computed, and
    the caller reports them as such.
    """
    values = list(values)
    out = {"n": len(values), "short": []}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        out[name] = percentile(values, q) if values else float("nan")
        if len(values) < required_samples(q):
            out["short"].append(name)
    return out


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def binomial_upper_tail(n: int, p: float, m: int) -> float:
    """P[X >= m] for X ~ Binomial(n, p)."""
    if m <= 0:
        return 1.0
    if m > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for k in range(m, n + 1):
        log_term = (
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_p + (n - k) * log_q
        )
        total += math.exp(log_term)
    return min(total, 1.0)


def misorder_limit(n: int, delta: float, alpha: float = 1e-3) -> int:
    """Most misordered answers out of ``n`` still consistent with a
    per-answer failure probability of at most ``delta``.

    A run exceeds the guarantee when its misordered count ``m`` satisfies
    P[Binomial(n, delta) >= m] < ``alpha``: the limit is ``delta * n`` plus
    the binomial slack a correct system shows once in ``1 / alpha`` runs.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    m = 0
    while m <= n and binomial_upper_tail(n, delta, m + 1) >= alpha:
        m += 1
    return m
