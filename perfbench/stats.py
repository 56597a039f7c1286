"""Order statistics and the parent-vs-change verdict rule.

Everything here works on lists of floats (with scipy's incomplete beta
function for :func:`harrell_davis`) so the helpers can be unit-tested
without the library under test.
"""

from __future__ import annotations

import math
import statistics

from scipy.special import betainc

#: Percentiles :func:`tail_percentile` chooses from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported as a tail.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0..100).

    A weighted mean of every order statistic, the weights being the mass a
    Beta(q(n+1), (1-q)(n+1)) distribution puts on each rank's interval.
    When the sample mixes ops of very different cost, the plain sample
    median is the one or two values at the gap between two modes; this
    estimate draws on the ranks around it as well, so it moves less from
    run to run.
    """
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    a = q / 100.0 * (n + 1)
    b = (1.0 - q / 100.0) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie strictly above the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(values, min_beyond: int = MIN_BEYOND):
    """``(q, value)`` for the highest candidate percentile with at least
    ``min_beyond`` samples beyond it, or ``None`` when even the median has
    fewer."""
    n = len(values)
    for q in TAIL_CANDIDATES:
        if n and samples_beyond(n, q) >= min_beyond:
            return q, percentile(values, q)
    return None


def iqr(values) -> float:
    """Distance between the first and third quartile (``statistics`` method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    return iqr(values) / statistics.median(values)


def verdict(parent, change, better: str, bound: float) -> str:
    """Classify one metric of a change against its parent.

    ``parent`` and ``change`` are run values paired by index.  The change
    *improved* when it wins at least nine tenths of the pairs (ties count
    for neither side) and the medians differ by more than the parent's
    interquartile range.  Otherwise it *regressed* when its median is worse
    than the parent's by more than ``bound`` (a share of the parent's
    median), and is *unresolved* when the parent's own spread is wider than
    the bound and not every change run beats every parent run.  Anything
    else is *unchanged*.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("verdict needs two equally long samples of >= 2 runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    gain = sign * (med_c - med_p)
    if wins >= 0.9 * len(parent) and gain > iqr(parent):
        return "improved"
    if -gain > bound * abs(med_p):
        return "regressed"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    return "unchanged"
