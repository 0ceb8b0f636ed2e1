"""Meet and join of distributions under majorization.

Both operations act on Lorenz curves, which :func:`~majent.simplex.paired_curves`
builds on a common dimension.  The meet's curve is the pointwise minimum of
the operands' curves; the minimum of two concave curves is still concave, so
its first differences already form a sorted distribution and no repair is
needed.  The join starts from the pointwise maximum, which can fail
concavity: its first differences, the plain list :func:`pre_join` returns,
may violate the non-increasing order.  :func:`flatten` repairs that by
repeatedly averaging maximal violating blocks, which is the same thing as
replacing the curve by its least concave majorant.  The repaired vector is
the least upper bound.

When both operands carry exact rational weights the whole pipeline runs in
exact arithmetic (the pre-join list holds Fractions) and only converts to
float at the boundary.
"""
from __future__ import annotations

from typing import Sequence

from .simplex import ProbabilityDistribution, Weight, make_distribution, paired_curves


def _differences(curve: Sequence[Weight]) -> list[Weight]:
    prev: Weight = 0
    out = []
    for value in curve:
        out.append(value - prev)
        prev = value
    return out


def meet(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> ProbabilityDistribution:
    """Greatest lower bound: differences of the pointwise-min curve.

    The result is majorized by both operands, and any r majorized by both is
    majorized by the result.
    """
    pa, pb, _ = paired_curves(p, q)
    low = [min(x, y) for x, y in zip(pa, pb)]
    return make_distribution(_differences(low))


def pre_join(p: ProbabilityDistribution, q: ProbabilityDistribution) -> list[Weight]:
    """Differences of the pointwise-max curve, before order repair.

    Entries are non-negative and sum to 1, but the non-increasing order can
    be violated, so this is deliberately a plain list and not a
    ProbabilityDistribution.  Entries are Fractions when both operands are
    exact, floats otherwise.
    """
    pa, pb, _ = paired_curves(p, q)
    return _differences([max(x, y) for x, y in zip(pa, pb)])


def flatten(values: Sequence[Weight]) -> ProbabilityDistribution:
    """Repair a pre-join vector into a sorted distribution.

    Scans left to right for the first ascent, grows the surrounding block as
    long as a boundary entry would break the order against the running block
    average (growth can propagate leftward), replaces the block by its
    average and restarts.  Adjacent equal entries are not violations.

    The repaired Lorenz curve is the least concave majorant of the input's
    curve, so among sorted vectors whose curve dominates the input's this is
    the minimal one in the majorization order.  Values that do not sum to 1
    are rejected by :func:`~majent.simplex.make_distribution`.
    """
    vals = list(values)
    n = len(vals)
    while True:
        for a in range(n - 1):
            if vals[a] < vals[a + 1]:
                break
        else:
            return make_distribution(vals)
        b = a + 1
        while True:
            avg = sum(vals[a : b + 1]) / (b - a + 1)
            if a > 0 and vals[a - 1] < avg:
                a -= 1
                continue
            if b + 1 < n and vals[b + 1] > avg:
                b += 1
                continue
            break
        vals[a : b + 1] = [avg] * (b - a + 1)


def join(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> ProbabilityDistribution:
    """Least upper bound: the repaired pointwise-max curve."""
    return flatten(pre_join(p, q))
