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

:func:`meet` and :func:`join` run one body on either number type.  When
both operands carry exact rational weights it runs in exact arithmetic (the
pre-join list holds Fractions) and only converts to float at the boundary;
that path is the oracle the float path is tested against.  Otherwise it
runs in Python floats, as :func:`~majent.properties.run_check` does, and an
ordered pair skips the curves' differences: its meet is its lower operand
and its join the upper one (:func:`_order`).  :func:`bound_rows` is the row
kernel behind sweeps, with the same order test and, on crossing rows, the
same differences bit for bit.  Only the row kernel imports numpy.
"""
from __future__ import annotations

from functools import reduce
from operator import add, ge, le
from typing import TYPE_CHECKING, Sequence

from .simplex import ProbabilityDistribution, Weight, make_distribution, paired_curves

if TYPE_CHECKING:
    import numpy as np


def _differences(curve: Sequence[Weight]) -> list[Weight]:
    prev: Weight = 0
    out = []
    for value in curve:
        out.append(value - prev)
        prev = value
    return out


def _row_differences(curves: np.ndarray) -> np.ndarray:
    """First differences of each row, the first entry taken against 0."""
    out = curves.copy()
    out[:, 1:] -= curves[:, :-1]
    return out


def _order(pa: list[float], pb: list[float]) -> int:
    """1 when the float curve ``pa`` lies at or below ``pb`` at every point
    but the last, 2 when ``pb`` lies at or below ``pa``, and 0 when they
    cross or are equal at all those points.

    The test is strict: the tie window of
    :func:`~majent.simplex.compare` would also pick an operand for curves
    that cross by less than its width.  The last point is left out, because
    both curves end at 1 only up to rounding.  Equal curves take the
    differences, which treat both operands alike, so the float meet and
    join stay commutative bit for bit.
    """
    pa, pb = pa[:-1], pb[:-1]
    if all(map(le, pa, pb)):
        return 0 if pa == pb else 1
    return 2 if all(map(ge, pa, pb)) else 0


def bound_rows(
    pairs: np.ndarray, join: Sequence[bool], n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, meets, joins) of the paired rows ``pairs[0]`` and ``pairs[1]``
    of a (2, k, m) array of sorted distributions, each of dimension ``n[i]``
    and zero-padded past it.

    ``order`` holds the :func:`_order` code of each row's two Lorenz curves,
    tested at every point before the row's last real one: 1 when p's curve
    is below, so the row's meet is p and its join q, 2 when q's is below,
    and 0 when they cross or tie.  ``meets`` holds the meets of the
    crossing rows and ``joins`` the joins of the crossing rows that the k
    booleans ``join`` select, both in row order, from one pair of curves.

    The padding is exact: the order test stops before each row's last real
    point, past which both curves stay at their last value, so every
    difference there is 0, the sort keeps those zeros at the end and the
    block averaging never grows a block into them.

    Rounding can leave a meet's difference a hair above its left neighbour,
    so the meets are sorted, as a scalar meet would sort them.  Only the
    joins whose differences ascend somewhere go through the block averaging
    of :func:`flatten`, from the first ascent the row's scan found and
    without the check of the result, as the meets skip it too: the
    differences of a max curve are >= 0 and sum to its end.
    The others are already sorted.
    """
    import numpy as np

    ca, cb = np.add.accumulate(pairs, axis=2)
    pa, pb = ca[:, :-1], cb[:, :-1]
    # Per tested point, 1 when p's curve is below and 2 when q's is.  A
    # row's OR of them is its order code, and 3, curves that cross, turns 0.
    point = (pa < pb).view(np.uint8) | (pa > pb).view(np.uint8) << 1
    point[np.arange(1, pairs.shape[2]) >= n[:, None]] = 0
    order = np.bitwise_or.reduce(point, axis=1) % 3
    cross = order == 0
    meets = _row_differences(np.minimum(ca, cb)[cross])
    meets.sort(axis=1)
    meets = meets[:, ::-1]  # non-increasing
    join = cross & np.asarray(join)
    if True not in join.tolist():
        return order, meets, ca[:0]
    joins = _row_differences(np.maximum(ca[join], cb[join]))
    ascents = joins[:, :-1] < joins[:, 1:]
    repair = ascents.any(axis=1)
    if True in repair.tolist():
        rows = joins[repair].tolist()
        for vals, a in zip(rows, ascents[repair].argmax(axis=1).tolist()):
            _pool(vals, a)
        joins[repair] = rows
    return order, meets, joins


def _padded(d: ProbabilityDistribution, n: int) -> ProbabilityDistribution:
    """The float operand ``d`` zero-padded to dimension ``n``: ``d`` itself
    when it needs no padding and carries no exact weights."""
    if d.dim == n and d.exact is None:
        return d
    return ProbabilityDistribution(d.weights + (0.0,) * (n - d.dim))


def meet(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> ProbabilityDistribution:
    """Greatest lower bound: differences of the pointwise-min curve.

    The result is majorized by both operands, and any r majorized by both is
    majorized by the result.  Exact when both operands are.  In floats, an
    ordered pair's meet is its lower operand (:func:`_order`).  Rounding can
    leave a float difference a hair above its left neighbour, so the
    differences are sorted, and, as in :func:`bound_rows`, not validated.
    """
    pa, pb, exact = paired_curves(p, q)
    order = 0 if exact else _order(pa, pb)
    if order:
        return _padded(p if order == 1 else q, len(pa))
    values = _differences(list(map(min, pa, pb)))
    if exact:
        return make_distribution(values)
    return ProbabilityDistribution(tuple(sorted(values, reverse=True)))


def pre_join(p: ProbabilityDistribution, q: ProbabilityDistribution) -> list[Weight]:
    """Differences of the pointwise-max curve, before order repair.

    Entries are non-negative and sum to 1, but the non-increasing order can
    be violated, so this is deliberately a plain list and not a
    ProbabilityDistribution.  Entries are Fractions when both operands are
    exact, floats otherwise.  This is the first step of :func:`join`, and
    :func:`bound_rows` takes the same differences of float rows.
    """
    pa, pb, _ = paired_curves(p, q)
    return _differences(list(map(max, pa, pb)))


def _pool(vals: list, a: int = 0) -> list:
    """Average the violating blocks of ``vals`` in place, left to right, and
    return it.  The scan starts at index ``a``, which a caller that already
    knows the first ascent passes.

    Finds the first ascent, grows the surrounding block as long as a
    boundary entry would break the order against the running block average
    (growth can propagate leftward), replaces the block by its average and
    resumes the scan at the block's end.  Nothing before that end can
    ascend: the prefix held no ascent, the left neighbour is >= the average
    and the right one <= it.  Adjacent equal entries are not violations.

    A block's total is summed left to right, as the builtin ``sum`` was
    before Python 3.12 compensated it, so no bit depends on the version.
    """
    n = len(vals)
    while True:
        for a in range(a, n - 1):
            if vals[a] < vals[a + 1]:
                break
        else:
            return vals
        b = a + 1
        total = vals[a] + vals[b]
        while True:
            avg = total / (b - a + 1)
            if a > 0 and vals[a - 1] < avg:
                a -= 1
                total = reduce(add, vals[a : b + 1])
            elif b + 1 < n and vals[b + 1] > avg:
                b += 1
                total += vals[b]
            else:
                break
        vals[a : b + 1] = [avg] * (b - a + 1)
        a = b + 1


def flatten(values: Sequence[Weight]) -> ProbabilityDistribution:
    """Repair a pre-join vector into a sorted distribution.

    Averages the maximal violating blocks, left to right (see ``_pool``).
    The repaired Lorenz curve is the least concave majorant of the input's
    curve, so among sorted vectors whose curve dominates the input's this is
    the minimal one in the majorization order.  Values that do not sum to 1
    are rejected by :func:`~majent.simplex.make_distribution`.
    """
    return make_distribution(_pool(list(values)))


def join(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> ProbabilityDistribution:
    """Least upper bound: the repaired pointwise-max curve.  Exact when both
    operands are.  In floats, an ordered pair's join is its upper operand
    (:func:`_order`)."""
    if p.exact is not None and q.exact is not None:
        return flatten(pre_join(p, q))
    pa, pb, _ = paired_curves(p, q)
    order = _order(pa, pb)
    if order:
        return _padded(q if order == 1 else p, len(pa))
    return ProbabilityDistribution(tuple(_pool(pre_join(p, q))))
