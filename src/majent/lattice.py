"""Meet and join of distributions under majorization.

One body, :func:`_bound`, builds either bound from the one pair of Lorenz
curves that :func:`~majent.simplex.paired_curves` gives on a common
dimension.  The meet's curve is the pointwise minimum of the operands'
curves; the minimum of two concave curves is still concave, so its first
differences already form a sorted distribution.  The join's is the
pointwise maximum, which can fail concavity: its differences may ascend,
and :func:`_pool` averages maximal violating blocks, which replaces the
curve by its least concave majorant, the least upper bound's curve.

With exact rational weights on both operands the body runs in exact
arithmetic, the oracle the float path is tested against.  In floats, as
:func:`~majent.properties.run_check` runs it, a pair whose curves do not
cross is ordered by one rule, :func:`_order`, and its meet is its lower
operand and its join the upper one.  :func:`bound_rows`, the row kernel
behind sweeps and the only importer of numpy, hands its ties to the same
rule and keeps, on crossing rows, the same bits.
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


def _order(pa: list[float], pb: list[float], wa: Sequence[float], wb: Sequence[float]) -> int:
    """1 when p is the meet of the float pair with curves ``pa`` and ``pb``
    and zero-padded weights ``wa`` and ``wb``, 2 when q is, and 0 when the
    curves cross: the codes of :func:`bound_rows`.

    The meet's curve lies at or below the other at every point but the
    last, which is left out because both curves end at 1 only up to
    rounding.  The test is strict: the tie window of
    :func:`~majent.simplex.compare` would also pick an operand for curves
    that cross by less than its width.  A tie, curves equal at all those
    points, is ordered by the weights read from the last entry, where
    rounding left them apart: the larger are the meet, and equal weights
    read 1.  The order is total, so the float meet and join commute bit for
    bit, and p meet p is p.
    """
    pa, pb = pa[:-1], pb[:-1]
    if all(map(le, pa, pb)):
        return 1 if pa != pb or wa[::-1] >= wb[::-1] else 2
    return 2 if all(map(ge, pa, pb)) else 0


def bound_rows(
    pairs: np.ndarray, join: Sequence[bool], n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, meets, joins) of the paired rows ``pairs[0]`` and ``pairs[1]``
    of a (2, k, m) array of sorted distributions, each of dimension ``n[i]``
    and zero-padded past it.

    ``order`` holds the :func:`_order` code of each row's two Lorenz curves,
    tested at every point before the row's last real one: 1 when the row's
    meet is p and its join q, 2 the other way round, and 0 when they cross.
    Only the rows that tie go through :func:`_order` itself, on their first
    ``n[i]`` entries.  ``meets`` holds the meets of the rows that read 0 and
    ``joins`` the joins of those that the k booleans ``join`` select, both
    in row order, from one pair of curves.

    The padding is exact: the order test stops before each row's last real
    point, past which both curves stay at their last value, so every
    difference there is 0, the sort keeps those zeros at the end and the
    block averaging never grows a block into them.

    Rounding can leave a meet's difference a hair above its left neighbour,
    so the meets are sorted, as a scalar meet would sort them.  Only the
    joins whose differences ascend somewhere go through the block averaging
    of :func:`_pool`, from the first ascent the row's scan found.  Neither
    is checked afterwards, as in the scalar path: the differences of a max
    curve are >= 0 and sum to its end.  The other joins are already sorted.
    """
    import numpy as np

    ca, cb = np.add.accumulate(pairs, axis=2)
    pa, pb = ca[:, :-1], cb[:, :-1]
    # Per tested point, 1 when p's curve is below and 2 when q's is.  A
    # row's OR of them is its order code, 3 when they cross and 0 on a tie.
    point = (pa < pb).view(np.uint8) | (pa > pb).view(np.uint8) << 1
    point[np.arange(1, pairs.shape[2]) >= n[:, None]] = 0
    order = np.bitwise_or.reduce(point, axis=1)
    for i in np.flatnonzero(order == 0).tolist():
        m = n.item(i)
        order[i] = _order(*(x[i, :m].tolist() for x in (ca, cb, *pairs)))
    order %= 3
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
    if d.exact is None and len(d.weights) == n:
        return d
    return ProbabilityDistribution(d.weights + (0.0,) * (n - d.dim))


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


def _bound(
    p: ProbabilityDistribution, q: ProbabilityDistribution, upper: bool
) -> ProbabilityDistribution:
    """The meet of ``p`` and ``q``, or their join when ``upper``: the
    differences of the pointwise-min curve, or the pooled ones of the max
    curve.  Exact when both operands are.  In floats a pair whose curves do
    not cross gives the operand :func:`_order` names, zero-padded.
    Rounding can leave a meet's difference a hair above its left neighbour,
    so the differences are sorted, and, as in :func:`bound_rows`, no float
    bound is validated.
    """
    pa, pb, exact = paired_curves(p, q)
    n = len(pa)
    fp, fq = _padded(p, n), _padded(q, n)
    order = 0 if exact else _order(pa, pb, fp.weights, fq.weights)
    if order:
        return fp if (order == 1) != upper else fq
    values = _differences(list(map(max if upper else min, pa, pb)))
    if upper:
        _pool(values)
    else:
        values.sort(reverse=True)
    return make_distribution(values) if exact else ProbabilityDistribution(tuple(values))


def meet(p: ProbabilityDistribution, q: ProbabilityDistribution) -> ProbabilityDistribution:
    """Greatest lower bound: majorized by both operands, and majorizing any
    r majorized by both (:func:`_bound`)."""
    return _bound(p, q, False)


def join(p: ProbabilityDistribution, q: ProbabilityDistribution) -> ProbabilityDistribution:
    """Least upper bound: majorizing both operands, and majorized by any r
    that majorizes both (:func:`_bound`)."""
    return _bound(p, q, True)
