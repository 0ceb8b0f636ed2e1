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
runs in Python floats, as :func:`~majent.properties.run_check` does.
:func:`bound_rows` is the row kernel behind sweeps.  Its curves are
running sums along each row, so every entry is summed in the same order as
the scalar loop, whatever the number of rows, and a row's meet and join
equal the float :func:`meet` and :func:`join` bit for bit.  Only the row
kernel imports numpy.
"""
from __future__ import annotations

from functools import reduce
from operator import add
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


def bound_rows(pairs: np.ndarray, join: Sequence[bool]) -> tuple[np.ndarray, np.ndarray]:
    """(meets, joins) of the paired rows ``pairs[0]`` and ``pairs[1]`` of a
    (2, k, m) array of sorted distributions, both from one pair of Lorenz
    curves; ``joins`` holds the joins of the rows that the k booleans
    ``join`` select, in row order.

    A row may be zero-padded past its length, and its meet and join then
    are too, exactly: past the length both curves stay at their last value,
    so every difference there is 0, the sort keeps those zeros at the end
    and the block averaging never grows a block into them.

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
    join = np.asarray(join)
    meets = _row_differences(np.minimum(ca, cb))
    meets.sort(axis=1)
    meets = meets[:, ::-1]  # non-increasing
    if True not in join.tolist():
        return meets, ca[:0]
    joins = _row_differences(np.maximum(ca[join], cb[join]))
    ascents = joins[:, :-1] < joins[:, 1:]
    repair = ascents.any(axis=1)
    if True in repair.tolist():
        rows = joins[repair].tolist()
        for vals, a in zip(rows, ascents[repair].argmax(axis=1).tolist()):
            _pool(vals, a)
        joins[repair] = rows
    return meets, joins


def meet(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> ProbabilityDistribution:
    """Greatest lower bound: differences of the pointwise-min curve.

    The result is majorized by both operands, and any r majorized by both is
    majorized by the result.  Exact when both operands are.  Rounding can
    leave a float difference a hair above its left neighbour, so the
    differences are sorted, and, as in :func:`bound_rows`, not validated.
    """
    pa, pb, exact = paired_curves(p, q)
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
    operands are."""
    values = pre_join(p, q)
    if p.exact is not None and q.exact is not None:
        return flatten(values)
    return ProbabilityDistribution(tuple(_pool(values)))
