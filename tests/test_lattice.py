"""Meet, join and the order-repair step.

The lattice laws are exercised in exact rational arithmetic, where equality
is equality and no tolerance can paper over a wrong bound.  The float path
is checked against hand-computed curves and against the exact path.
"""
from fractions import Fraction
from math import nextafter
from operator import ge, le

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from majent.lattice import _differences, _pool, bound_rows, join, meet
from majent.simplex import (
    MajorizationOrder,
    compare,
    make_distribution,
    paired_curves,
)


def uniform(n):
    """The exact uniform distribution on ``n`` outcomes."""
    return make_distribution([Fraction(1, n)] * n)


# Weight vectors as small integers over a common denominator; the exact
# constructor path turns them into Fractions.
rational_dists = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=5
).filter(lambda ws: sum(ws) > 0).map(
    lambda ws: make_distribution([Fraction(w, sum(ws)) for w in ws])
)


def is_below(a, b) -> bool:
    return compare(a, b) in (MajorizationOrder.MAJORIZED_BY, MajorizationOrder.EQUAL)


class TestMeet:
    def test_hand_curve(self):
        p = make_distribution([0.5, 0.3, 0.1, 0.1])
        q = make_distribution([0.4, 0.4, 0.2, 0.0])
        assert meet(p, q).weights == pytest.approx((0.4, 0.4, 0.1, 0.1), abs=1e-12)

    def test_comparable_pair_returns_the_lower(self):
        p = make_distribution([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        q = make_distribution([Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)])
        assert meet(p, q).exact == q.exact

    def test_exact_pipeline(self):
        p = make_distribution([Fraction(1, 2), Fraction(3, 10), Fraction(1, 10), Fraction(1, 10)])
        q = make_distribution([Fraction(2, 5), Fraction(2, 5), Fraction(1, 5), Fraction(0)])
        m = meet(p, q)
        assert m.exact is not None
        assert m.exact == (Fraction(2, 5), Fraction(2, 5), Fraction(1, 10), Fraction(1, 10))

    def test_mixed_dimensions(self):
        m = meet(make_distribution([0.9, 0.1]), uniform(4))
        assert m.dim == 4
        # The uniform curve lies below everywhere, so it is the meet.
        assert m.weights == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-15)


class TestJoinRepair:
    def test_max_curve_differences_can_break_order(self):
        p = make_distribution([0.5, 0.15, 0.15, 0.1, 0.1])
        q = make_distribution([0.3, 0.3, 0.3, 0.1, 0.0])
        pa, pb, _ = paired_curves(p, q)
        raw = _differences(list(map(max, pa, pb)))
        assert raw == pytest.approx([0.5, 0.15, 0.25, 0.1, 0.0], abs=1e-12)
        assert raw[1] < raw[2]

    def test_pool_averages_the_block(self):
        repaired = _pool([0.5, 0.15, 0.25, 0.1, 0.0])
        assert repaired == pytest.approx([0.5, 0.2, 0.2, 0.1, 0.0], abs=1e-12)

    def test_pool_whole_vector(self):
        assert _pool([0.2, 0.8]) == [0.5, 0.5]

    def test_pool_propagates_left(self):
        # Averaging (0.2, 0.45) gives 0.325, which overtakes the 0.25 on its
        # left; the block must absorb it and settle at 0.3.
        repaired = _pool([0.25, 0.2, 0.45, 0.1])
        assert repaired == pytest.approx([0.3, 0.3, 0.3, 0.1], abs=1e-15)

    def test_pool_keeps_sorted_input(self):
        assert _pool([0.6, 0.3, 0.1]) == [0.6, 0.3, 0.1]

    def test_exact_pool_and_join_repair(self):
        assert _pool([Fraction(1, 5), Fraction(4, 5)]) == [Fraction(1, 2)] * 2
        p = make_distribution([Fraction(k, 20) for k in (10, 3, 3, 2, 2)])
        q = make_distribution([Fraction(k, 10) for k in (3, 3, 3, 1, 0)])
        assert join(p, q).exact == tuple(Fraction(k, 10) for k in (5, 2, 2, 1, 0))

    def test_block_sums_run_left_to_right_on_every_python(self):
        # One block of 11, grown both ways.  Python 3.12's compensated
        # builtin sum gives 0.0909090909090909 here; a left-to-right sum
        # gives the bits below on every version.
        raw = [
            0.03991596638309493, 0.0012327628351515847, 0.12128726926824884,
            0.01402485585558474, 0.2550865824861394, 0.0035321928973136435,
            0.12232427819767044, 0.14012264868980276, 0.02535634858461899,
            0.0729555526108383, 0.20416154219153632,
        ]
        assert _pool(raw) == [0.09090909090909091] * 11

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    def test_a_repair_from_its_first_ascent_is_the_repair(self, vals):
        # bound_rows hands each join row to _pool with the first ascent it
        # found; the scan before it finds nothing, so the bits are the same.
        ascents = [i for i in range(len(vals) - 1) if vals[i] < vals[i + 1]]
        assume(ascents)
        assert _pool(list(vals), ascents[0]) == _pool(list(vals))


class TestJoin:
    def test_hand_curve(self):
        p = make_distribution([0.5, 0.3, 0.1, 0.1])
        q = make_distribution([0.4, 0.4, 0.2, 0.0])
        assert join(p, q).weights == pytest.approx((0.5, 0.3, 0.2, 0.0), abs=1e-12)

    def test_repair_case(self):
        p = make_distribution([0.5, 0.15, 0.15, 0.1, 0.1])
        q = make_distribution([0.3, 0.3, 0.3, 0.1, 0.0])
        assert join(p, q).weights == pytest.approx((0.5, 0.2, 0.2, 0.1, 0.0), abs=1e-12)

    def test_exact_join_of_reference_pair(self):
        p = make_distribution([Fraction(1, 2), Fraction(3, 10), Fraction(1, 10), Fraction(1, 10)])
        q = make_distribution([Fraction(2, 5), Fraction(2, 5), Fraction(1, 5), Fraction(0)])
        j = join(p, q)
        assert j.exact == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5), Fraction(0))

    def test_result_dimension(self):
        assert join(make_distribution([0.9, 0.1]), uniform(5)).dim == 5


def _normalized(weights, min_size, max_size):
    """Float distributions of ``min_size`` to ``max_size`` entries drawn
    from ``weights`` and normalized."""
    return st.lists(weights, min_size=min_size, max_size=max_size).filter(
        lambda ws: sum(ws) > 0
    ).map(lambda ws: make_distribution([w / sum(ws) for w in ws]))


# Float distributions of dimension 1 to 12, with zero weights now and then.
float_dists = _normalized(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), 1, 12)


class TestFloatPadding:
    """The float lattice pads a pair to its common dimension through one
    helper, whichever operand is the shorter."""

    @given(float_dists, float_dists)
    def test_unequal_dimensions_equal_the_padded_pair(self, p, q):
        assume(p.dim != q.dim)
        n = max(p.dim, q.dim)
        for op in (meet, join):
            for a, b in ((p, q), (q, p)):
                got = op(a, b)
                padded = (make_distribution(d.weights + (0.0,) * (n - d.dim)) for d in (a, b))
                assert got.weights == op(*padded).weights
                # The exact oracle on the same float weights.
                exact = op(*(make_distribution(map(Fraction, d.weights)) for d in (a, b)))
                assert max(abs(x - y) for x, y in zip(got.weights, exact.exact)) <= 1e-15


# Two-point distributions, and sparse ones with weights down to 1e-300.
two_point_dists = _normalized(st.floats(0.0, 1.0), 2, 2)
sparse_dists = _normalized(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-3)), 2, 12
)


@st.composite
def tied_pairs(draw):
    """(p, q) with equal weights but the last, which may be one step apart,
    and q zero-padded now and then: curves equal at every point but the
    last, unless a moved weight re-sorts or q's padding puts p's last point
    under test."""
    p = draw(sparse_dists)
    w = p.weights[-1]
    last = draw(st.sampled_from([w, nextafter(w, 0.0), nextafter(w, 1.0)]))
    return p, make_distribution(p.weights[:-1] + (last,) + (0.0,) * draw(st.integers(0, 2)))


@st.composite
def tail_ties(draw):
    """(p, q) of one dimension, 3 to 8, with a shared normalized head and
    tails of 10^x, x in [-40, -16], drawn apart: the tails sit below the
    rounding of the curves, which mostly tie at every tested point."""
    n = draw(st.integers(3, 8))
    head = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=n - 1))
    head = [w / sum(head) for w in head]
    size = n - len(head)
    tails = st.lists(st.floats(-40.0, -16.0).map(lambda x: 10.0**x), min_size=size, max_size=size)
    return make_distribution(head + draw(tails)), make_distribution(head + draw(tails))


@st.composite
def shared_zeros(draw):
    """(p, q) of one dimension n, 3 to 8, ending in the same 1 to n - 2
    zeros: head weights in (0, 1] and a last nonzero weight of 10^x, x in
    [-14, -6], normalized by float division.  Past both supports the
    curves sit at their ends, which agree only up to rounding."""
    n = draw(st.integers(3, 8))
    support = n - draw(st.integers(1, n - 2))
    heads = st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=support - 1, max_size=support - 1)
    out = []
    for _ in range(2):
        ws = draw(heads) + [10.0 ** draw(st.floats(-14.0, -6.0))]
        out.append(make_distribution([w / sum(ws) for w in ws] + [0.0] * (n - support)))
    return tuple(out)


def bits(d):
    return [w.hex() for w in d.weights]


def read_points(p, q):
    """The indices of the points of the Lorenz curves of ``p`` and ``q``
    that the float order test reads: those after which either zero-padded
    operand still has weight."""
    n = max(p.dim, q.dim)
    wp, wq = (d.weights + (0.0,) * (n - d.dim) for d in (p, q))
    return [j for j in range(n - 1) if wp[j + 1] > 0 or wq[j + 1] > 0]


def normalized(d):
    """The exact copy of the float weights of ``d``, divided by their exact
    sum."""
    return make_distribution([Fraction(w) / sum(map(Fraction, d.weights)) for w in d.weights])


class TestFloatSelection:
    """In floats, a pair whose Lorenz curves are ordered at every tested
    point, each one after which either operand still has weight, takes its
    operands as meet and join, zero-padded, bit for bit, and so does a tie,
    curves equal at all those points, ordered by its weights.  Only curves
    that cross take the differences."""

    @given(st.one_of(st.tuples(two_point_dists, two_point_dists), st.tuples(sparse_dists, sparse_dists)))
    @example((make_distribution([1.0, 7.573002358449707e-68]),
              make_distribution([0.9999999999999998, 1.799752355955483e-16])))
    @example((make_distribution([0.9, 0.1]), make_distribution([0.25] * 4)))
    def test_an_ordered_pair_takes_its_operands(self, pair):
        p, q = pair
        pa, pb, _ = paired_curves(p, q)
        at = read_points(p, q)
        below, above = (all(op(pa[j], pb[j]) for j in at) for op in (le, ge))
        if p.dim == q.dim == 2:  # at most one tested point: ordered unless it ties
            assert below != above or p.weights[0] == q.weights[0]
        assume(below != above)
        lower, upper = (p, q) if below else (q, p)
        n = len(pa)
        for got, want in ((meet(p, q), lower), (join(p, q), upper)):
            assert bits(got) == bits(want) + [(0.0).hex()] * (n - want.dim)
            assert (got is want) == (want.dim == n)

    @given(sparse_dists)
    @example(make_distribution([0.499999999999975, 0.499999999999975, 4.99999999999975e-14]))
    def test_a_pair_equal_bit_for_bit_is_its_own_meet_and_join(self, p):
        for q in (p, make_distribution(p.weights + (0.0,))):  # q is the padded p
            for a, b in ((p, q), (q, p)):
                assert bits(meet(a, b)) == bits(join(a, b)) == bits(q)
        rows = np.zeros((2, 1, p.dim + 1))
        rows[:, 0, : p.dim] = p.weights
        order, meets, joins = bound_rows(rows, [True])
        assert order.tolist() == [1] and meets.size == joins.size == 0

    @given(st.one_of(st.tuples(float_dists, float_dists), tied_pairs()))
    @example((make_distribution([0.6, 0.4]), make_distribution([0.6, nextafter(0.4, 1.0)])))
    @example((make_distribution([0.6, 0.4]), make_distribution([0.6, 0.4, 0.0])))
    def test_float_meet_and_join_commute_bit_for_bit(self, pair):
        p, q = pair
        for op in (meet, join):
            assert bits(op(p, q)) == bits(op(q, p))

    @given(tail_ties())
    # Exactly, p is majorized by q; the differences of the curves gave
    # (1, 0, 0) for both bounds.
    @example((make_distribution([1.0, 1e-16, 1e-16]), make_distribution([1.0, 1e-16, 1e-17])))
    def test_a_tie_takes_its_operands(self, pair):
        p, q = pair
        pa, pb, _ = paired_curves(p, q)
        assume(pa[:-1] == pb[:-1])
        lower, upper = meet(p, q), join(p, q)
        assert sorted([bits(lower), bits(upper)]) == sorted([bits(p), bits(q)])
        assert (bits(meet(q, p)), bits(join(q, p))) == (bits(lower), bits(upper))
        # Both rows of the kernel name the same operands.
        pairs = np.array([[p.weights, q.weights], [q.weights, p.weights]])
        order, meets, joins = bound_rows(pairs, [True, True])
        assert meets.size == joins.size == 0
        for i, code in enumerate(order.tolist()):
            assert pairs[code - 1, i].tolist() == list(lower.weights)
            assert pairs[2 - code, i].tolist() == list(upper.weights)
        # Where the exact normalized copies are comparable, the float meet is
        # the operand whose copy is the exact meet.
        below = compare(normalized(p), normalized(q))
        if below is MajorizationOrder.MAJORIZED_BY:
            assert bits(lower) == bits(p)
        elif below is MajorizationOrder.MAJORIZES:
            assert bits(lower) == bits(q)

    @given(shared_zeros())
    # Exactly, p is majorized by q; the curves tested past both supports
    # crossed, and the differences of the curves moved every weight.
    @example((make_distribution([0.6532252317251787, 0.18145328665562568, 0.16532148161917495,
                                 2.0871098872707664e-14, 0, 0, 0, 0]),
              make_distribution([0.6632371425170408, 0.2202769735041269, 0.11648588397881306,
                                 1.9139014145403264e-14, 0, 0, 0, 0])))
    def test_a_shared_trailing_zero_is_not_tested(self, pair):
        p, q = pair
        # More zero padding moves no code and no bound of the row kernel.
        out = []
        for width in (8, 16):
            pairs = np.zeros((2, 2, width))
            pairs[0, 0, : p.dim], pairs[1, 0, : q.dim] = p.weights, q.weights
            pairs[0, 1, : q.dim], pairs[1, 1, : p.dim] = q.weights, p.weights
            out.append(bound_rows(pairs, [True, True]))
        (order8, meets8, joins8), (order16, meets16, joins16) = out
        assert order16.tolist() == order8.tolist()
        for narrow, wide in ((meets8, meets16), (joins8, joins16)):
            assert wide[:, :8].tobytes() == narrow.tobytes()
            assert not wide[:, 8:].any()
        # Where the exact normalized copies are comparable, with curves more
        # than 2^-50, four roundings near 1, apart at every tested point, the
        # float meet and join are those operands, whichever comes first, on
        # both paths.  Closer curves are the rounding residue that
        # test_properties' targeted test tracks.
        ep, eq = normalized(p), normalized(q)
        ea, eb, _ = paired_curves(ep, eq)
        below = compare(ep, eq)
        if below in (MajorizationOrder.MAJORIZED_BY, MajorizationOrder.MAJORIZES) and all(
            abs(ea[j] - eb[j]) > 2**-50 for j in read_points(p, q)
        ):
            lower, upper = (p, q) if below is MajorizationOrder.MAJORIZED_BY else (q, p)
            for a, b in ((p, q), (q, p)):
                assert (bits(meet(a, b)), bits(join(a, b))) == (bits(lower), bits(upper))
            assert order8.tolist() == ([1, 2] if lower is p else [2, 1])


class TestLatticeLaws:
    """Algebraic laws, all in exact arithmetic."""

    @given(rational_dists, rational_dists)
    def test_commutative(self, p, q):
        assert meet(p, q).exact == meet(q, p).exact
        assert join(p, q).exact == join(q, p).exact

    @given(rational_dists)
    def test_idempotent(self, p):
        assert meet(p, p).exact == p.exact
        assert join(p, p).exact == p.exact

    @given(rational_dists, rational_dists, rational_dists)
    def test_meet_associative(self, p, q, r):
        assert meet(meet(p, q), r).exact == meet(p, meet(q, r)).exact

    @given(rational_dists, rational_dists, rational_dists)
    def test_join_associative(self, p, q, r):
        assert join(join(p, q), r).exact == join(p, join(q, r)).exact

    @given(rational_dists, rational_dists)
    def test_absorption(self, p, q):
        n = max(p.dim, q.dim)
        padded = p.exact + (0,) * (n - p.dim)
        assert meet(p, join(p, q)).exact == padded
        assert join(p, meet(p, q)).exact == padded

    @given(rational_dists, rational_dists)
    def test_meet_is_a_lower_bound_and_join_an_upper(self, p, q):
        m, j = meet(p, q), join(p, q)
        assert is_below(m, p) and is_below(m, q)
        assert is_below(p, j) and is_below(q, j)

    @given(rational_dists, rational_dists)
    def test_bounds_sandwich(self, p, q):
        assert is_below(meet(p, q), join(p, q))


def all_sorted_rationals(denominator: int, dim: int):
    """Every non-increasing dim-tuple of multiples of 1/denominator."""
    out = []

    def rec(prefix, remaining, bound):
        if len(prefix) == dim:
            if remaining == 0:
                out.append(make_distribution([Fraction(k, denominator) for k in prefix]))
            return
        lo = -(-remaining // (dim - len(prefix)))  # ceil: keep the tail feasible
        for k in range(min(bound, remaining), lo - 1, -1):
            rec(prefix + [k], remaining - k, k)

    rec([], denominator, denominator)
    return out


class TestExtremalityOnSmallGrid:
    """Brute-force glb/lub checks over every sixth-grid distribution.

    A small forerunner of the full twelfth-grid acceptance run: meet must be
    the greatest lower bound and join the least upper bound relative to
    every member of the grid, in exact arithmetic.
    """

    def test_exhaustive_sixths(self):
        members = all_sorted_rationals(6, 3)
        assert len(members) == 7  # partitions of 6 into at most 3 parts
        for x in members:
            for y in members:
                m, j = meet(x, y), join(x, y)
                assert is_below(m, x) and is_below(m, y)
                assert is_below(x, j) and is_below(y, j)
                for z in members:
                    if is_below(z, x) and is_below(z, y):
                        assert is_below(z, m)
                    if is_below(x, z) and is_below(y, z):
                        assert is_below(j, z)
