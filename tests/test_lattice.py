"""Meet, join and the order-repair step.

The lattice laws are exercised in exact rational arithmetic, where equality
is equality and no tolerance can paper over a wrong bound.  The float path
is checked against hand-computed curves and against the exact path.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from majent.lattice import flatten, join, meet, pre_join
from majent.simplex import (
    MajorizationOrder,
    SumOutOfToleranceError,
    compare,
    make_distribution,
    pad,
)


def uniform(n):
    """The exact uniform distribution on ``n`` outcomes."""
    return make_distribution([Fraction(1, n)] * n)


# Weight vectors as small integers over a common denominator; the exact
# constructor path turns them into Fractions.
rational_dists = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=5
).filter(lambda ws: sum(ws) > 0).map(lambda ws: make_distribution(ws, normalize=True))


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


class TestPreJoinAndFlatten:
    def test_pre_join_can_break_order(self):
        p = make_distribution([0.5, 0.15, 0.15, 0.1, 0.1])
        q = make_distribution([0.3, 0.3, 0.3, 0.1, 0.0])
        raw = pre_join(p, q)
        assert raw == pytest.approx([0.5, 0.15, 0.25, 0.1, 0.0], abs=1e-12)
        assert raw[1] < raw[2]

    def test_flatten_averages_the_block(self):
        repaired = flatten([0.5, 0.15, 0.25, 0.1, 0.0])
        assert repaired.weights == pytest.approx((0.5, 0.2, 0.2, 0.1, 0.0), abs=1e-12)

    def test_flatten_whole_vector(self):
        assert flatten([0.2, 0.8]).weights == (0.5, 0.5)

    def test_flatten_propagates_left(self):
        # Averaging (0.2, 0.45) gives 0.325, which overtakes the 0.25 on its
        # left; the block must absorb it and settle at 0.3.
        repaired = flatten([0.25, 0.2, 0.45, 0.1])
        assert repaired.weights == pytest.approx((0.3, 0.3, 0.3, 0.1), abs=1e-15)

    def test_flatten_keeps_sorted_input(self):
        d = flatten([0.6, 0.3, 0.1])
        assert d.weights == (0.6, 0.3, 0.1)

    def test_flatten_rejects_bad_mass(self):
        with pytest.raises(SumOutOfToleranceError):
            flatten([0.5, 0.2])

    def test_exact_flatten(self):
        raw = [Fraction(1, 5), Fraction(4, 5)]
        assert flatten(raw).exact == (Fraction(1, 2), Fraction(1, 2))

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
        assert flatten(raw).weights == (0.09090909090909091,) * 11


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


# Float distributions of dimension 1 to 12, with zero weights now and then.
float_dists = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)), min_size=1, max_size=12
).filter(lambda ws: sum(ws) > 0).map(lambda ws: make_distribution(ws, normalize=True))


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
                assert got.weights == op(pad(a, n), pad(b, n)).weights
                # The exact oracle on the same float weights.
                exact = op(*(make_distribution(map(Fraction, d.weights)) for d in (a, b)))
                assert max(abs(x - y) for x, y in zip(got.weights, exact.exact)) <= 1e-15


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
        assert meet(p, join(p, q)).exact == pad(p, n).exact
        assert join(p, meet(p, q)).exact == pad(p, n).exact

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
