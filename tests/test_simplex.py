"""Construction, validation and ordering of simplex vectors."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from majent.simplex import (
    CMP_TOL,
    SUM_TOL,
    EmptyInputError,
    MajorizationOrder,
    NegativeWeightError,
    SumOutOfToleranceError,
    TargetDimTooSmallError,
    VectorParseError,
    compare,
    make_distribution,
    pad,
    paired_curves,
    parse_distribution,
    parse_weights,
    tensor_product,
    uniform,
)


class TestMakeDistribution:
    def test_sorts_non_increasing(self):
        d = make_distribution([0.1, 0.5, 0.3, 0.1])
        assert d.weights == (0.5, 0.3, 0.1, 0.1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            make_distribution([])

    def test_negative_rejected(self):
        with pytest.raises(NegativeWeightError):
            make_distribution([0.7, 0.4, -0.1])

    def test_nan_rejected(self):
        with pytest.raises(NegativeWeightError):
            make_distribution([0.5, float("nan"), 0.5])

    def test_sum_off_rejected_with_diagnostics(self):
        with pytest.raises(SumOutOfToleranceError) as exc:
            make_distribution([0.5, 0.6])
        assert exc.value.total == pytest.approx(1.1)
        assert exc.value.deviation == pytest.approx(0.1)

    def test_sum_within_window_accepted(self):
        # Accumulated rounding short of SUM_TOL must not be rejected.
        d = make_distribution([0.5, 0.5 + 0.5 * SUM_TOL])
        assert abs(sum(d.weights) - 1.0) <= SUM_TOL

    def test_no_silent_normalization(self):
        with pytest.raises(SumOutOfToleranceError):
            make_distribution([2, 1, 1])

    def test_explicit_normalization(self):
        d = make_distribution([2, 1, 1], normalize=True)
        assert d.exact == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_normalize_zero_sum_rejected(self):
        with pytest.raises(SumOutOfToleranceError):
            make_distribution([0, 0, 0], normalize=True)

    def test_rational_input_stays_exact(self):
        d = make_distribution([Fraction(1, 3)] * 3)
        assert d.exact is not None
        assert d.exact == (Fraction(1, 3),) * 3
        assert d.weights == (1 / 3, 1 / 3, 1 / 3)

    def test_any_float_drops_exactness(self):
        d = make_distribution([Fraction(1, 2), 0.25, Fraction(1, 4)])
        assert d.exact is None

    def test_support(self):
        d = make_distribution([0.5, 0.5, 0.0, 0.0])
        assert tuple(w for w in d.weights if w > 0) == (0.5, 0.5)
        assert d.dim == 4


class TestUniformAndPad:
    def test_uniform_is_exact(self):
        u = uniform(6)
        assert u.exact == (Fraction(1, 6),) * 6

    def test_uniform_needs_positive_n(self):
        with pytest.raises(EmptyInputError):
            uniform(0)

    def test_pad_appends_zeros(self):
        d = pad(make_distribution([0.5, 0.5]), 4)
        assert d.weights == (0.5, 0.5, 0.0, 0.0)

    def test_pad_keeps_exactness(self):
        d = pad(uniform(2), 3)
        assert d.exact == (Fraction(1, 2), Fraction(1, 2), Fraction(0))

    def test_pad_noop_returns_same(self):
        d = make_distribution([0.5, 0.5])
        assert pad(d, 2) is d

    def test_pad_cannot_shrink(self):
        with pytest.raises(TargetDimTooSmallError):
            pad(uniform(4), 3)


class TestLorenz:
    def test_prefix_sums(self):
        d = make_distribution([0.5, 0.3, 0.1, 0.1])
        curve, _, exact = paired_curves(d, d)
        assert curve == pytest.approx([0.5, 0.8, 0.9, 1.0], abs=1e-15)
        assert not exact

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_curve_is_concave_and_ends_at_one(self, raw):
        d = make_distribution(raw, normalize=True)
        curve = paired_curves(d, d)[0]
        assert curve[-1] == pytest.approx(1.0, abs=1e-9)
        diffs = [curve[0]] + [b - a for a, b in zip(curve, curve[1:])]
        # The increments are the sorted weights, so they must not increase.
        for a, b in zip(diffs, diffs[1:]):
            assert b <= a + 1e-12


class TestCompare:
    def test_equal_to_itself(self):
        d = make_distribution([0.5, 0.3, 0.2])
        assert compare(d, d) is MajorizationOrder.EQUAL

    def test_zero_padding_does_not_move_a_vector(self):
        half = make_distribution([0.5, 0.5])
        padded = make_distribution([0.5, 0.5, 0.0, 0.0])
        assert compare(half, padded) is MajorizationOrder.EQUAL

    def test_uniform_is_the_bottom(self):
        p = make_distribution([0.7, 0.2, 0.1])
        assert compare(uniform(3), p) is MajorizationOrder.MAJORIZED_BY
        assert compare(p, uniform(3)) is MajorizationOrder.MAJORIZES

    def test_point_mass_is_the_top(self):
        point = make_distribution([1.0])
        p = make_distribution([0.6, 0.4])
        assert compare(p, point) is MajorizationOrder.MAJORIZED_BY

    def test_incomparable_pair(self):
        p = make_distribution([0.5, 0.3, 0.1, 0.1])
        q = make_distribution([0.4, 0.4, 0.2, 0.0])
        assert compare(p, q) is MajorizationOrder.INCOMPARABLE
        assert compare(q, p) is MajorizationOrder.INCOMPARABLE

    def test_float_tie_window(self):
        nudge = CMP_TOL / 10
        p = make_distribution([0.5 + nudge, 0.5 - nudge])
        q = make_distribution([0.5, 0.5])
        assert compare(p, q) is MajorizationOrder.EQUAL

    def test_exact_comparison_resolves_below_the_float_window(self):
        # A prefix-sum gap of 1e-15 vanishes inside CMP_TOL for floats but
        # must still be decided when both operands carry exact weights.
        eps = Fraction(1, 10**15)
        p = make_distribution([Fraction(1, 2) + eps, Fraction(1, 2) - eps])
        q = make_distribution([Fraction(1, 2), Fraction(1, 2)])
        assert compare(p, q) is MajorizationOrder.MAJORIZES
        p_float = make_distribution([float(Fraction(1, 2) + eps), float(Fraction(1, 2) - eps)])
        assert compare(p_float, q) is MajorizationOrder.EQUAL

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6).filter(
            lambda ws: sum(ws) > 0
        ),
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6).filter(
            lambda ws: sum(ws) > 0
        ),
    )
    def test_comparison_is_antisymmetric(self, wp, wq):
        p = make_distribution(wp, normalize=True)
        q = make_distribution(wq, normalize=True)
        forward = compare(p, q)
        backward = compare(q, p)
        flipped = {
            MajorizationOrder.MAJORIZED_BY: MajorizationOrder.MAJORIZES,
            MajorizationOrder.MAJORIZES: MajorizationOrder.MAJORIZED_BY,
            MajorizationOrder.EQUAL: MajorizationOrder.EQUAL,
            MajorizationOrder.INCOMPARABLE: MajorizationOrder.INCOMPARABLE,
        }
        assert backward is flipped[forward]


class TestTensorProduct:
    def test_dimension_and_sorting(self):
        p = make_distribution([0.7, 0.3])
        q = make_distribution([0.6, 0.4])
        t = tensor_product(p, q)
        assert t.dim == 4
        assert t.weights == pytest.approx((0.42, 0.28, 0.18, 0.12), abs=1e-15)

    def test_uniform_times_uniform(self):
        assert tensor_product(uniform(2), uniform(2)).exact == uniform(4).exact

    def test_commutes(self):
        p = make_distribution([0.5, 0.3, 0.2])
        q = make_distribution([0.9, 0.1])
        assert tensor_product(p, q).weights == tensor_product(q, p).weights

    def test_exact_when_both_exact(self):
        t = tensor_product(uniform(2), uniform(3))
        assert t.exact is not None
        assert sum(t.exact) == 1


class TestParsing:
    def test_decimals(self):
        assert parse_weights("0.5,0.3,0.1,0.1") == [0.5, 0.3, 0.1, 0.1]

    def test_rationals_reduce_to_float_by_default(self):
        assert parse_weights("1/2,1/2") == [0.5, 0.5]

    def test_exact_mode_keeps_fractions(self):
        ws = parse_weights("1/2,0.3,1/5", exact=True)
        assert ws == [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
        assert all(isinstance(w, Fraction) for w in ws)

    def test_exact_mode_reads_decimals_exactly(self):
        # 0.1 the float is not 1/10; 0.1 the literal, read exactly, is.
        assert parse_weights("0.1", exact=True) == [Fraction(1, 10)]

    @pytest.mark.parametrize("text", ["", "0.5,,0.5", "abc", "1/0", "0.5;0.5"])
    def test_malformed_rejected(self, text):
        with pytest.raises(VectorParseError):
            parse_weights(text)

    def test_parse_distribution_validates(self):
        with pytest.raises(SumOutOfToleranceError):
            parse_distribution("0.5,0.6")

    def test_parse_distribution_exact(self):
        d = parse_distribution("1/2,3/10,1/10,1/10", exact=True)
        assert d.exact is not None
        assert d.exact[0] == Fraction(1, 2)


class TestJsonWeights:
    def test_float_round_trip(self):
        d = make_distribution([0.5, 0.3, 0.2])
        back = make_distribution(d.weights_json())
        assert back.weights == d.weights

    def test_exact_round_trip(self):
        d = make_distribution([Fraction(2, 5), Fraction(2, 5), Fraction(1, 10), Fraction(1, 10)])
        payload = d.weights_json()
        assert payload == ["2/5", "2/5", "1/10", "1/10"]
        back = make_distribution([Fraction(w) for w in payload])
        assert back.exact == d.exact


@given(
    st.lists(
        st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=10,
    )
)
def test_normalized_vectors_are_valid(raw):
    d = make_distribution(raw, normalize=True)
    assert abs(sum(d.weights) - 1.0) <= SUM_TOL
    assert all(w >= 0 for w in d.weights)
    assert d.weights == tuple(sorted(d.weights, reverse=True))
    assert math.isfinite(d.weights[0])
