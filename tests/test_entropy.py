"""The entropy family: parameter plumbing, closed forms, limits, derivative.

Frozen numeric oracles here were computed by hand from the defining
formulas (power sums of small decimal vectors are exact decimal
arithmetic), so a regression in any branch shows up as a clean mismatch
rather than a tolerance fight.
"""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from majent import engine
from majent.entropy import (
    LN2,
    DegenerateParamsError,
    EntropyParams,
    IndexOutOfRangeError,
    ZeroWeightNegativeAlphaError,
    _argument,
    family_rows,
    g_alpha,
    h_alpha_beta,
    phi_beta,
    pseudo_additivity_residual,
    renyi,
    shannon,
    sharma_mittal,
    sharma_mittal_partial,
    tsallis,
)
from majent.lattice import bound_rows, join, meet
from majent.properties import _CHECKS, PropertyKind, oriented_sides, run_check
from majent.search import sample_simplex, trial_stream
from majent.simplex import make_distribution, tensor_product

P1 = make_distribution([0.5, 0.3, 0.1, 0.1])
Q1 = make_distribution([0.4, 0.4, 0.2, 0.0])
AT_2_3 = EntropyParams.make(2.0, 3.0)


def uniform(n):
    """The exact uniform distribution on ``n`` outcomes."""
    return make_distribution([Fraction(1, n)] * n)


def raw_family_value(weights, alpha, beta):
    """Direct textbook evaluation, no library code, for cross-checking."""
    a = sum(w**alpha for w in weights if w > 0)
    return (a ** ((1.0 - beta) / (1.0 - alpha)) - 1.0) / (1.0 - beta)


class TestEntropyParams:
    def test_make_finite(self):
        params = EntropyParams.make(2, 3)
        assert params.alpha_kind == "finite"
        assert params.beta_kind == "finite"
        assert (params.alpha, params.beta) == (2.0, 3.0)

    def test_make_routes_exact_ones(self):
        assert EntropyParams.make(1.0, 2.0).alpha_kind == "limit-1"
        assert EntropyParams.make(2.0, 1.0).beta_kind == "limit-1"
        both = EntropyParams.make(1, 1)
        assert both.alpha_kind == "limit-1"
        assert both.beta_kind == "limit-1"

    def test_make_is_not_a_window(self):
        # 1 - 1e-9 is a legitimate finite order, not a sloppy 1.
        params = EntropyParams.make(1 - 1e-9, 2.0)
        assert params.alpha_kind == "finite"

    def test_make_infinite_alpha(self):
        with pytest.raises(DegenerateParamsError):
            EntropyParams.make(math.inf, 2.0)

    def test_non_finite_finite_rejected(self):
        with pytest.raises(DegenerateParamsError):
            EntropyParams.make(math.nan, 2.0)
        with pytest.raises(DegenerateParamsError):
            EntropyParams.make(2.0, math.inf)
        with pytest.raises(DegenerateParamsError):
            EntropyParams.make(-math.inf, 2.0)
        # An int too large for a float is refused like inf, not with the
        # OverflowError of its conversion.
        with pytest.raises(DegenerateParamsError, match="alpha and beta must be finite"):
            EntropyParams(10**400, 1)
        # So is an order that is not a real number at all.
        for alpha, beta in ((None, 1.0), (2.0, "3"), (1j, 2.0), (np.array([1.0, 2.0]), 2.0)):
            with pytest.raises(DegenerateParamsError, match="alpha and beta must be finite"):
                EntropyParams(alpha, beta)

    def test_json_dict(self):
        assert EntropyParams.make(2, 1).to_json_dict() == {
            "alpha": 2.0,
            "beta": 1.0,
            "alpha_kind": "finite",
            "beta_kind": "limit-1",
        }


class TestPowerSums:
    def test_quadratic(self):
        assert g_alpha(uniform(4), 2) == pytest.approx(0.25, abs=1e-15)
        assert g_alpha(P1, 2) == pytest.approx(0.36, abs=1e-15)

    def test_order_zero_counts_support(self):
        assert g_alpha(Q1, 0) == 3.0
        assert g_alpha(uniform(5), 0) == 5.0

    def test_order_one_is_total_mass(self):
        assert g_alpha(P1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_negative_order_rejects_zero_weight(self):
        with pytest.raises(ZeroWeightNegativeAlphaError):
            g_alpha(Q1, -1)

    def test_negative_order_on_full_support(self):
        assert g_alpha(make_distribution([0.5, 0.5]), -1) == 4.0


class TestShannonRenyi:
    def test_point_mass(self):
        assert shannon(make_distribution([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_in_bits(self):
        assert shannon(uniform(8)) == 3.0
        assert shannon(uniform(3)) == pytest.approx(math.log2(3), abs=1e-15)

    def test_renyi_specializations(self):
        p = P1
        assert renyi(p, 1) == shannon(p)
        assert renyi(p, 0) == pytest.approx(2.0, abs=1e-15)  # log2 of support 4
        assert renyi(uniform(4), 2) == pytest.approx(2.0, abs=1e-15)
        assert renyi(p, math.inf) == pytest.approx(-math.log2(0.5), abs=1e-15)

    def test_renyi_rejects_negative_order(self):
        with pytest.raises(ValueError):
            renyi(P1, -0.5)

    def test_renyi_non_increasing_in_order(self):
        values = [renyi(P1, a) for a in (0, 0.5, 1, 2, 5, math.inf)]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-12


class TestTsallis:
    def test_domain(self):
        with pytest.raises(ValueError):
            tsallis(P1, 0)
        with pytest.raises(ValueError):
            tsallis(P1, -1)

    def test_order_one_is_scaled_shannon(self):
        assert tsallis(P1, 1) == LN2 * shannon(P1)

    def test_hand_values(self):
        assert tsallis(make_distribution([0.5, 0.5]), 2) == pytest.approx(0.5, abs=1e-15)
        assert tsallis(uniform(4), 2) == pytest.approx(0.75, abs=1e-15)

    def test_continuity_at_one(self):
        target = LN2 * shannon(P1)
        assert tsallis(P1, 1 + 1e-8) == pytest.approx(target, abs=1e-7)
        assert tsallis(P1, 1 - 1e-8) == pytest.approx(target, abs=1e-7)


class TestScalarMaps:
    def test_phi_at_one_is_linear(self):
        assert phi_beta(0.7, 1.0) == LN2 * 0.7

    def test_phi_hand_value(self):
        # (2^(-2) - 1) / (-2) at x = 1, beta = 3.
        assert phi_beta(1.0, 3.0) == pytest.approx(0.375, abs=1e-15)

    def test_phi_at_zero(self):
        assert phi_beta(0.0, 2.5) == 0.0

    def test_phi_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            phi_beta(-0.1, 2.0)
        with pytest.raises(ValueError, match="phi_beta is defined for x >= 0, got -1.0"):
            phi_beta(-1.0, 1.0)  # the beta = 1 map

    def test_phi_continuous_in_beta(self):
        assert phi_beta(1.5, 1 + 1e-10) == pytest.approx(LN2 * 1.5, abs=1e-9)

    def test_h_hand_values(self):
        assert h_alpha_beta(0.36, AT_2_3) == pytest.approx(0.4352, abs=1e-15)
        assert h_alpha_beta(0.30, AT_2_3) == pytest.approx(0.455, abs=1e-15)

    def test_h_fixes_one(self):
        assert h_alpha_beta(1.0, AT_2_3) == 0.0

    def test_h_rejects_non_positive(self):
        with pytest.raises(ValueError):
            h_alpha_beta(0.0, AT_2_3)

    def test_h_needs_finite_params(self):
        with pytest.raises(DegenerateParamsError):
            h_alpha_beta(0.5, EntropyParams.make(2.0, 1.0))


class TestFamilyDispatch:
    def test_finite_branch_reference_values(self):
        assert sharma_mittal(P1, AT_2_3) == pytest.approx(0.4352, abs=1e-12)
        assert sharma_mittal(Q1, AT_2_3) == pytest.approx(0.4352, abs=1e-12)

    def test_finite_branch_matches_raw_formula(self):
        params = EntropyParams.make(0.5, 2.5)
        assert sharma_mittal(P1, params) == pytest.approx(
            raw_family_value(P1.weights, 0.5, 2.5), rel=1e-13
        )

    def test_beta_one_is_scaled_renyi(self):
        params = EntropyParams.make(2.0, 1.0)
        assert sharma_mittal(P1, params) == pytest.approx(LN2 * renyi(P1, 2.0), rel=1e-14)

    def test_beta_one_extends_to_negative_orders(self):
        # ln(sum p^-1) / (1 - alpha) = ln(4) / 2 for the fair coin.
        params = EntropyParams.make(-1.0, 1.0)
        assert sharma_mittal(make_distribution([0.5, 0.5]), params) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_beta_alpha_is_tsallis(self):
        params = EntropyParams.make(2.0, 2.0)
        assert sharma_mittal(P1, params) == tsallis(P1, 2.0)

    def test_beta_alpha_at_negative_order(self):
        params = EntropyParams.make(-1.0, -1.0)
        assert sharma_mittal(make_distribution([0.5, 0.5]), params) == pytest.approx(
            1.5, abs=1e-15
        )

    def test_alpha_one_composes_with_shannon(self):
        params = EntropyParams.make(1.0, 3.0)
        assert sharma_mittal(uniform(2), params) == pytest.approx(0.375, abs=1e-15)
        assert sharma_mittal(P1, params) == pytest.approx(
            phi_beta(shannon(P1), 3.0), abs=1e-15
        )

    def test_double_limit_is_scaled_shannon(self):
        params = EntropyParams.make(1.0, 1.0)
        assert sharma_mittal(P1, params) == LN2 * shannon(P1)

    def test_infinite_alpha_rejected(self):
        with pytest.raises(DegenerateParamsError):
            sharma_mittal(P1, EntropyParams.make(math.inf, 2.0))

    def test_zero_weight_negative_order_rejected(self):
        with pytest.raises(ZeroWeightNegativeAlphaError):
            sharma_mittal(Q1, EntropyParams.make(-1.0, 0.0))

    def test_smooth_approach_to_beta_one(self):
        limit = sharma_mittal(P1, EntropyParams.make(2.0, 1.0))
        near = sharma_mittal(P1, EntropyParams.make(2.0, 1.0 + 1e-6))
        assert near == pytest.approx(limit, abs=1e-5)

    def test_uniform_maximizes_for_nonnegative_order(self):
        for alpha, beta in ((2.0, 3.0), (0.5, 2.0), (2.0, 0.5), (0.0, 2.0)):
            params = EntropyParams.make(alpha, beta)
            bound = sharma_mittal(uniform(4), params)
            for trial in range(25):
                p = sample_simplex(4, trial_stream(7, 0, trial))
                assert sharma_mittal(p, params) <= bound + 1e-9

    def test_nonnegative_for_nonnegative_order(self):
        for trial in range(25):
            p = sample_simplex(5, trial_stream(8, 0, trial))
            for alpha, beta in ((0.5, 0.5), (2.0, 3.0), (3.0, 0.0), (1.0, 2.0)):
                assert sharma_mittal(p, EntropyParams.make(alpha, beta)) >= 0.0


class TestPaddingBehavior:
    """Zero padding is where the two sign regimes of the order part ways.

    For non-negative orders the family value ignores padding entirely; for
    negative orders a padded vector leaves the domain.  Several downstream
    facts (which lattice inequalities can survive a change of dimension)
    hinge on exactly this asymmetry, so it is pinned here.
    """

    @pytest.mark.parametrize("alpha,beta", [(0.0, 2.0), (0.5, 0.5), (2.0, 3.0), (2.0, 1.0)])
    def test_nonnegative_orders_ignore_padding(self, alpha, beta):
        params = EntropyParams.make(alpha, beta)
        padded = make_distribution(P1.weights + (0.0,) * 3)
        assert sharma_mittal(padded, params) == sharma_mittal(P1, params)

    def test_negative_orders_reject_padding(self):
        fair = make_distribution([0.5, 0.5])
        params = EntropyParams.make(-1.0, 0.0)
        sharma_mittal(fair, params)  # fine unpadded
        with pytest.raises(ZeroWeightNegativeAlphaError):
            sharma_mittal(make_distribution([0.5, 0.5, 0.0, 0.0]), params)


class TestPartialDerivative:
    def test_against_finite_differences(self):
        delta = 1e-6
        for alpha, beta in ((2.0, 3.0), (0.5, 0.5), (3.0, 2.0), (-1.0, 0.5)):
            params = EntropyParams.make(alpha, beta)
            for trial in range(20):
                base = sample_simplex(4, trial_stream(11, 0, trial))
                ws = [0.9 * w + 0.1 / 4 for w in base.weights]  # keep interior
                p = make_distribution([w / sum(ws) for w in ws])
                for i in range(p.dim):
                    up = list(p.weights)
                    down = list(p.weights)
                    up[i] += delta
                    down[i] -= delta
                    fd = (
                        raw_family_value(up, alpha, beta)
                        - raw_family_value(down, alpha, beta)
                    ) / (2 * delta)
                    closed = sharma_mittal_partial(p, i, params)
                    assert closed == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_rejects_unsupported_orders(self):
        with pytest.raises(DegenerateParamsError):
            sharma_mittal_partial(P1, 0, EntropyParams.make(1.0, 2.0))
        with pytest.raises(DegenerateParamsError):
            sharma_mittal_partial(P1, 0, EntropyParams.make(0.0, 2.0))

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            sharma_mittal_partial(P1, 4, AT_2_3)
        with pytest.raises(IndexOutOfRangeError):
            sharma_mittal_partial(P1, -1, AT_2_3)

    def test_zero_weight_cases(self):
        assert sharma_mittal_partial(Q1, 3, AT_2_3) == 0.0
        with pytest.raises(ValueError):
            sharma_mittal_partial(Q1, 3, EntropyParams.make(0.5, 2.0))
        with pytest.raises(ZeroWeightNegativeAlphaError):
            sharma_mittal_partial(Q1, 3, EntropyParams.make(-1.0, 0.5))


class TestPseudoAdditivity:
    def test_fair_coin_product_is_exact(self):
        fair = make_distribution([0.5, 0.5])
        assert pseudo_additivity_residual(fair, fair, AT_2_3) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_plain_additivity_at_beta_one(self):
        params = EntropyParams.make(2.0, 1.0)
        r = pseudo_additivity_residual(P1, Q1, params)
        assert abs(r) <= 1e-12

    def test_cross_term_factor_uses_effective_beta(self):
        params = EntropyParams.make(2.0, 2.0)
        p = make_distribution([0.7, 0.3])
        sp = sharma_mittal(p, params)
        spq = sharma_mittal(tensor_product(p, p), params)
        assert spq == pytest.approx(2 * sp + (1 - 2.0) * sp * sp, abs=1e-12)

    def test_random_smoke(self):
        for trial in range(10):
            p = sample_simplex(3, trial_stream(13, 0, trial))
            q = sample_simplex(4, trial_stream(13, 1, trial))
            for alpha, beta in ((0.5, 2.0), (2.0, 0.5), (1.0, 2.0), (3.0, 1.0)):
                r = pseudo_additivity_residual(p, q, EntropyParams.make(alpha, beta))
                assert abs(r) <= 1e-12


def _term_by_term(p, alpha, beta):
    """The family in Python floats, one term at a time, smallest weight first."""
    if alpha == 1.0:
        x = 0.0
        for w in reversed(p.weights):
            if w > 0.0:
                x -= w * math.log2(w)
        return LN2 * x if beta == 1.0 else math.expm1((1.0 - beta) * x * LN2) / (1.0 - beta)
    power = 0.0
    for w in reversed(p.weights):
        if w > 0.0:
            power += w**alpha
    if beta == 1.0:
        return math.log(power) / (1.0 - alpha)
    return math.expm1((1.0 - beta) / (1.0 - alpha) * math.log(power)) / (1.0 - beta)


class TestRowKernelBits:
    """The row kernel keeps the C library's rounding, whatever the host's
    vector unit: every value equals a term-by-term evaluation bit for bit,
    alone and as one row of a batch with mixed parameters."""

    ALPHAS = (-2.5, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 7.3)
    BETAS = (-1.0, 0.5, 1.0, 3.0)

    def test_values_equal_a_term_by_term_evaluation(self):
        for n in (2, 3, 8, 33, 64):
            dists = [sample_simplex(n, trial_stream(11, n, t)) for t in range(40)]
            rows, alphas, betas, expected = [], [], [], []
            for p in dists:
                for alpha in self.ALPHAS:
                    for beta in self.BETAS:
                        ref = _term_by_term(p, alpha, beta)
                        assert sharma_mittal(p, EntropyParams.make(alpha, beta)) == ref
                        rows.append(p.weights)
                        alphas.append(alpha)
                        betas.append(beta)
                        expected.append(ref)
            values, failed = family_rows(
                np.array(rows), np.array(alphas), np.array(betas), np.full(len(rows), n)
            )
            assert failed.tolist() == [False] * len(rows)  # no sharma_mittal raised
            assert values.tolist() == expected

    def test_failing_rows_report_their_own_errors(self):
        # The kernel flags the rows; the scalar path raises their errors.
        rows = np.array([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0], [1.0, 0.0, 0.0], [0.5, 0.3, 0.2]])
        alphas = np.array([2.0, -1.0, 1.0, -1023.0])
        values, failed = family_rows(rows, alphas, np.array([3.0] * 4), np.full(4, 3))
        assert failed.tolist() == [False, True, False, True]
        with pytest.raises(ZeroWeightNegativeAlphaError):
            sharma_mittal(make_distribution(rows[1].tolist()), EntropyParams(-1.0, 3.0))
        with pytest.raises(OverflowError):
            sharma_mittal(make_distribution(rows[3].tolist()), EntropyParams(-1023.0, 3.0))
        assert math.isnan(values[1]) and math.isnan(values[3])
        assert values[0] == _term_by_term(make_distribution([0.5, 0.5, 0.0]), 2.0, 3.0)
        assert values[2] == 0.0

    def test_bulk_errors_equal_the_per_row_errors(self):
        # Each failure of the outer map, and a finite row whose expm1
        # argument lies in (709, 709.78], among ordinary rows: the bulk
        # pass must give each row the value bits of the scalar sharma_mittal,
        # whose outer map is _outer's, and flag exactly the rows it raises on.
        special = [
            ([0.5, 0.5, 0.0], 2000.0, 3.0),  # power sum underflows to 0
            ([0.5, 0.5, 0.0], 2000.0, 1.0),  # log(0): math domain error
            ([0.5, 0.5, 0.0], 2.0, -2000.0),  # expm1 overflows, h branch
            ([0.5, 0.5, 0.0], 1.0, -2000.0),  # expm1 overflows, phi branch
            ([0.5, 0.5, 0.0], 2.0, -1022.5),  # expm1(709.44), h branch
            ([0.5, 0.5, 0.0], 1.0, -1022.5),  # expm1(709.44), phi branch
            ([0.5, 0.3, 0.2], -1023.0, 3.0),  # power sum overflows
            ([0.5, 0.5, 0.0], -1.0, 2.0),  # zero weight at negative order
        ]
        ordinary = ((0.5, 2.0), (1.0, 1.0), (-1.5, 1.0), (1.0, 3.0), (2.0, -3.0), (-0.5, 0.5))
        cases = [
            (sample_simplex(3, trial_stream(12, 3, t)).weights, alpha, beta)
            for t in range(8)
            for alpha, beta in ordinary
        ]
        for i, case in enumerate(special * 2):
            cases.insert(4 * i + 1, case)
        rows, alphas, betas = (np.array(column) for column in zip(*cases))
        values, failed = family_rows(rows, alphas, betas, np.full(len(rows), 3))
        scalar = [
            _outcome(sharma_mittal, make_distribution(w), EntropyParams(a, b)) for w, a, b in cases
        ]
        assert [_kernel_outcome(values, failed, i) for i in range(len(cases))] == [
            _flagged(outcome) for outcome in scalar
        ]
        kinds = sorted(outcome[0].__name__ for outcome in scalar if isinstance(outcome, tuple))
        assert kinds == sorted(
            ["ValueError"] * 4 + ["OverflowError"] * 6 + ["ZeroWeightNegativeAlphaError"] * 2
        )
        finite = [i for i, b in enumerate(betas.tolist()) if b == -1022.5]
        assert len(finite) == 4 and all(1e305 < values[i] < math.inf for i in finite)


def _outcome(fn, *args):
    """The bits of ``fn(*args)``, a float or a distribution, or the type
    and message of what it raised."""
    try:
        value = fn(*args)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    return [w.hex() for w in value.weights] if hasattr(value, "weights") else value.hex()


def _flagged(outcome):
    """An :func:`_outcome` of the family value as the row kernel reports
    it: whether the evaluation raised, and the value bits, nan if it did."""
    return (True, "nan") if isinstance(outcome, tuple) else (False, outcome)


def _kernel_outcome(values, failed, i):
    """Row ``i`` of a :func:`family_rows` result, as :func:`_flagged` gives it."""
    return bool(failed[i]), values[i].hex()


# Weights that are zero, ordinary, or small enough that a negative order
# overflows their power.
_weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-3))


def _dists(n):
    """Float distributions of dimension ``n``, normalized from ``_weights``."""
    return st.lists(_weights, min_size=n, max_size=n).filter(lambda ws: sum(ws) > 0).map(
        lambda ws: make_distribution([w / sum(ws) for w in ws])
    )


_any_dists = st.integers(1, 12).flatmap(_dists)
# Orders up to 1e3 in size, the limit value 1 exactly and a few landmarks.
_orders = st.one_of(
    st.sampled_from([1.0, 0.0, 0.5, 2.0, -1.0, -300.0, 1000.0, -1000.0]),
    st.floats(-1e3, 1e3),
)


@st.composite
def _params(draw):
    alpha = draw(_orders)
    return EntropyParams.make(alpha, draw(st.one_of(_orders, st.just(alpha))))


@st.composite
def _pairs_of_one_dimension(draw):
    """(p, q) of one dimension, q equal to p now and then, which makes the
    margins of some checks exactly zero."""
    p = draw(st.integers(1, 12).flatmap(_dists))
    return p, draw(st.one_of(st.just(p), _dists(p.dim)))


class TestScalarPathBits:
    """The one-pair path in Python floats against the row kernels behind
    sweeps: for the same rows, whatever the rows evaluated with them, the
    same value bits, and a flag on exactly the rows where the scalar path
    raises.  A sweep's error is the scalar path's, type and message."""

    @given(_any_dists, _any_dists, _params())
    @example(make_distribution([0.999, 0.001]), make_distribution([1.0]), EntropyParams(-300.0, 2.0))
    @example(make_distribution([0.5, 0.5, 0.0]), make_distribution([1.0]), EntropyParams(-1.0, 1.0))
    def test_family_values_equal_the_row_kernel(self, p, q, params):
        n = max(p.dim, q.dim)
        rows = np.zeros((2, n))
        rows[0, : p.dim], rows[1, : q.dim] = p.weights, q.weights
        alphas, betas = np.full(2, params.alpha), np.full(2, params.beta)
        padded = family_rows(rows, alphas, betas, np.array([p.dim, q.dim]))
        for i, d in enumerate((p, q)):
            alone = family_rows(np.array([d.weights]), alphas[:1], betas[:1], np.array([d.dim]))
            want = _flagged(_outcome(sharma_mittal, d, params))
            assert want == _kernel_outcome(*alone, 0) == _kernel_outcome(*padded, i)
            # The arguments of the outer map: a power sum, at alpha = 1 too,
            # and the Shannon sum.
            row = np.array([d.weights])
            with np.errstate(all="ignore"):
                power, _ = _argument(row, np.array([params.alpha]), np.array([False]))
                shannon_sum, _ = _argument(row, np.array([1.0]), np.array([True]))
            if not isinstance(_outcome(g_alpha, d, params.alpha), tuple):
                assert g_alpha(d, params.alpha).hex() == power[0].hex()
            assert shannon(d).hex() == shannon_sum[0].hex()

    @given(_any_dists, _any_dists)
    @example(make_distribution([0.6, 0.4]), make_distribution([0.6, 0.4, 0.0]))
    @example(make_distribution([0.9, 0.1]), make_distribution([0.25] * 4))
    @example(*[make_distribution([0.499999999999975, 0.499999999999975, 4.99999999999975e-14])] * 2)
    # Ordered at the tested point, while the sums, at the untested end, are
    # ordered the other way.
    @example(make_distribution([0.5, 0.5]), make_distribution([0.6, 0.3999999999999999]))
    def test_float_meet_and_join_equal_the_row_kernel(self, p, q):
        # An ordered row is compared with its operands, zero-padded, and a
        # crossing one with the kernel's meet and join.  The rows carry two
        # zero columns past their dimension, as in a sweep's width class.
        n = max(p.dim, q.dim)
        pairs = np.zeros((2, 2, n + 2))
        pairs[0, 0, : p.dim], pairs[1, 0, : q.dim] = p.weights, q.weights
        pairs[0, 1, : q.dim], pairs[1, 1, : p.dim] = q.weights, p.weights
        order, meets, joins = bound_rows(pairs, [True, True], np.full(2, n))
        # The swapped row reads the swapped code, except that rows equal
        # bit for bit are their own meet and join and read 1 both ways.
        if pairs[0, 0].tolist() == pairs[1, 0].tolist():
            assert order.tolist() == [1, 1]
        else:
            assert order.tolist()[1] == (0, 2, 1)[order[0]]
        meets, joins = iter(meets.tolist()), iter(joins.tolist())
        for i, (a, b) in enumerate(((p, q), (q, p))):
            if order[i]:
                bounds = [list(pairs[order[i] - 1, i]), list(pairs[2 - order[i], i])]
            else:
                bounds = [next(meets), next(joins)]
            assert [bound[n:] for bound in bounds] == [[0.0, 0.0]] * 2
            assert _outcome(meet, a, b) == [w.hex() for w in bounds[0][:n]]
            assert _outcome(join, a, b) == [w.hex() for w in bounds[1][:n]]

    @given(_pairs_of_one_dimension(), _params(), st.sampled_from(PropertyKind))
    @example(
        (make_distribution([1.0]), make_distribution([1.0])),
        EntropyParams(-1.0, 2.0),
        PropertyKind.GENERALIZED_SUB_SUPER,
    )
    @example(
        (make_distribution([0.5, 0.5, 0.0]), make_distribution([0.5, 0.4999999, 1e-7])),
        EntropyParams(-50.0, 2.0),
        PropertyKind.SUBADDITIVE,
    )
    @example(  # q's curve is below: the meet takes S(q)
        (make_distribution([0.9, 0.1]), make_distribution([0.6, 0.4])),
        AT_2_3,
        PropertyKind.SUBADDITIVE,
    )
    def test_run_check_equals_the_engine_record(self, pair, params, kind):
        p, q = pair
        assert _check_outcome(run_check, kind, p, q, params) == _engine_outcome(kind, p, q, params)


def _check_outcome(fn, *args):
    """The JSON and the bits of lhs, rhs and margin of the record
    ``fn(*args)`` returns, or the type and message of what it raised."""
    try:
        record = fn(*args)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    sides = (record.lhs.hex(), record.rhs.hex(), record.margin.hex())
    return json.dumps(record.to_json_dict()), sides


def _engine_outcome(kind, p, q, params):
    """The sweep engine's evaluation of the pair (p, q), of one dimension,
    as :func:`_check_outcome` gives it: :func:`engine.evaluate` on the pair,
    zero-padded to its width class, with the lhs, rhs and margin that
    ``oriented_sides`` takes from its family values in ``run_check``'s
    record.  The row must be flagged exactly when ``run_check`` raises on
    the pair, and a failing row gives what ``run_check`` raised."""
    try:
        record, raised = run_check(kind, p, q, params), None
    except (ValueError, OverflowError) as err:
        record, raised = None, err
    width = -(-p.dim // engine.CLASS_WIDTH) * engine.CLASS_WIDTH
    pairs = np.zeros((2, 1, width))
    pairs[0, 0, : p.dim], pairs[1, 0, : q.dim] = p.weights, q.weights
    alpha, beta = np.array([params.alpha]), np.array([params.beta])
    joined = np.array([_CHECKS[kind][0]])
    values, failed = engine.evaluate(pairs, np.array([p.dim]), alpha, beta, joined)
    assert bool(failed[0]) == (raised is not None)
    if raised is not None:
        return type(raised), str(raised)
    with np.errstate(all="ignore"):
        lhs, rhs, margin = (float(v[0]) for v in oriented_sides(kind, alpha, beta, *values))
    return _check_outcome(lambda: record._replace(lhs=lhs, rhs=rhs, margin=margin))


_wide_dists = st.integers(13, 64).flatmap(_dists)


class TestRowSumBits:
    """``_argument`` sums its rows a column at a time, from the last column
    to the first.  On rows of up to 64 weights, zero-padded to the engine's
    widths 16, 32 and 64 among other rows, and with power sums and Shannon
    sums in one call, each sum has the bits of the scalar loop of
    ``g_alpha`` or ``shannon``."""

    @given(st.lists(st.one_of(_any_dists, _wide_dists), min_size=1, max_size=5), _orders)
    @example([make_distribution([1.0 / 64] * 64), make_distribution([0.5, 0.5])], 2.0)
    @example([make_distribution([0.5] + [0.5 / 31] * 31)], -1.0)
    def test_sums_equal_the_scalar_loops(self, dists, alpha):
        for width in (16, 32, 64):
            fit = [d for d in dists if d.dim <= width]
            k = len(fit)
            rows = np.zeros((2 * k, width))
            for row, d in zip(rows, fit * 2):
                row[: d.dim] = d.weights
            # The first k rows take the power sum, the last k the Shannon sum.
            logged = np.arange(2 * k) >= k
            with np.errstate(all="ignore"):
                sums, _ = _argument(rows, np.where(logged, 1.0, alpha), logged)
            for d, power, shannon_sum in zip(fit, sums[:k].tolist(), sums[k:].tolist()):
                want = _outcome(g_alpha, d, alpha)
                if not isinstance(want, tuple):  # unless g_alpha raises on the row
                    assert power.hex() == want
                assert shannon_sum.hex() == shannon(d).hex()
