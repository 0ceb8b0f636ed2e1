"""The entropy family: parameter plumbing, closed forms, limits, derivative.

Frozen numeric oracles here were computed by hand from the defining
formulas (power sums of small decimal vectors are exact decimal
arithmetic), so a regression in any branch shows up as a clean mismatch
rather than a tolerance fight.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from majent.entropy import (
    LN2,
    DegenerateParamsError,
    EntropyParams,
    IndexOutOfRangeError,
    ZeroWeightNegativeAlphaError,
    _BULK_ROWS,
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
            values, errors = family_rows(np.array(rows), np.array(alphas), np.array(betas))
            assert errors == {}
            assert values.tolist() == expected

    def test_failing_rows_report_their_own_errors(self):
        rows = np.array([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0], [1.0, 0.0, 0.0], [0.5, 0.3, 0.2]])
        values, errors = family_rows(rows, np.array([2.0, -1.0, 1.0, -1023.0]), np.array([3.0] * 4))
        assert sorted(errors) == [1, 3]
        assert isinstance(errors[1], ZeroWeightNegativeAlphaError)
        assert isinstance(errors[3], OverflowError)
        assert math.isnan(values[1]) and math.isnan(values[3])
        assert values[0] == _term_by_term(make_distribution([0.5, 0.5, 0.0]), 2.0, 3.0)
        assert values[2] == 0.0

    def test_bulk_errors_equal_the_per_row_errors(self):
        # Each failure of the outer map, and a finite row whose expm1
        # argument lies in (709, 709.78], among ordinary rows: a call with
        # at least _BULK_ROWS rows must give each row the value bits, error
        # type and message of the same row evaluated alone.
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
        assert len(rows) >= _BULK_ROWS
        values, errors = family_rows(rows, alphas, betas)
        alone = [
            family_rows(rows[i : i + 1], alphas[i : i + 1], betas[i : i + 1])
            for i in range(len(rows))
        ]
        assert values.view(np.uint64).tolist() == [v.view(np.uint64)[0] for v, _ in alone]
        assert {i: (type(e), str(e)) for i, e in errors.items()} == {
            i: (type(e[0]), str(e[0])) for i, (_, e) in enumerate(alone) if e
        }
        kinds = sorted(type(e).__name__ for e in errors.values())
        assert kinds == sorted(
            ["ValueError"] * 4 + ["OverflowError"] * 6 + ["ZeroWeightNegativeAlphaError"] * 2
        )
        finite = [i for i, b in enumerate(betas.tolist()) if b == -1022.5]
        assert len(finite) == 4 and all(1e305 < values[i] < math.inf for i in finite)
