"""Inequality checks: orientations, reference values, record plumbing.

The two fixed pairs below are the ones every report in this package keeps
coming back to: at (alpha, beta) = (2, 3) the first breaks supermodularity
by 4e-4 and the second breaks submodularity by 5.7e-3.
"""
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st, target

from majent.entropy import EntropyParams, ZeroWeightNegativeAlphaError, sharma_mittal
from majent.lattice import join, meet
from majent.properties import (
    CHECK_TOL,
    PropertyKind,
    run_check,
)
from majent.reference import REFERENCE_PAIRS
from majent.search import find_counterexample, sample_simplex, trial_stream
from majent.simplex import make_distribution

P1 = make_distribution([0.5, 0.3, 0.1, 0.1])
Q1 = make_distribution([0.4, 0.4, 0.2, 0.0])
P2 = make_distribution([0.5, 0.2, 0.2, 0.1])
Q2 = make_distribution([0.4, 0.4, 0.15, 0.05])
AT_2_3 = EntropyParams.make(2.0, 3.0)


class TestReferenceValues:
    def test_first_pair_breaks_supermodularity(self):
        rec = run_check(PropertyKind.SUPERMODULAR, P1, Q1, AT_2_3)
        assert rec.lhs == pytest.approx(0.8704, abs=1e-12)
        assert rec.rhs == pytest.approx(0.8700, abs=1e-12)
        assert rec.margin == pytest.approx(-0.0004, abs=1e-12)
        assert not rec.holds
        assert rec.verdict_label == "violated"
        assert rec.meet.weights == pytest.approx((0.4, 0.4, 0.1, 0.1), abs=1e-12)
        assert rec.join.weights == pytest.approx((0.5, 0.3, 0.2, 0.0), abs=1e-12)

    def test_second_pair_breaks_submodularity(self):
        rec = run_check(PropertyKind.SUBMODULAR, P2, Q2, AT_2_3)
        assert rec.lhs == pytest.approx(0.8826875, abs=1e-12)
        assert rec.rhs == pytest.approx(0.8883875, abs=1e-12)
        assert rec.margin == pytest.approx(-0.0057, abs=1e-12)
        assert not rec.holds

    def test_first_pair_still_subadditive(self):
        rec = run_check(PropertyKind.SUBADDITIVE, P1, Q1, AT_2_3)
        assert rec.lhs == pytest.approx(0.4422, abs=1e-12)
        assert rec.rhs == pytest.approx(0.8704, abs=1e-12)
        assert rec.holds and rec.verdict_label == "holds"

    def test_first_pair_generalized_bound(self):
        # rhs = 0.8704 - 2 * 0.4352^2 = 0.49160192, comfortably above the
        # meet entropy 0.4422.
        rec = run_check(PropertyKind.GENERALIZED_SUB_SUPER, P1, Q1, AT_2_3)
        assert rec.rhs == pytest.approx(0.49160192, abs=1e-12)
        assert rec.margin == pytest.approx(0.04940192, abs=1e-12)
        assert rec.holds


class TestOrientations:
    def test_subadditivity_margin_direction(self):
        rec = run_check(PropertyKind.SUBADDITIVE, P1, Q1, AT_2_3)
        assert rec.margin == rec.rhs - rec.lhs

    def test_superadditivity_margin_direction(self):
        rec = run_check(PropertyKind.SUPERADDITIVE, P1, Q1, AT_2_3)
        assert rec.margin == rec.lhs - rec.rhs

    def test_superadditive_self_pair_margin_is_minus_entropy(self):
        # meet(p, p) = p, so the oriented margin collapses to -S(p).  With a
        # negative order and full support S(p) > 0, so a self pair can never
        # satisfy this inequality; the margin documents the orientation.
        fair = make_distribution([0.5, 0.5])
        params = EntropyParams.make(-1.0, 0.0)
        rec = run_check(PropertyKind.SUPERADDITIVE, fair, fair, params)
        s = sharma_mittal(fair, params)
        assert rec.margin == pytest.approx(-s, abs=1e-12)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert not rec.holds

    def test_generalized_direction_flips_with_order_sign(self):
        fair = make_distribution([0.5, 0.5])
        neg = run_check(
            PropertyKind.GENERALIZED_SUB_SUPER, fair, fair, EntropyParams.make(-1.0, 0.0)
        )
        # lhs = S(p) = 1, rhs = 2 S(p) + S(p)^2 = 3; with the reversed
        # orientation for negative orders the margin is lhs - rhs = -2.
        assert neg.lhs == pytest.approx(1.0, abs=1e-12)
        assert neg.rhs == pytest.approx(3.0, abs=1e-12)
        assert neg.margin == pytest.approx(-2.0, abs=1e-12)
        pos = run_check(
            PropertyKind.GENERALIZED_SUB_SUPER, fair, fair, EntropyParams.make(2.0, 0.0)
        )
        assert pos.margin == pos.rhs - pos.lhs

    def test_modular_margins_are_exact_negations(self):
        a = run_check(PropertyKind.SUPERMODULAR, P2, Q2, AT_2_3)
        b = run_check(PropertyKind.SUBMODULAR, P2, Q2, AT_2_3)
        assert a.margin == -b.margin
        assert a.lhs == b.lhs and a.rhs == b.rhs


class TestToleranceDiscipline:
    def test_wide_tolerance_turns_violation_into_tight_hold(self):
        rec = run_check(PropertyKind.SUPERMODULAR, P1, Q1, AT_2_3, tolerance=0.1)
        assert rec.holds
        assert rec.verdict_label == "holds (tight)"
        assert rec.tolerance == 0.1

    def test_default_tolerance_exposed(self):
        rec = run_check(PropertyKind.SUPERMODULAR, P1, Q1, AT_2_3)
        assert rec.tolerance == CHECK_TOL

    def test_verdict_labels(self):
        violated = run_check(PropertyKind.SUPERMODULAR, P1, Q1, AT_2_3)
        holds = run_check(PropertyKind.SUBADDITIVE, P1, Q1, AT_2_3)
        assert violated.verdict_label == "violated"
        assert holds.verdict_label == "holds"


class TestRecords:
    def test_lhs_rhs_recompute_bit_for_bit(self):
        rec = run_check(PropertyKind.SUPERMODULAR, P1, Q1, AT_2_3)
        lhs = sharma_mittal(rec.p, rec.params) + sharma_mittal(rec.q, rec.params)
        rhs = sharma_mittal(meet(rec.p, rec.q), rec.params) + sharma_mittal(
            join(rec.p, rec.q), rec.params
        )
        assert lhs == rec.lhs
        assert rhs == rec.rhs

    def test_join_only_on_modular_checks(self):
        assert run_check(PropertyKind.SUBADDITIVE, P1, Q1, AT_2_3).join is None
        assert run_check(PropertyKind.GENERALIZED_SUB_SUPER, P1, Q1, AT_2_3).join is None
        assert run_check(PropertyKind.SUPERMODULAR, P1, Q1, AT_2_3).join is not None

    def test_json_shape(self):
        data = run_check(PropertyKind.SUPERMODULAR, P1, Q1, AT_2_3).to_json_dict()
        assert data["kind"] == "supermodular"
        assert data["holds"] is False
        assert data["verdict"] == "violated"
        assert data["p"] == list(P1.weights)
        assert data["params"]["alpha"] == 2.0
        assert set(data) == {
            "kind", "params", "p", "q", "meet", "join",
            "lhs", "rhs", "margin", "holds", "verdict", "tolerance",
        }

    def test_kind_enumeration_is_closed(self):
        assert {k.value for k in PropertyKind} == {
            "subadditive", "superadditive", "generalized", "supermodular", "submodular",
        }

    def test_run_check_dispatch(self):
        for kind in PropertyKind:
            rec = run_check(kind, P1, Q1, AT_2_3)
            assert rec.kind is kind

    def test_zero_weight_negative_order_propagates(self):
        with pytest.raises(ZeroWeightNegativeAlphaError):
            run_check(PropertyKind.SUBADDITIVE, P1, Q1, EntropyParams.make(-1.0, 0.5))


class TestRandomPairConsistency:
    def test_margin_identities_on_sampled_pairs(self):
        params = EntropyParams.make(2.0, 3.0)
        for trial in range(40):
            stream = trial_stream(17, 0, trial)
            p = sample_simplex(4, stream)
            q = sample_simplex(4, stream)
            sub = run_check(PropertyKind.SUBADDITIVE, p, q, params)
            gen = run_check(PropertyKind.GENERALIZED_SUB_SUPER, p, q, params)
            sup = run_check(PropertyKind.SUPERMODULAR, p, q, params)
            dual = run_check(PropertyKind.SUBMODULAR, p, q, params)
            sp = sharma_mittal(p, params)
            sq = sharma_mittal(q, params)
            assert sub.rhs == sp + sq
            assert gen.rhs == pytest.approx(
                sp + sq + (1 - params.beta) * sp * sq, rel=1e-14, abs=1e-14
            )
            assert sup.margin == -dual.margin
            # The generalized bound is never looser than plain subadditivity
            # when the cross term is negative (beta > 1).
            assert gen.rhs <= sub.rhs + 1e-14

    @pytest.mark.parametrize("alpha, beta", [(2, 3), (-1, 2), (1, 3), (3, 1), (1, 1), (0, 2)])
    def test_int_valued_params_match_float_params(self, alpha, beta):
        ints, floats = EntropyParams(alpha, beta), EntropyParams.make(alpha, beta)
        for trial in range(5):
            stream = trial_stream(17, 1, trial)
            p, q = sample_simplex(4, stream), sample_simplex(4, stream)
            assert sharma_mittal(p, ints) == sharma_mittal(p, floats)
            for kind in PropertyKind:
                a, b = run_check(kind, p, q, ints), run_check(kind, p, q, floats)
                assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        a, b = (find_counterexample(PropertyKind.SUBMODULAR, prm, 3, 20, seed=5) for prm in (ints, floats))
        assert (a and (a.trial_index, a.check.margin)) == (b and (b.trial_index, b.check.margin))
        if alpha < 0:
            with pytest.raises(ZeroWeightNegativeAlphaError, match="alpha = -1.0"):
                run_check(PropertyKind.SUBADDITIVE, P1, Q1, ints)


@st.composite
def log_uniform_pairs(draw):
    """(p, q) of one dimension, 3 to 8, with weights 10^x, x in [-40, 0],
    normalized by float division: sparse pairs of every spread."""
    n = draw(st.integers(3, 8))
    weights = st.lists(st.floats(-40.0, 0.0).map(lambda x: 10.0**x), min_size=n, max_size=n)
    return tuple(make_distribution([w / sum(ws) for w in ws]) for ws in (draw(weights), draw(weights)))


class TestTargetedProvenRegions:
    """Hypothesis steered toward low margins (``target``) in a region where
    the inequality is proven: no margin may fall below ``-CHECK_TOL``."""

    @pytest.mark.xfail(
        reason="a crossing pair takes differences of curves near 1, which lose "
        "the relative precision of small weights (ROADMAP item 4)",
        strict=True,
    )
    @settings(max_examples=2000)
    @given(log_uniform_pairs())
    # The exact bounds of the Fraction-normalized pair give margin +1.3e-8;
    # the float bounds give -1.1e-7.
    @example((make_distribution([0.499999999999975, 0.499999999999975, 4.99999999999975e-14]),
              make_distribution([0.9090909008264463, 0.09090909008264464, 9.090909008264463e-09])))
    def test_supermodular_at_a_quarter(self, pair):
        margin = run_check(PropertyKind.SUPERMODULAR, *pair, EntropyParams(0.25, 0.25)).margin
        target(-margin)
        assert margin >= -CHECK_TOL


class TestExactInputs:
    @pytest.mark.parametrize("kind", list(PropertyKind))
    @pytest.mark.parametrize("alpha, beta", [(2.0, 3.0), (0.5, 1.0), (1.0, 2.0)])
    def test_exact_pair_checks_as_its_float_weights(self, kind, alpha, beta):
        # A check runs in floats whatever its inputs carry, so only the
        # exact copies of p and q set the two records apart.
        p = make_distribution([Fraction(1, 2), Fraction(3, 10), Fraction(1, 10), Fraction(1, 10)])
        q = make_distribution([Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)])
        fp, fq = make_distribution(p.weights), make_distribution(q.weights)
        params = EntropyParams.make(alpha, beta)
        exact, floats = run_check(kind, p, q, params), run_check(kind, fp, fq, params)
        assert exact._replace(p=fp, q=fq) == floats
        assert exact.to_json_dict() == floats.to_json_dict()


class TestFrozenChecks:
    """Check records on a fixed grid against a sha256 digest recorded when
    ``run_check`` still had its own family evaluation and record
    constructor.  ``TestBatchedEngine`` compares the engine with
    ``run_check``, which now share their kernels and record builder, so it
    cannot see a bit that moves in both; this digest can.  A failing check
    is recorded as its error's type name."""

    GRID = [(2, 3), (0.5, 1), (1, 1), (1, 2), (2, 1), (-1, 0.5), (0, 5),
            (0.999999, -1), (2, 2), (-2, 1.5)]

    def test_records_are_frozen(self):
        pairs = [(ref.p, ref.q) for ref in REFERENCE_PAIRS]
        pairs.append((make_distribution([0.5, 0.5]), make_distribution([0.4, 0.3, 0.3])))
        for n in (2, 7, 9, 17, 64):
            stream = trial_stream(21, n, 0)
            pairs.append((sample_simplex(n, stream), sample_simplex(n, stream)))
        out = []
        for kind in PropertyKind:
            for alpha, beta in self.GRID:
                params = EntropyParams.make(alpha, beta)
                for p, q in pairs:
                    try:
                        out.append(run_check(kind, p, q, params).to_json_dict())
                    except (ValueError, OverflowError) as err:
                        out.append(type(err).__name__)
        assert (len(out), sum(isinstance(x, str) for x in out)) == (400, 14)
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
        assert digest == "f52a118af9ca7d168bf3dcedb468a3730922a68751573a5e4cc26fddd7cb57e0"
