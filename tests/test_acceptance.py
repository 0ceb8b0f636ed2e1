"""Acceptance gate: the numerical promises this package is held to.

One test per promise, so ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line each.  Tolerances are pinned here on purpose; loosening one
to get a green bar defeats the point of the gate.

test_c5 pins a refutation.  It samples the region the guarantee table
marks superadditive (order < 0, degree <= 1) and asserts that the claim
fails on every sampled pair, by the proven amount: the meet is majorized by
both arguments and the family is strictly Schur-convex at negative order,
so S(p meet q) <= min(S(p), S(q)), and with S > 0 on full-support pairs the
margin S(p meet q) - S(p) - S(q) is at most -max(S(p), S(q)).  See README
for the full story.  Deleting or weakening that test would hide a real
finding.
"""
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from majent.entropy import (
    EntropyParams,
    h_alpha_beta,
    phi_beta,
    pseudo_additivity_residual,
    renyi,
    sharma_mittal,
    sharma_mittal_partial,
    tsallis,
)
from majent.lattice import join, meet
from majent.properties import PropertyKind, run_check
from majent.search import DEFAULT_SEED, sample_simplex, trial_pair, trial_stream
from majent.simplex import MajorizationOrder, compare, make_distribution

SEED = DEFAULT_SEED
DIMS = (2, 3, 4, 5, 6, 7, 8)

PAIR_1 = (
    make_distribution([0.5, 0.3, 0.1, 0.1]),
    make_distribution([0.4, 0.4, 0.2, 0.0]),
)
PAIR_2 = (
    make_distribution([0.5, 0.2, 0.2, 0.1]),
    make_distribution([0.4, 0.4, 0.15, 0.05]),
)
AT_2_3 = EntropyParams.make(2.0, 3.0)


@dataclass
class CellOutcome:
    alpha: float
    beta: float
    trials: int
    violations: int
    worst_margin: float
    first_example: tuple | None


def run_region(kind, points, trials, *, cell_base, tolerance=1e-9):
    """Sample `trials` pairs per parameter point and tally check outcomes.

    Dimensions cycle through 2..8.  Every trial is reconstructible from
    (SEED, cell, trial), which the first failing example reports: its pair
    is the one two ``sample_simplex`` calls draw from
    ``trial_stream(SEED, cell, trial)``, which ``trial_pair`` draws on one
    reused generator.
    """
    gen = np.random.Generator(np.random.Philox(key=0))
    outcomes = []
    for offset, (alpha, beta) in enumerate(points):
        cell = cell_base + offset
        params = EntropyParams.make(alpha, beta)
        worst = math.inf
        violations = 0
        first = None
        for trial in range(trials):
            p, q = trial_pair(gen, SEED, cell, trial, DIMS[trial % len(DIMS)])
            record = run_check(kind, p, q, params, tolerance=tolerance)
            if record.margin < worst:
                worst = record.margin
            if not record.holds:
                violations += 1
                if first is None:
                    first = (cell, trial, record)
        outcomes.append(CellOutcome(alpha, beta, trials, violations, worst, first))
    return outcomes


def describe_cells(outcomes):
    lines = []
    for o in outcomes:
        lines.append(
            f"  alpha={o.alpha:+g} beta={o.beta:+g}: "
            f"{o.violations}/{o.trials} violated, worst margin {o.worst_margin:.9f}"
        )
    return "\n".join(lines)


def test_c1_supermodularity_counterexample_values_and_speed():
    """First reference pair at (2, 3): four family values to 1e-12, margin -0.0004, evaluated in under a millisecond."""
    p, q = PAIR_1
    record = run_check(PropertyKind.SUPERMODULAR, p, q, AT_2_3)
    assert sharma_mittal(p, AT_2_3) == pytest.approx(0.4352, abs=1e-12)
    assert sharma_mittal(q, AT_2_3) == pytest.approx(0.4352, abs=1e-12)
    assert sharma_mittal(meet(p, q), AT_2_3) == pytest.approx(0.4422, abs=1e-12)
    assert sharma_mittal(join(p, q), AT_2_3) == pytest.approx(0.4278, abs=1e-12)
    assert record.margin == pytest.approx(-0.0004, abs=1e-12)
    assert not record.holds
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        run_check(PropertyKind.SUPERMODULAR, p, q, AT_2_3)
        timings.append(time.perf_counter() - start)
    assert min(timings) < 1e-3


def test_c2_submodularity_counterexample_values_and_vectors():
    """Second reference pair at (2, 3): family values to 1e-12 plus the lattice vectors entrywise."""
    p, q = PAIR_2
    record = run_check(PropertyKind.SUBMODULAR, p, q, AT_2_3)
    assert sharma_mittal(p, AT_2_3) == pytest.approx(0.4422, abs=1e-12)
    assert sharma_mittal(q, AT_2_3) == pytest.approx(0.4404875, abs=1e-12)
    assert sharma_mittal(record.meet, AT_2_3) == pytest.approx(0.455, abs=1e-12)
    assert sharma_mittal(record.join, AT_2_3) == pytest.approx(0.4333875, abs=1e-12)
    assert record.meet.weights == pytest.approx((0.4, 0.3, 0.2, 0.1), abs=1e-12)
    assert record.join.weights == pytest.approx((0.5, 0.3, 0.15, 0.05), abs=1e-12)
    assert record.margin == pytest.approx(-0.0057, abs=1e-12)
    assert not record.holds


def test_c3_subadditive_region_sweep_is_clean():
    """15 nonnegative-order cells, 10^4 pairs each, zero subadditivity violations at 1e-9, under 60 seconds."""
    points = [(a, b) for a in (0.0, 0.5, 1.0, 2.0, 5.0) for b in (1.0, 2.0, 5.0)]
    start = time.perf_counter()
    outcomes = run_region(PropertyKind.SUBADDITIVE, points, 10_000, cell_base=300)
    elapsed = time.perf_counter() - start
    bad = [o for o in outcomes if o.violations]
    assert not bad, "subadditivity violated:\n" + describe_cells(bad)
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_c4_supermodular_region_sweep_is_clean():
    """19 cells with degree at most the order, 10^4 pairs each, zero supermodularity violations at 1e-9."""
    points = []
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        for b in (a, a - 0.5, 0.0, -1.0):
            if (a, b) not in points:
                points.append((a, b))
    assert len(points) == 19
    outcomes = run_region(PropertyKind.SUPERMODULAR, points, 10_000, cell_base=400)
    bad = [o for o in outcomes if o.violations]
    assert not bad, "supermodularity violated:\n" + describe_cells(bad)


def test_c5_superadditive_region_sampling():
    """Nine negative-order cells, 10^4 full-support pairs each: superadditivity fails at 1e-9 on every pair, with S(p meet q) <= min(S(p), S(q))."""
    points = [(a, b) for a in (-0.5, -1.0, -2.0) for b in (1.0, 0.0, -1.0)]
    gen = np.random.Generator(np.random.Philox(key=0))
    offending = []
    first = None
    for offset, (alpha, beta) in enumerate(points):
        cell = 500 + offset
        params = EntropyParams.make(alpha, beta)
        count = 0
        for trial in range(10_000):
            p, q = trial_pair(gen, SEED, cell, trial, DIMS[trial % len(DIMS)])
            rec = run_check(PropertyKind.SUPERADDITIVE, p, q, params, tolerance=1e-9)
            sp = sharma_mittal(p, params)
            sq = sharma_mittal(q, params)
            finite = all(math.isfinite(v) for v in (rec.lhs, rec.rhs, rec.margin))
            # Schur bound, in a window relative to the values compared.
            bounded = rec.lhs <= min(sp, sq) + 1e-9 * max(1.0, sp, sq)
            if rec.holds or not finite or not bounded:
                count += 1
                if first is None:
                    first = (cell, trial, rec, sp, sq)
        if count:
            offending.append(f"  alpha={alpha:+g} beta={beta:+g}: {count}/10000 pairs")
    if first is not None:
        cell, trial, rec, sp, sq = first
        lines = [
            "superadditivity at negative order is refuted by the Schur bound",
            "S(p meet q) <= min(S(p), S(q)), so every pair must violate it by at",
            "least max(S(p), S(q)); these pairs do not:",
            *offending,
            f"  replay: seed={SEED} cell={cell} trial={trial}",
            f"    p = {rec.p.weights}",
            f"    q = {rec.q.weights}",
            f"    S(p meet q) = {rec.lhs!r}, S(p) = {sp!r}, S(q) = {sq!r}",
            f"    margin = {rec.margin!r}, holds = {rec.holds}",
        ]
        pytest.fail("\n".join(lines), pytrace=False)


def test_c6_pseudo_additivity_residuals_stay_small():
    """|S(pq) - S(p) - S(q) - (1-beta) S(p) S(q)| <= 1e-10 over 10^3 pairs at 20 parameter points."""
    points = [
        (0.0, 0.5), (0.0, 1.0), (0.0, 2.0),
        (0.5, 0.5), (0.5, 1.0), (0.5, 2.0),
        (1.0, 0.5), (1.0, 1.0), (1.0, 2.0),
        (2.0, 0.0), (2.0, 1.0), (2.0, 2.0), (2.0, 3.0), (3.0, 2.0),
        (-0.5, 0.5), (-0.5, 1.0), (-1.0, 0.5), (-1.0, 1.0),
        (-2.0, 0.75), (-2.0, 1.0),
    ]
    assert len(points) == 20
    pairs = []
    for trial in range(1_000):
        stream = trial_stream(SEED, 600, trial)
        pairs.append((sample_simplex(3, stream), sample_simplex(4, stream)))
    worst = 0.0
    for alpha, beta in points:
        params = EntropyParams.make(alpha, beta)
        for p, q in pairs:
            worst = max(worst, abs(pseudo_additivity_residual(p, q, params)))
    assert worst <= 1e-10, f"worst residual {worst:.3e}"


def all_sorted_twelfth_numerators(total, slots, cap):
    """Nonincreasing tuples of `slots` integers in [0, cap] summing to total."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total), -1, -1):
        if first * slots < total:
            break
        for rest in all_sorted_twelfth_numerators(total - first, slots - 1, first):
            yield (first,) + rest


def test_c7_exhaustive_lattice_extremality_on_a_rational_grid():
    """Every pair from the full denominator-12 grid in dimension 4: meet is the greatest lower bound, join the least upper bound, under 5 minutes."""
    start = time.perf_counter()
    members = list(all_sorted_twelfth_numerators(12, 4, 12))
    assert len(members) == 34
    dists = [make_distribution([Fraction(k, 12) for k in m]) for m in members]
    index = {d.exact: i for i, d in enumerate(dists)}

    def leq(a, b):
        return compare(a, b) in (MajorizationOrder.MAJORIZED_BY, MajorizationOrder.EQUAL)

    below = [[leq(a, b) for b in dists] for a in dists]
    for i, p in enumerate(dists):
        for j in range(i, len(dists)):
            q = dists[j]
            m = meet(p, q)
            mi = index.get(m.exact)
            assert mi is not None, f"meet left the grid: {members[i]} {members[j]}"
            assert below[mi][i] and below[mi][j]
            jn = join(p, q)
            assert leq(p, jn) and leq(q, jn)
            for k in range(len(dists)):
                if below[k][i] and below[k][j]:
                    assert below[k][mi], f"lower bound above meet: {members[k]}"
                if below[i][k] and below[j][k]:
                    assert leq(jn, dists[k]), f"upper bound below join: {members[k]}"
    assert time.perf_counter() - start < 300.0


def test_c8_composition_identities_and_limit_convergence():
    """Family values factor through the one-parameter entropies to 1e-12 on 10^3 inputs; the degree-to-1 limits converge monotonically from both sides."""
    inputs = [
        sample_simplex(2 + (trial % 5), trial_stream(SEED, 800, trial))
        for trial in range(1_000)
    ]
    worst = 0.0
    for alpha in (0.5, 2.0, 3.0):
        for beta in (0.5, 2.0, 3.0):
            params = EntropyParams.make(alpha, beta)
            for p in inputs:
                value = sharma_mittal(p, params)
                via_renyi = phi_beta(renyi(p, alpha), beta)
                via_tsallis = h_alpha_beta(
                    1.0 + (1.0 - alpha) * tsallis(p, alpha), params
                )
                worst = max(worst, abs(value - via_renyi), abs(value - via_tsallis))
    assert worst <= 1e-12, f"worst identity gap {worst:.3e}"

    probe = make_distribution([0.4, 0.35, 0.25])
    for alpha in (0.5, 2.0, -1.0):
        limit = sharma_mittal(probe, EntropyParams.make(alpha, 1.0))
        for side in (1.0, -1.0):
            gaps = []
            for k in range(3, 9):
                params = EntropyParams.make(alpha, 1.0 + side * 10.0 ** -k)
                gaps.append(abs(sharma_mittal(probe, params) - limit))
            assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), (
                alpha, side, gaps,
            )


def test_c9_closed_form_partials_match_finite_differences():
    """Partials agree with central differences to 1e-6 relative and carry the Schur sign pattern, 10^3 interior points per order cell."""

    def raw_value(weights, alpha, beta):
        a = sum(w ** alpha for w in weights)
        return (a ** ((1.0 - beta) / (1.0 - alpha)) - 1.0) / (1.0 - beta)

    delta = 1e-6
    cells = ((0.5, 2.0), (2.0, 0.5), (3.0, 2.0), (-0.5, 0.5), (-1.0, 2.0), (-2.0, 0.5))
    for offset, (alpha, beta) in enumerate(cells):
        params = EntropyParams.make(alpha, beta)
        for trial in range(1_000):
            raw = sample_simplex(4, trial_stream(SEED, 900 + offset, trial))
            # Mix toward uniform so every coordinate stays well inside (0, 1).
            mixed = make_distribution([0.9 * w + 0.025 for w in raw.weights])
            partials = [sharma_mittal_partial(mixed, i, params) for i in range(4)]
            for i in range(4):
                bumped = list(mixed.weights)
                bumped[i] += delta
                up = raw_value(bumped, alpha, beta)
                bumped[i] -= 2 * delta
                down = raw_value(bumped, alpha, beta)
                estimate = (up - down) / (2 * delta)
                assert abs(partials[i] - estimate) <= 1e-6 * max(1.0, abs(partials[i]))
            for i in range(4):
                for j in range(i + 1, 4):
                    paired = (mixed.weights[i] - mixed.weights[j]) * (
                        partials[i] - partials[j]
                    )
                    if alpha < 0:
                        assert paired >= -1e-12
                    else:
                        assert paired <= 1e-12
