"""Inequality checks between entropies of pairs and their lattice bounds.

One table-driven function, :func:`run_check`, evaluates all five kinds: the
table says per kind whether the join is needed and which way the
inequality points.  Every check is oriented so that a positive margin
means it holds with room to spare.  A violation is only reported when the
margin drops below ``-CHECK_TOL``; margins inside the window count as a
tight hold, so rounding noise cannot masquerade as a counterexample.  The
checks never refuse a parameter region: outside the guaranteed regions they
simply report whatever the numbers say.  A check runs in Python floats;
:mod:`majent.lattice` and :mod:`majent.entropy` are imported where it
evaluates, so the kinds and the tolerance read without them, and only the
sweep engine's array branch of :func:`oriented_sides` imports numpy.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .simplex import ProbabilityDistribution

if TYPE_CHECKING:
    from .entropy import EntropyParams

#: Margin below which a check counts as violated.
CHECK_TOL = 1e-9

#: :mod:`majent.entropy` and :mod:`majent.lattice`, bound by the first :func:`run_check`.
_entropy = _lattice = None


def json_float(value: float) -> float | None:
    """``value`` for a JSON payload: None when it is nan or infinite, which
    JSON cannot spell."""
    return value if math.isfinite(value) else None


class PropertyKind(Enum):
    SUBADDITIVE = "subadditive"
    SUPERADDITIVE = "superadditive"
    GENERALIZED_SUB_SUPER = "generalized"
    SUPERMODULAR = "supermodular"
    SUBMODULAR = "submodular"


class PropertyCheckRecord(NamedTuple):
    """Outcome of a single inequality check.

    ``margin = rhs - lhs`` oriented so that ``margin >= 0`` is the asserted
    direction; ``holds`` allows the ``tolerance`` window.  ``meet`` is always
    present, ``join`` only for the modular checks.
    """

    kind: PropertyKind
    p: ProbabilityDistribution
    q: ProbabilityDistribution
    params: EntropyParams
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    meet: ProbabilityDistribution
    join: ProbabilityDistribution | None = None

    @property
    def holds(self) -> bool:
        return self.margin >= -self.tolerance  # False for a nan margin

    @property
    def verdict_label(self) -> str:
        if not self.holds:
            return "violated"
        if self.margin < self.tolerance:
            return "holds (tight)"
        return "holds"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "params": self.params.to_json_dict(),
            "p": list(self.p.weights),
            "q": list(self.q.weights),
            "meet": list(self.meet.weights),
            "join": list(self.join.weights) if self.join is not None else None,
            "lhs": json_float(self.lhs),
            "rhs": json_float(self.rhs),
            "margin": json_float(self.margin),
            "holds": self.holds,
            "verdict": self.verdict_label,
            "tolerance": self.tolerance,
        }


#: kind -> (needs the join, orientation).  Orientation +1 asserts
#: lhs <= rhs (margin rhs - lhs), -1 asserts lhs >= rhs (margin lhs - rhs)
#: and 0 follows the sign of alpha: the generalized bound caps the meet
#: entropy at alpha >= 0 and floors it below zero.
_CHECKS = {
    PropertyKind.SUBADDITIVE: (False, 1),
    PropertyKind.SUPERADDITIVE: (False, -1),
    PropertyKind.GENERALIZED_SUB_SUPER: (False, 0),
    PropertyKind.SUPERMODULAR: (True, 1),
    PropertyKind.SUBMODULAR: (True, -1),
}


def oriented_sides(kind: PropertyKind, alpha, beta, sp, sq, sm, sj):
    """(lhs, rhs, margin) of check ``kind`` from the four family values.

    Works on single floats, as :func:`run_check` gives them, and elementwise
    on the sweep engine's arrays of rows (``sj`` is unused by the meet-only
    kinds).  A margin is ``rhs - lhs`` or ``lhs - rhs``, never a negation,
    so equal sides give +0.0 in either orientation.
    """
    needs_join, orientation = _CHECKS[kind]
    if needs_join:
        lhs, rhs = sp + sq, sm + sj
    elif orientation == 0:
        lhs, rhs = sm, sp + sq + (1.0 - beta) * sp * sq
        if isinstance(alpha, float):
            return lhs, rhs, rhs - lhs if alpha >= 0.0 else lhs - rhs
        import numpy as np

        return lhs, rhs, np.where(alpha >= 0.0, rhs - lhs, lhs - rhs)
    else:
        lhs, rhs = sm, sp + sq
    return lhs, rhs, rhs - lhs if orientation > 0 else lhs - rhs


def run_check(
    kind: PropertyKind,
    p: ProbabilityDistribution,
    q: ProbabilityDistribution,
    params: EntropyParams,
    *,
    tolerance: float = CHECK_TOL,
) -> PropertyCheckRecord:
    """Evaluate the inequality ``kind`` on the pair (p, q) at ``params``.

    The modular kinds compare S(p) + S(q) (lhs) with S(p meet q) +
    S(p join q) (rhs); the others compare S(p meet q) (lhs) with
    S(p) + S(q), plus the cross term (1 - beta) S(p) S(q) for the
    generalized kind (rhs).  The check runs in Python floats, on the float
    weights of p and q even when both are exact, and the first family value
    to fail, in the order of the sides, raises.  A sweep row of the same
    pair gives the same record bit for bit.
    """
    global _entropy, _lattice
    if _lattice is None:
        from . import entropy as _entropy, lattice as _lattice
    sharma_mittal = _entropy.sharma_mittal

    fp = p if p.exact is None else ProbabilityDistribution(p.weights)
    fq = q if q.exact is None else ProbabilityDistribution(q.weights)
    # A pair whose curves do not cross, ties too, has fp and fq themselves
    # as its meet and join, whose values are taken once.
    meet = _lattice.meet(fp, fq)
    if _CHECKS[kind][0]:
        join = _lattice.join(fp, fq)
        sp, sq = sharma_mittal(p, params), sharma_mittal(q, params)
        sm = sp if meet is fp else sq if meet is fq else sharma_mittal(meet, params)
        sj = sp if join is fp else sq if join is fq else sharma_mittal(join, params)
    else:  # the meet-only kinds take the meet first
        join = sj = None
        sm = sharma_mittal(meet, params)
        sp = sm if meet is fp else sharma_mittal(p, params)
        sq = sm if meet is fq else sharma_mittal(q, params)
    lhs, rhs, margin = oriented_sides(kind, params.alpha, params.beta, sp, sq, sm, sj)
    return PropertyCheckRecord(kind, p, q, params, lhs, rhs, margin, tolerance, meet, join)
