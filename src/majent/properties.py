"""Inequality checks between entropies of pairs and their lattice bounds.

One table-driven function, :func:`run_check`, evaluates all five kinds: the
table says per kind whether the join is needed and which way the
inequality points.  Every check is oriented so that a positive margin
means it holds with room to spare.  A violation is only reported when the
margin drops below ``-CHECK_TOL``; margins inside the window count as a
tight hold, so rounding noise cannot masquerade as a counterexample.  The
checks never refuse a parameter region: outside the guaranteed regions they
simply report whatever the numbers say.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import lattice
from .entropy import EntropyParams, sharma_mittal
from .simplex import ProbabilityDistribution

#: Margin below which a check counts as violated.
CHECK_TOL = 1e-9


class PropertyKind(Enum):
    SUBADDITIVE = "subadditive"
    SUPERADDITIVE = "superadditive"
    GENERALIZED_SUB_SUPER = "generalized"
    SUPERMODULAR = "supermodular"
    SUBMODULAR = "submodular"


@dataclass(frozen=True)
class PropertyCheckRecord:
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
    holds: bool
    tolerance: float
    meet: ProbabilityDistribution
    join: ProbabilityDistribution | None = None

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
            "p": self.p.weights_json(),
            "q": self.q.weights_json(),
            "meet": self.meet.weights_json(),
            "join": self.join.weights_json() if self.join is not None else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
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
    generalized kind (rhs).
    """
    needs_join, orientation = _CHECKS[kind]
    m = lattice.meet(p, q)
    j = None
    if needs_join:
        j = lattice.join(p, q)
        lhs = sharma_mittal(p, params) + sharma_mittal(q, params)
        rhs = sharma_mittal(m, params) + sharma_mittal(j, params)
    else:
        lhs = sharma_mittal(m, params)
        sp = sharma_mittal(p, params)
        sq = sharma_mittal(q, params)
        if orientation == 0:
            rhs = sp + sq + (1.0 - params.beta) * sp * sq
            orientation = 1 if params.alpha >= 0.0 else -1
        else:
            rhs = sp + sq
    margin = rhs - lhs if orientation > 0 else lhs - rhs
    return PropertyCheckRecord(
        kind=kind,
        p=p,
        q=q,
        params=params,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=margin >= -tolerance,
        tolerance=tolerance,
        meet=m,
        join=j,
    )
