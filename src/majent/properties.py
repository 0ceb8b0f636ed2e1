"""Inequality checks between entropies of pairs and their lattice bounds.

One table-driven function, :func:`run_check`, evaluates all five kinds: the
table says per kind whether the join is needed and which way the
inequality points.  Every check is oriented so that a positive margin
means it holds with room to spare.  A violation is only reported when the
margin drops below ``-CHECK_TOL``; margins inside the window count as a
tight hold, so rounding noise cannot masquerade as a counterexample.  The
checks never refuse a parameter region: outside the guaranteed regions they
simply report whatever the numbers say.  numpy and :mod:`majent.entropy`
are imported where a check evaluates, so the kinds and the tolerance can be
read without loading them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import lattice
from .simplex import ProbabilityDistribution

if TYPE_CHECKING:
    from .entropy import EntropyParams

#: Margin below which a check counts as violated.
CHECK_TOL = 1e-9


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

    Works elementwise on arrays of rows (``sj`` is unused by the meet-only
    kinds) as well as on single floats.
    """
    needs_join, orientation = _CHECKS[kind]
    if needs_join:
        lhs, rhs = sp + sq, sm + sj
    elif orientation == 0:
        import numpy as np

        lhs, rhs = sm, sp + sq + (1.0 - beta) * sp * sq
        return lhs, rhs, np.where(alpha >= 0.0, rhs - lhs, lhs - rhs)
    else:
        lhs, rhs = sm, sp + sq
    return lhs, rhs, rhs - lhs if orientation > 0 else lhs - rhs


def check_record(
    kind: PropertyKind, p, q, params: EntropyParams, sides, meet_row, join_row, tolerance=CHECK_TOL
) -> PropertyCheckRecord:
    """The record of check ``kind`` on (p, q) from its (lhs, rhs, margin)
    ``sides`` and the kernel rows of its meet and join, cut to their
    dimension; ``join_row`` is None for the meet-only kinds."""
    lhs, rhs, margin = map(float, sides)
    join = None if join_row is None else lattice.row_distribution(join_row)
    return PropertyCheckRecord(
        kind, p, q, params, lhs, rhs, margin, tolerance, lattice.row_distribution(meet_row), join
    )


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
    generalized kind (rhs).  The check runs in floats, on the engine's row
    kernels at one zero-padded row, and the first family value to fail, in
    the order of the sides, raises.
    """
    import numpy as np

    from .entropy import family_rows

    joined = _CHECKS[kind][0]
    n = max(p.dim, q.dim)
    pairs = np.zeros((2, 1, n))
    pairs[0, 0, : p.dim], pairs[1, 0, : q.dim] = p.weights, q.weights
    meets, joins = lattice.bound_rows(pairs, np.array([joined]))
    lengths = np.array([p.dim, q.dim, n, n][: 3 + joined]) if p.dim != q.dim else None
    rows = np.concatenate([pairs[0], pairs[1], meets, joins])
    values, errors = family_rows(rows, params.alpha, params.beta, lengths)
    if errors:  # meet-only kinds take the meet first
        raise errors[min(errors, key=None if joined else (2, 0, 1).index)]
    # S(p), S(q), S(meet) and S(join), None for the meet-only kinds.
    sides = oriented_sides(kind, params.alpha, params.beta, *(values.tolist() + [None])[:4])
    join_row = joins[0] if joined else None
    return check_record(kind, p, q, params, sides, meets[0], join_row, tolerance)
