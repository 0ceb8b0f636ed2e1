"""Distributions on the finite probability simplex and the majorization order.

Vectors are canonicalized to non-increasing order at construction time and
all comparisons act on prefix sums (the discrete Lorenz curve).  Construction
from integers or :class:`fractions.Fraction` weights keeps an exact rational
copy of the vector alongside the float one, which lets the lattice
operations downstream run without rounding when the caller wants that.

Weights are validated, never silently repaired: a vector whose sum is off by
more than ``SUM_TOL`` is rejected unless the caller asks for normalization
explicitly.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Sequence, Union

Weight = Union[int, float, Fraction]

#: Acceptance window for |sum(weights) - 1| at construction.
SUM_TOL = 1e-9

#: Tie window for prefix-sum comparisons between float vectors.  Partial sums
#: that agree within this are treated as equal so that rounding noise cannot
#: flip a comparison verdict.
CMP_TOL = 1e-12


class DistributionError(ValueError):
    """A weight vector cannot be turned into a valid distribution."""


class EmptyInputError(DistributionError):
    """Raised when no weights at all were supplied."""


class NegativeWeightError(DistributionError):
    """Raised when a weight is negative (or not a number)."""


class SumOutOfToleranceError(DistributionError):
    """Raised when the weights do not sum to 1 within ``SUM_TOL``."""

    def __init__(self, total: float) -> None:
        self.total = float(total)
        self.deviation = self.total - 1.0
        super().__init__(
            f"weights sum to {self.total!r} "
            f"(deviation {self.deviation:+.3e}, tolerance {SUM_TOL:g})"
        )


class TargetDimTooSmallError(DistributionError):
    """Raised when padding is asked to shrink a vector."""


class VectorParseError(ValueError):
    """Raised when a textual weight vector cannot be parsed at all."""


class MajorizationOrder(Enum):
    """Outcome of comparing two distributions in the majorization order."""

    MAJORIZED_BY = "majorized-by"
    MAJORIZES = "majorizes"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ProbabilityDistribution:
    """A probability vector, sorted non-increasingly.

    ``weights`` is the float representation used for all entropy
    evaluations.  ``exact`` carries the same vector as
    :class:`~fractions.Fraction` values when the construction input was
    rational, and is ``None`` otherwise.  Instances are immutable; build
    them through :func:`make_distribution` (or :func:`parse_distribution`),
    which validate.
    """

    weights: tuple[float, ...]
    exact: tuple[Fraction, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.weights)

    def values(self) -> Sequence[Weight]:
        """Exact weights when available, floats otherwise."""
        return self.exact if self.exact is not None else self.weights

    def weights_json(self) -> list:
        """JSON-ready weights: floats, or ``"a/b"`` strings in exact mode."""
        if self.exact is not None:
            return [f"{w.numerator}/{w.denominator}" for w in self.exact]
        return list(self.weights)


def make_distribution(
    raw: Sequence[Weight], *, normalize: bool = False
) -> ProbabilityDistribution:
    """Validate and canonicalize a weight vector.

    Parameters
    ----------
    raw:
        Weights, in any order.  Ints and Fractions produce an exact
        distribution; any float in the input drops exactness.
    normalize:
        Divide by the sum instead of requiring it to be 1 already.  The sum
        must be positive in that case.

    Raises
    ------
    EmptyInputError, NegativeWeightError, SumOutOfToleranceError
    """
    ws = list(raw)
    if not ws:
        raise EmptyInputError("at least one weight is required")
    for i, w in enumerate(ws):
        if not w >= 0:  # also catches NaN
            raise NegativeWeightError(f"weight {w!r} at position {i} is not >= 0")

    exact = all(isinstance(w, numbers.Rational) for w in ws)
    vals = sorted(map(Fraction if exact else float, ws), reverse=True)
    total = sum(vals)
    if normalize:
        if total <= 0:
            raise SumOutOfToleranceError(total)
        vals = [w / total for w in vals]
    elif abs(float(total) - 1.0) > SUM_TOL:
        raise SumOutOfToleranceError(total)
    if not exact:
        return ProbabilityDistribution(tuple(vals))
    return ProbabilityDistribution(tuple(map(float, vals)), tuple(vals))


def uniform(n: int) -> ProbabilityDistribution:
    """The uniform distribution on ``n`` outcomes, exact."""
    if n < 1:
        raise EmptyInputError("need n >= 1")
    return make_distribution([Fraction(1, n)] * n)


def pad(p: ProbabilityDistribution, n: int) -> ProbabilityDistribution:
    """Append zero weights up to dimension ``n``.

    Padding with zeros does not move ``p`` in the majorization order, it
    only places it in a larger simplex.
    """
    if n < p.dim:
        raise TargetDimTooSmallError(f"cannot pad dim {p.dim} down to {n}")
    if n == p.dim:
        return p
    extra = n - p.dim
    exact = p.exact + (Fraction(0),) * extra if p.exact is not None else None
    return ProbabilityDistribution(p.weights + (0.0,) * extra, exact)


def paired_curves(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> tuple[list[Weight], list[Weight], bool]:
    """Lorenz curves of ``p`` and ``q`` zero-padded to a common dimension.

    The flag is true when both curves are exact, which they are exactly when
    both operands carry exact weights.
    """
    n = max(p.dim, q.dim)
    a, b = pad(p, n), pad(q, n)
    if a.exact is not None and b.exact is not None:
        return list(accumulate(a.exact)), list(accumulate(b.exact)), True
    return list(accumulate(a.weights)), list(accumulate(b.weights)), False


def compare(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> MajorizationOrder:
    """Compare two distributions in the majorization order.

    ``MAJORIZED_BY`` means every prefix sum of ``p`` is at most the matching
    prefix sum of ``q``, i.e. ``p`` is the more mixed of the two.  Vectors of
    different dimension are compared after zero padding.  Float comparisons
    use the ``CMP_TOL`` tie window; when both operands are exact the
    comparison is exact as well.
    """
    pa, pb, exact = paired_curves(p, q)
    tol: Weight = 0 if exact else CMP_TOL
    p_below = all(x <= y + tol for x, y in zip(pa, pb))
    q_below = all(y <= x + tol for x, y in zip(pa, pb))
    if p_below and q_below:
        return MajorizationOrder.EQUAL
    if p_below:
        return MajorizationOrder.MAJORIZED_BY
    if q_below:
        return MajorizationOrder.MAJORIZES
    return MajorizationOrder.INCOMPARABLE


def tensor_product(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> ProbabilityDistribution:
    """Distribution of the independent pair, sorted: entries ``p_i * q_j``."""
    vp = p.values()
    vq = q.values()
    return make_distribution([x * y for x in vp for y in vq])


def parse_weights(text: str, *, exact: bool = False) -> list[Weight]:
    """Parse a comma-separated weight vector.

    Accepts decimal literals (``0.5,0.3,0.1,0.1``) and rational literals
    (``1/2,3/10,1/10,1/10``), freely mixed.  With ``exact=True`` every token
    is parsed as an exact rational (decimal strings convert exactly);
    otherwise everything is reduced to float.
    """
    tokens = [t.strip() for t in text.split(",")]
    if not text.strip() or any(not t for t in tokens):
        raise VectorParseError(f"malformed weight vector: {text!r}")
    out: list[Weight] = []
    for tok in tokens:
        try:
            if "/" in tok or exact:
                value: Weight = Fraction(tok)
                if not exact:
                    value = float(value)
            else:
                value = float(tok)
        except (ValueError, ZeroDivisionError) as err:
            raise VectorParseError(f"cannot parse weight {tok!r}") from err
        out.append(value)
    return out


def parse_distribution(text: str, *, exact: bool = False) -> ProbabilityDistribution:
    """Parse text into a validated distribution.  See :func:`parse_weights`."""
    return make_distribution(parse_weights(text, exact=exact))

