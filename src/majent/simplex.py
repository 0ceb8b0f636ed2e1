"""Distributions on the finite probability simplex and the majorization order.

Vectors are canonicalized to non-increasing order at construction time and
all comparisons act on prefix sums (the discrete Lorenz curve).  Construction
from integers or :class:`fractions.Fraction` weights keeps an exact rational
copy of the vector alongside the float one, which lets the lattice
operations downstream run without rounding when the caller wants that.
:mod:`fractions` (and :mod:`decimal`) loads only where a Fraction is made.

Weights are validated, never repaired: a vector whose sum is off by more
than ``SUM_TOL`` is rejected, so a caller with unnormalized weights divides
by their sum before constructing.
"""
from __future__ import annotations

import numbers
from enum import Enum
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

Weight = Union[int, float, "Fraction"]

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


class VectorParseError(ValueError):
    """Raised when a textual weight vector cannot be parsed at all."""


class MajorizationOrder(Enum):
    """Outcome of comparing two distributions in the majorization order."""

    MAJORIZED_BY = "majorized-by"
    MAJORIZES = "majorizes"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


#: Sets a field of a :class:`FrozenValue` from its ``__init__``.
_set = object.__setattr__


class FrozenValue:
    """Value semantics for a record kept in ``__slots__``, set once by its
    ``__init__`` through ``object.__setattr__``: equality and hash by the
    fields in slot order, a ``Name(field=value, ...)`` repr, no assignment
    or deletion afterwards, and copies and pickles rebuilt by ``__init__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ProbabilityDistribution(FrozenValue):
    """A probability vector, sorted non-increasingly.

    ``weights`` is the float representation used for all entropy
    evaluations.  ``exact`` carries the same vector as
    :class:`~fractions.Fraction` values when the construction input was
    rational, and is ``None`` otherwise.  Instances are immutable; build
    them through :func:`make_distribution` (or :func:`parse_distribution`),
    which validate.
    """

    __slots__ = ("weights", "exact")

    def __init__(
        self, weights: tuple[float, ...], exact: tuple[Fraction, ...] | None = None
    ) -> None:
        _set(self, "weights", weights)
        _set(self, "exact", exact)

    @property
    def dim(self) -> int:
        return len(self.weights)


def make_distribution(raw: Sequence[Weight]) -> ProbabilityDistribution:
    """Validate and canonicalize a weight vector.

    Parameters
    ----------
    raw:
        Weights, in any order, summing to 1 within ``SUM_TOL``.  Ints and
        Fractions produce an exact distribution; any float in the input
        drops exactness.

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
    if exact:
        from fractions import Fraction
    vals = sorted(map(Fraction if exact else float, ws), reverse=True)
    total = sum(vals)
    if abs(float(total) - 1.0) > SUM_TOL:
        raise SumOutOfToleranceError(total)
    if not exact:
        # Zeros sort last, and each is stored as +0.0, even one written -0.
        return ProbabilityDistribution(tuple(w + 0.0 for w in vals) if vals[-1] == 0.0 else tuple(vals))
    return ProbabilityDistribution(tuple(map(float, vals)), tuple(vals))


def paired_curves(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> tuple[list[Weight], list[Weight], bool]:
    """Lorenz curves of ``p`` and ``q`` on their common dimension, and
    whether both are exact, as they are when both operands carry exact
    weights.  The shorter curve is extended with its last value, which is
    its curve zero-padded: a zero weight adds exactly 0, float or Fraction.
    """
    exact = p.exact is not None and q.exact is not None
    pa, pb = (list(accumulate(d.exact if exact else d.weights)) for d in (p, q))
    n = max(len(pa), len(pb))
    return pa + pa[-1:] * (n - len(pa)), pb + pb[-1:] * (n - len(pb)), exact


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
    """Distribution of the independent pair, sorted: entries ``p_i * q_j``,
    in floats."""
    return make_distribution([x * y for x in p.weights for y in q.weights])


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
                from fractions import Fraction
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

