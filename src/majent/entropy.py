"""The two-parameter entropy family and its one-parameter specializations.

The family evaluated here is

    S_{alpha,beta}(p) = ((sum_i p_i^alpha)^((1-beta)/(1-alpha)) - 1) / (1-beta)

which specializes to Tsallis entropy at beta = alpha, to ln(2) times Renyi
entropy as beta -> 1, and to ln(2) times Shannon entropy as both approach 1.
Shannon and Renyi values are reported in bits (log base 2); the family value
itself is the natural-units quantity above.

The limit branches are read off the parameter values by exact equality
with 1: alpha = 1 or beta = 1 takes the closed-form limit, and every other
finite value (0.999999 included) is evaluated directly, with no epsilon
window around 1.  The Tsallis edge beta = alpha needs no branch of its own,
because the general formula is the Tsallis form there.  All evaluations
near a removable singularity go through ``expm1`` so that the limits are
approached smoothly in float arithmetic.

Conventions: 0^alpha = 0 for alpha >= 0 inside power sums (so the alpha = 0
sum counts the support), and a zero weight combined with alpha < 0 is a hard
error rather than an infinity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .simplex import ProbabilityDistribution, tensor_product

LN2 = math.log(2.0)


class DegenerateParamsError(ValueError):
    """Parameters outside the family's domain: a non-finite alpha or beta,
    or a limit value (exactly 1) given to a closed form that excludes it."""


class ZeroWeightNegativeAlphaError(ValueError):
    """A zero weight met a negative order, where p^alpha diverges."""


class IndexOutOfRangeError(IndexError):
    """Coordinate index outside the distribution's dimension."""


def _kind(value: float) -> str:
    return "limit-1" if value == 1.0 else "finite"


@dataclass(frozen=True)
class EntropyParams:
    """A validated (alpha, beta) pair of finite floats.

    A value of exactly 1 selects the limit toward 1 in :func:`sharma_mittal`
    and any other value is evaluated as it stands; ``alpha_kind`` and
    ``beta_kind`` name that reading (``"limit-1"`` or ``"finite"``).
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DegenerateParamsError(
                f"alpha and beta must be finite, got ({self.alpha!r}, {self.beta!r})"
            )

    @classmethod
    def make(cls, alpha: float, beta: float) -> "EntropyParams":
        """Build params from plain numbers, converted to float."""
        return cls(float(alpha), float(beta))

    @property
    def alpha_kind(self) -> str:
        return _kind(self.alpha)

    @property
    def beta_kind(self) -> str:
        return _kind(self.beta)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "alpha_kind": self.alpha_kind,
            "beta_kind": self.beta_kind,
        }


def g_alpha(p: ProbabilityDistribution, alpha: float) -> float:
    """The power sum sum_i p_i^alpha over the support, smallest weights first.

    This is the argument fed to ``h_alpha_beta`` and equals
    (1 - alpha) T_alpha(p) + 1 where T is the Tsallis entropy.  Zero weights
    contribute nothing for alpha >= 0 (in particular the alpha = 0 sum is
    the support size) and are rejected for alpha < 0.
    """
    alpha = float(alpha)
    total = 0.0
    for w in reversed(p.weights):
        if w > 0.0:
            total += w**alpha
        elif alpha < 0.0:
            raise ZeroWeightNegativeAlphaError(
                f"zero weight is outside the domain for alpha = {alpha!r}"
            )
    return total


def shannon(p: ProbabilityDistribution) -> float:
    """Shannon entropy in bits."""
    total = 0.0
    for w in reversed(p.weights):
        if w > 0.0:
            total -= w * math.log2(w)
    return total


def renyi(p: ProbabilityDistribution, alpha: float) -> float:
    """Renyi entropy of order ``alpha >= 0``, in bits.

    Order 1 is Shannon, order 0 counts the support, order +inf is the
    min-entropy -log2(max weight).
    """
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise ValueError(f"Renyi order must be >= 0, got {alpha!r}")
    if alpha == 1.0:
        return shannon(p)
    if math.isinf(alpha):
        return -math.log2(p.weights[0])
    return math.log2(g_alpha(p, alpha)) / (1.0 - alpha)


def tsallis(p: ProbabilityDistribution, alpha: float) -> float:
    """Tsallis entropy of order ``alpha > 0`` (natural units).

    The boundary alpha = 0 is left undefined here on purpose: the formula
    degenerates to support size minus 1 and is no longer an entropy in any
    useful sense.  Order 1 is ln(2) times Shannon.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"Tsallis order must be > 0, got {alpha!r}")
    if alpha == 1.0:
        return LN2 * shannon(p)
    return (1.0 - g_alpha(p, alpha)) / (alpha - 1.0)


def phi_beta(x: float, beta: float) -> float:
    """The strictly increasing map (2^((1-beta) x) - 1) / (1-beta).

    Composing it with the Renyi entropy of matching order gives the family
    value; at beta = 1 it degenerates to ln(2) x.
    """
    x = float(x)
    beta = float(beta)
    if not x >= 0.0:
        raise ValueError(f"phi_beta is defined for x >= 0, got {x!r}")
    if beta == 1.0:
        return LN2 * x
    return math.expm1((1.0 - beta) * x * LN2) / (1.0 - beta)


def h_alpha_beta(x: float, params: EntropyParams) -> float:
    """The map (x^((1-beta)/(1-alpha)) - 1) / (1-beta) applied to a power sum.

    Requires alpha and beta both different from 1; those limits have their
    own closed forms in :func:`sharma_mittal`.
    """
    if params.alpha == 1.0 or params.beta == 1.0:
        raise DegenerateParamsError("h_alpha_beta needs alpha and beta away from 1")
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"h_alpha_beta needs x > 0, got {x!r}")
    exponent = (1.0 - params.beta) / (1.0 - params.alpha)
    return math.expm1(exponent * math.log(x)) / (1.0 - params.beta)


def sharma_mittal(p: ProbabilityDistribution, params: EntropyParams) -> float:
    """Evaluate the family at ``params``, choosing the branch by exact value.

    Branches:

    * alpha = 1: ``phi_beta`` of the Shannon entropy, which is ln(2) times
      Shannon at beta = 1
    * beta = 1: ln(2) times the Renyi entropy of order alpha (any alpha != 1
      including negative orders, which need full support)
    * otherwise: ``h_alpha_beta(g_alpha(p))``, which at beta = alpha is the
      Tsallis form (1 - g_alpha) / (alpha - 1) up to rounding

    Negative alpha with a zero weight raises.
    """
    if params.alpha == 1.0:
        return phi_beta(shannon(p), params.beta)
    power = g_alpha(p, params.alpha)
    if params.beta == 1.0:
        return math.log(power) / (1.0 - params.alpha)
    return h_alpha_beta(power, params)


def sharma_mittal_partial(
    p: ProbabilityDistribution, i: int, params: EntropyParams
) -> float:
    """Closed-form partial derivative of the family value at coordinate ``i``.

    dS/dp_i = alpha/(1-alpha) * A^((alpha-beta)/(1-alpha)) * p_i^(alpha-1)
    with A the power sum.  Defined for alpha outside {0, 1}; for
    alpha < 1 the coordinate must carry positive weight.  The index refers
    to the sorted weights.
    """
    if params.alpha == 0.0 or params.alpha == 1.0:
        raise DegenerateParamsError("the closed-form partial needs alpha outside {0, 1}")
    if not 0 <= i < p.dim:
        raise IndexOutOfRangeError(f"index {i} outside dimension {p.dim}")
    alpha, beta = params.alpha, params.beta
    pi = p.weights[i]
    if pi == 0.0:
        if alpha < 0.0:
            raise ZeroWeightNegativeAlphaError(
                f"zero weight is outside the domain for alpha = {alpha!r}"
            )
        if alpha < 1.0:
            raise ValueError("partial derivative diverges at a zero weight for alpha < 1")
        return 0.0
    power = g_alpha(p, alpha)
    scale = power ** ((alpha - beta) / (1.0 - alpha))
    return (alpha / (1.0 - alpha)) * scale * pi ** (alpha - 1.0)


def pseudo_additivity_residual(
    p: ProbabilityDistribution, q: ProbabilityDistribution, params: EntropyParams
) -> float:
    """S(p (x) q) - S(p) - S(q) - (1-beta) S(p) S(q).

    Identically zero in exact arithmetic for every parameter choice; the
    float residual measures evaluation error.  At beta = 1 the cross term
    vanishes (plain additivity); at beta = alpha its factor is 1 - alpha.
    """
    sp = sharma_mittal(p, params)
    sq = sharma_mittal(q, params)
    spq = sharma_mittal(tensor_product(p, q), params)
    return spq - (sp + sq + (1.0 - params.beta) * sp * sq)
