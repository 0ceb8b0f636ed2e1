"""The two-parameter entropy family and its one-parameter specializations.

The family evaluated here is

    S_{alpha,beta}(p) = ((sum_i p_i^alpha)^((1-beta)/(1-alpha)) - 1) / (1-beta)

which specializes to Tsallis entropy as beta -> alpha, to ln(2) times Renyi
entropy as beta -> 1, and to ln(2) times Shannon entropy as both approach 1.
Shannon and Renyi values are reported in bits (log base 2); the family value
itself is the natural-units quantity above.

Limit branches are selected only through explicit parameter kinds on
:class:`EntropyParams`, never through epsilon windows around 1: a caller who
wants the beta -> 1 limit must say so, and a finite beta of exactly 1 cannot
be constructed.  All evaluations near a removable singularity go through
``expm1`` so that the limits are approached smoothly in float arithmetic.

Conventions: 0^alpha = 0 for alpha >= 0 inside power sums (so the alpha = 0
sum counts the support), and a zero weight combined with alpha < 0 is a hard
error rather than an infinity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .simplex import ProbabilityDistribution, tensor_product

LN2 = math.log(2.0)


class DegenerateParamsError(ValueError):
    """Parameter combination outside the family's domain (alpha or beta 1
    without the matching limit kind, or an unsupported infinite order)."""


class ZeroWeightNegativeAlphaError(ValueError):
    """A zero weight met a negative order, where p^alpha diverges."""


class IndexOutOfRangeError(IndexError):
    """Coordinate index outside the distribution's dimension."""


class ParamKind(Enum):
    """How a parameter slot is to be read.

    FINITE is the plain numeric case.  LIMIT_ONE marks the limit toward 1
    (valid for both slots), LIMIT_ALPHA marks beta -> alpha (beta slot only)
    and INFINITE marks the min-entropy order (alpha slot only, Renyi use).
    """

    FINITE = "finite"
    LIMIT_ONE = "limit-1"
    LIMIT_ALPHA = "limit-alpha"
    INFINITE = "infinite"


@dataclass(frozen=True)
class EntropyParams:
    """Validated (alpha, beta) pair with explicit limit kinds.

    The numeric fields always hold the effective values: 1.0 under
    LIMIT_ONE, the alpha value under LIMIT_ALPHA.  Prefer the factories
    (:meth:`make`, :meth:`renyi_limit`, :meth:`tsallis_limit`) over calling
    the constructor with kinds spelled out.
    """

    alpha: float
    beta: float
    alpha_kind: ParamKind = ParamKind.FINITE
    beta_kind: ParamKind = ParamKind.FINITE

    def __post_init__(self) -> None:
        a, b = self.alpha, self.beta
        ak, bk = self.alpha_kind, self.beta_kind
        if ak is ParamKind.FINITE:
            if not math.isfinite(a):
                raise DegenerateParamsError(f"non-finite alpha {a!r} needs an explicit kind")
            if a == 1.0:
                raise DegenerateParamsError(
                    "alpha = 1 is a removable singularity; use the LIMIT_ONE kind"
                )
        elif ak is ParamKind.LIMIT_ONE:
            if a != 1.0:
                raise DegenerateParamsError("LIMIT_ONE alpha must store the value 1.0")
        elif ak is ParamKind.INFINITE:
            if not math.isinf(a) or a < 0:
                raise DegenerateParamsError("INFINITE alpha must store +inf")
        else:
            raise DegenerateParamsError("LIMIT_ALPHA is not valid for the alpha slot")
        if bk is ParamKind.FINITE:
            if not math.isfinite(b):
                raise DegenerateParamsError(f"non-finite beta {b!r} is not supported")
            if b == 1.0:
                raise DegenerateParamsError(
                    "beta = 1 is a removable singularity; use the LIMIT_ONE kind"
                )
        elif bk is ParamKind.LIMIT_ONE:
            if b != 1.0:
                raise DegenerateParamsError("LIMIT_ONE beta must store the value 1.0")
        elif bk is ParamKind.LIMIT_ALPHA:
            if ak is not ParamKind.FINITE:
                raise DegenerateParamsError("beta -> alpha needs a finite alpha != 1")
            if b != a:
                raise DegenerateParamsError("LIMIT_ALPHA beta must store the alpha value")
        else:
            raise DegenerateParamsError("INFINITE is not valid for the beta slot")

    @classmethod
    def make(cls, alpha: float, beta: float) -> "EntropyParams":
        """Build params from plain numbers.

        Exactly 1 routes to the matching limit kind (this is exact equality,
        not a window: 0.999999 stays finite and is evaluated directly).
        """
        alpha = float(alpha)
        beta = float(beta)
        ak = (
            ParamKind.LIMIT_ONE
            if alpha == 1.0
            else ParamKind.INFINITE
            if math.isinf(alpha) and alpha > 0
            else ParamKind.FINITE
        )
        bk = ParamKind.LIMIT_ONE if beta == 1.0 else ParamKind.FINITE
        return cls(alpha, beta, ak, bk)

    @classmethod
    def renyi_limit(cls, alpha: float) -> "EntropyParams":
        """The beta -> 1 edge of the family at the given alpha."""
        alpha = float(alpha)
        ak = ParamKind.LIMIT_ONE if alpha == 1.0 else ParamKind.FINITE
        return cls(alpha, 1.0, ak, ParamKind.LIMIT_ONE)

    @classmethod
    def tsallis_limit(cls, alpha: float) -> "EntropyParams":
        """The beta -> alpha edge of the family at the given alpha != 1."""
        alpha = float(alpha)
        return cls(alpha, alpha, ParamKind.FINITE, ParamKind.LIMIT_ALPHA)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "alpha_kind": self.alpha_kind.value,
            "beta_kind": self.beta_kind.value,
        }


def _pow_sum(weights: tuple[float, ...], alpha: float) -> float:
    """sum_i w_i^alpha over the support, smallest weights first.

    Zero weights contribute nothing for alpha >= 0 (in particular the
    alpha = 0 sum is the support size) and are rejected for alpha < 0.
    """
    total = 0.0
    for w in reversed(weights):
        if w > 0.0:
            total += w**alpha
        elif alpha < 0.0:
            raise ZeroWeightNegativeAlphaError(
                f"zero weight is outside the domain for alpha = {alpha!r}"
            )
    return total


def g_alpha(p: ProbabilityDistribution, alpha: float) -> float:
    """The power sum sum_i p_i^alpha; the argument fed to ``h_alpha_beta``.

    Equals (1 - alpha) T_alpha(p) + 1 where T is the Tsallis entropy.
    """
    return _pow_sum(p.weights, float(alpha))


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
    return math.log2(_pow_sum(p.weights, alpha)) / (1.0 - alpha)


def _tsallis_value(weights: tuple[float, ...], alpha: float) -> float:
    return (1.0 - _pow_sum(weights, alpha)) / (alpha - 1.0)


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
    return _tsallis_value(p.weights, alpha)


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

    Requires both parameters finite (away from 1); the limit kinds have
    their own closed forms in :func:`sharma_mittal`.
    """
    if (
        params.alpha_kind is not ParamKind.FINITE
        or params.beta_kind is not ParamKind.FINITE
    ):
        raise DegenerateParamsError("h_alpha_beta needs finite alpha and beta away from 1")
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"h_alpha_beta needs x > 0, got {x!r}")
    exponent = (1.0 - params.beta) / (1.0 - params.alpha)
    return math.expm1(exponent * math.log(x)) / (1.0 - params.beta)


def sharma_mittal(p: ProbabilityDistribution, params: EntropyParams) -> float:
    """Evaluate the family at ``params``, dispatching on the limit kinds.

    Branches:

    * both finite: ``h_alpha_beta(g_alpha(p))``
    * beta -> 1:   ln(2) times the Renyi entropy of order alpha (any finite
      alpha != 1 including negative orders, which need full support)
    * beta -> alpha: the Tsallis form (1 - g_alpha) / (alpha - 1)
    * alpha -> 1, finite beta: ``phi_beta`` of the Shannon entropy
    * both -> 1:  ln(2) times Shannon

    Negative alpha with a zero weight raises; alpha = +inf is not part of
    this family's dispatch.
    """
    ak, bk = params.alpha_kind, params.beta_kind
    if ak is ParamKind.INFINITE:
        raise DegenerateParamsError("alpha = +inf is Renyi-only, not a family member here")
    if bk is ParamKind.LIMIT_ONE:
        if ak is ParamKind.LIMIT_ONE:
            return LN2 * shannon(p)
        power = _pow_sum(p.weights, params.alpha)
        return math.log(power) / (1.0 - params.alpha)
    if bk is ParamKind.LIMIT_ALPHA:
        return _tsallis_value(p.weights, params.alpha)
    if ak is ParamKind.LIMIT_ONE:
        return phi_beta(shannon(p), params.beta)
    return h_alpha_beta(_pow_sum(p.weights, params.alpha), params)


def sharma_mittal_partial(
    p: ProbabilityDistribution, i: int, params: EntropyParams
) -> float:
    """Closed-form partial derivative of the family value at coordinate ``i``.

    dS/dp_i = alpha/(1-alpha) * A^((alpha-beta)/(1-alpha)) * p_i^(alpha-1)
    with A the power sum.  Defined for finite alpha outside {0, 1}; for
    alpha < 1 the coordinate must carry positive weight.  The index refers
    to the sorted weights.
    """
    ak = params.alpha_kind
    if ak is not ParamKind.FINITE or params.alpha == 0.0:
        raise DegenerateParamsError(
            "the closed-form partial needs finite alpha outside {0, 1}"
        )
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
    power = _pow_sum(p.weights, alpha)
    scale = power ** ((alpha - beta) / (1.0 - alpha))
    return (alpha / (1.0 - alpha)) * scale * pi ** (alpha - 1.0)


def pseudo_additivity_residual(
    p: ProbabilityDistribution, q: ProbabilityDistribution, params: EntropyParams
) -> float:
    """S(p (x) q) - S(p) - S(q) - (1-beta) S(p) S(q).

    Identically zero in exact arithmetic for every parameter choice; the
    float residual measures evaluation error.  Under the beta -> 1 kind the
    cross term vanishes (plain additivity), under beta -> alpha the factor
    is 1 - alpha.
    """
    sp = sharma_mittal(p, params)
    sq = sharma_mittal(q, params)
    spq = sharma_mittal(tensor_product(p, q), params)
    return spq - (sp + sq + (1.0 - params.beta) * sp * sq)
