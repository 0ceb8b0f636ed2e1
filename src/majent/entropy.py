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

Every float value comes from row kernels over a (k, m) array of sorted
distributions, each zero-padded past its own length: :func:`family_rows`
evaluates each row at its own (alpha, beta) and returns the error each
failing row raises, and the scalar functions here are the same kernels at
k = 1, raising what a term-by-term evaluation in Python floats would raise.
Powers, logarithms and ``expm1`` come from the C library, as in Python's
float arithmetic, numpy does only correctly rounded arithmetic, and sums
run one term at a time, so a value has the same bits whatever k, the
padding and the host's vector unit are.
"""
from __future__ import annotations

import errno
import math
from dataclasses import dataclass

import numpy as np

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


def is_finite(value) -> bool:
    """``math.isfinite``, False for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
        if not (is_finite(self.alpha) and is_finite(self.beta)):
            raise DegenerateParamsError(
                f"alpha and beta must be finite, got ({self.alpha!r}, {self.beta!r})"
            )
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

    @classmethod
    def make(cls, alpha: float, beta: float) -> "EntropyParams":
        """Build params from plain numbers, stored as floats."""
        return cls(alpha, beta)

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


# Branches of the family, numbered (alpha != 1) * 2 + (beta != 1): ln(2)
# times Shannon, phi_beta of Shannon, ln(2) times Renyi, h_alpha_beta.
_SHANNON, _PHI, _RENYI, _H = range(4)


def _sum_smallest_first(terms: np.ndarray) -> np.ndarray:
    """Row sums added from the last column to the first, one term at a time,
    so a sum is the same float whatever the number of rows."""
    return np.add.accumulate(terms[:, ::-1], axis=1)[:, -1]


def _mapped(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each entry of the 1-d ``x``, called on Python floats."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _argument(w: np.ndarray, alpha: np.ndarray, logged: np.ndarray):
    """(x, terms): per row of ``w``, the Shannon entropy in bits where
    ``logged``, else the power sum at the row's ``alpha``, and the terms
    summed.  No power or logarithm is taken of a zero weight, padding
    included, so zero weights add nothing and call no C library function.

    numpy's vector loops for ``log2`` and ``power`` round some results
    differently from the C library, so the logarithms come from
    :mod:`math` and the powers from ``np.float_power``, which calls the C
    library's ``pow`` element by element, as Python's ``**`` does.
    """
    positive = w > 0.0
    terms = np.zeros(w.shape)
    flags = logged.tolist()
    if True in flags:
        at = positive
        if False in flags:
            at, positive = positive & logged[:, None], positive & ~logged[:, None]
        g = w[at]
        # -(g log2 g), negated exactly before the sum: the sum is then
        # 0.0 minus the sum of the g log2 g, bit for bit.
        terms[at] = (0.0 - _mapped(math.log2, g)) * g
    if False in flags:
        np.float_power(w, alpha[:, None], out=terms, where=positive)
    return _sum_smallest_first(terms), terms


def _power_errors(w, n, alpha: np.ndarray, x, terms) -> dict[int, Exception]:
    """The errors of the power sums of the rows of ``w``, by row: a zero
    weight at a negative order, else a term beyond the float range.  Rows
    are non-increasing, so a zero weight ends its row's ``n`` entries (all
    of them without ``n``)."""
    errors: dict[int, Exception] = {}
    if np.isinf(x).any():
        for i in np.flatnonzero(np.isinf(terms).any(axis=1)).tolist():
            errors[i] = OverflowError(errno.ERANGE, "Numerical result out of range")
    last = w[:, -1] if n is None else w[np.arange(len(w)), n - 1]
    for i in np.flatnonzero((last == 0.0) & (alpha < 0.0)).tolist():
        errors[i] = ZeroWeightNegativeAlphaError(
            f"zero weight is outside the domain for alpha = {float(alpha[i])!r}"
        )
    return errors


def _shannon_outer(x: float, alpha: float, beta: float) -> float:
    if not x >= 0.0:
        raise ValueError(f"phi_beta is defined for x >= 0, got {x!r}")
    return LN2 * x


def _phi_outer(x: float, alpha: float, beta: float) -> float:
    if not x >= 0.0:
        raise ValueError(f"phi_beta is defined for x >= 0, got {x!r}")
    return math.expm1((1.0 - beta) * x * LN2) / (1.0 - beta)


def _renyi_outer(x: float, alpha: float, beta: float) -> float:
    return math.log(x) / (1.0 - alpha)


def _h_outer(x: float, alpha: float, beta: float) -> float:
    if not x > 0.0:
        raise ValueError(f"h_alpha_beta needs x > 0, got {x!r}")
    return math.expm1((1.0 - beta) / (1.0 - alpha) * math.log(x)) / (1.0 - beta)


#: Per branch, the map from a row's argument to its family value, in Python
#: floats, which raise where the C library signals an error.
_OUTER = (_shannon_outer, _phi_outer, _renyi_outer, _h_outer)

#: Calls with at least this many rows take the outer map in bulk.  The bulk
#: pass costs a fixed 20-35 us a call and saves about 1 us a row over the
#: per-row map of ``_OUTER``; measured on rows of 8, the two break even at
#: 40-60 rows.  The k = 1 callers stay per row.
_BULK_ROWS = 64

#: Largest ``expm1`` argument the bulk pass settles.  ``math.expm1``
#: overflows just past log(DBL_MAX) = 709.78, so the rows beyond this bound
#: go through ``_OUTER``, which gives math's value or its OverflowError.
_EXPM1_BOUND = 709.0


def _bulk_outer(x: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """(values, replay): the outer map of every row, with numpy doing the
    arithmetic of ``_OUTER``'s expressions in their own order (elementwise
    IEEE operations give Python's float bits) and ``map`` calling
    ``math.log`` and ``math.expm1``; and the rows whose value this pass
    cannot settle, which go through ``_OUTER``: an argument outside the
    domain of the log or of the Shannon forms, and an ``expm1`` argument
    above ``_EXPM1_BOUND``.
    """
    a1, b1 = alpha == 1.0, beta == 1.0
    replay = ~np.where(a1, x >= 0.0, x > 0.0)
    logs = np.zeros(len(x))
    at = ~(a1 | replay)
    logs[at] = _mapped(math.log, x[at])
    one_b = 1.0 - beta
    arg = np.where(a1, one_b * x * LN2, one_b / (1.0 - alpha) * logs)
    replay |= ~b1 & (arg > _EXPM1_BOUND)
    grown = np.zeros(len(x))
    at = ~(b1 | replay)
    grown[at] = _mapped(math.expm1, arg[at])
    values = np.where(b1, np.where(a1, LN2 * x, logs / (1.0 - alpha)), grown / one_b)
    return values, np.flatnonzero(replay).tolist()


def family_rows(
    w: np.ndarray, alpha, beta, n: np.ndarray | None = None
) -> tuple[np.ndarray, dict[int, Exception]]:
    """The family value of each row of ``w``, and by row the error that the
    evaluation of a failing row raises (its value is nan).

    ``w`` is (k, m) and row i holds a non-increasing distribution in its
    first ``n[i]`` entries, zero-padded past them; without ``n`` every row
    is m long.  ``alpha`` and ``beta`` are two numbers, for every row, or
    two arrays with one value per row.  The branches are those of
    :func:`sharma_mittal`, chosen per row, and a row's error is the first
    one that evaluating it term by term, smallest weight first, would meet.

    The padding cannot move a bit: no power or logarithm is taken of it,
    the smallest-first sums add its zero terms before any real term, and
    the zero-weight rule reads each row's last real entry, which is what
    ``n`` is for.

    The outer map from a row's power sum or Shannon entropy to its value
    runs row by row through ``_OUTER`` below ``_BULK_ROWS`` rows, and in
    bulk from there (:func:`_bulk_outer`), with the same bits and errors.
    """
    if not isinstance(alpha, np.ndarray):
        alpha, beta = np.array([float(alpha)] * len(w)), np.array([float(beta)] * len(w))
    with np.errstate(all="ignore"):
        x, terms = _argument(w, alpha, alpha == 1.0)
        if len(w) < _BULK_ROWS:
            values, replay = np.empty(len(w)), range(len(w))
        else:
            values, replay = _bulk_outer(x, alpha, beta)
    errors = {}
    for i in replay:
        a, b = alpha.item(i), beta.item(i)
        try:
            values[i] = _OUTER[(a != 1.0) * 2 + (b != 1.0)](x.item(i), a, b)
        except (ValueError, OverflowError) as err:
            values[i] = math.nan
            errors[i] = err
    # A power sum's error comes before any error of the outer map.
    power = _power_errors(w, n, alpha, x, terms)
    for i in power:
        values[i] = math.nan
    errors.update(power)
    return values, errors


def _row(p: ProbabilityDistribution) -> np.ndarray:
    return np.array([p.weights])


def _raise_first(errors: dict[int, Exception]) -> None:
    if errors:
        raise errors[min(errors)]


def g_alpha(p: ProbabilityDistribution, alpha: float) -> float:
    """The power sum sum_i p_i^alpha over the support, smallest weights first.

    This is the argument fed to ``h_alpha_beta`` and equals
    (1 - alpha) T_alpha(p) + 1 where T is the Tsallis entropy.  Zero weights
    contribute nothing for alpha >= 0 (in particular the alpha = 0 sum is
    the support size) and are rejected for alpha < 0.
    """
    w = _row(p)
    alphas = np.array([float(alpha)])
    with np.errstate(all="ignore"):
        x, terms = _argument(w, alphas, np.array([False]))
    _raise_first(_power_errors(w, None, alphas, x, terms))
    return float(x[0])


def shannon(p: ProbabilityDistribution) -> float:
    """Shannon entropy in bits."""
    return float(_argument(_row(p), np.array([1.0]), np.array([True]))[0][0])


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
    value; at beta = 1 it degenerates to ln(2) x.  Defined for x >= 0.
    """
    x, beta = float(x), float(beta)
    return _OUTER[_SHANNON if beta == 1.0 else _PHI](x, 1.0, beta)


def h_alpha_beta(x: float, params: EntropyParams) -> float:
    """The map (x^((1-beta)/(1-alpha)) - 1) / (1-beta) applied to a power sum.

    Requires alpha and beta both different from 1; those limits have their
    own closed forms in :func:`sharma_mittal`.  Defined for x > 0.
    """
    if params.alpha == 1.0 or params.beta == 1.0:
        raise DegenerateParamsError("h_alpha_beta needs alpha and beta away from 1")
    return _h_outer(float(x), params.alpha, params.beta)


def sharma_mittal(p: ProbabilityDistribution, params: EntropyParams) -> float:
    """Evaluate the family at ``params``, choosing the branch by exact value.

    Branches:

    * alpha = 1: ``phi_beta`` of the Shannon entropy, which is ln(2) times
      Shannon at beta = 1
    * beta = 1: ln(2) times the Renyi entropy of order alpha (any alpha != 1
      including negative orders, which need full support)
    * otherwise: ``h_alpha_beta(g_alpha(p))``, which at beta = alpha is the
      Tsallis form (1 - g_alpha) / (alpha - 1) up to rounding

    Negative alpha with a zero weight raises.  Rows of many distributions,
    each at its own (alpha, beta), go through :func:`family_rows`.
    """
    values, errors = family_rows(_row(p), params.alpha, params.beta)
    _raise_first(errors)
    return float(values[0])


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
