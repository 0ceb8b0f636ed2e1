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

Conventions: 0^alpha = 0 for alpha >= 0 in power sums (the alpha = 0 sum
counts the support), a zero weight at alpha < 0 is a hard error, not an
infinity, and each value has 0.0 added, so a zero reads +0.0, not -0.0.

Last-bit policy: float values come from two paths with the same
operations in the same order.  The scalar functions here evaluate one
distribution term by term in Python floats, and :func:`family_rows`, the
row kernel behind sweeps, evaluates many rows at once, each at its own
(alpha, beta).  Powers, logarithms and ``expm1`` come from the C library on
both paths: numpy's vector loops for them round some results differently,
so the row kernel maps :mod:`math`'s over its rows and takes powers from
``np.float_power``, which calls ``pow`` element by element as Python's
``**`` does.  numpy does only correctly rounded arithmetic, and sums run
one term at a time, smallest weight first, so a value has the same bits on
either path, whatever the number of rows and the host's vector unit are.
Only the row kernel imports numpy.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .simplex import FrozenValue, ProbabilityDistribution, _set, tensor_product

if TYPE_CHECKING:
    import numpy as np

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
    """``math.isfinite``, False for an int too large for a float and for a
    value it refuses as not a number."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


class EntropyParams(FrozenValue):
    """A validated (alpha, beta) pair of finite floats.

    A value of exactly 1 selects the limit toward 1 in :func:`sharma_mittal`
    and any other value is evaluated as it stands; ``alpha_kind`` and
    ``beta_kind`` name that reading (``"limit-1"`` or ``"finite"``).
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float) -> None:
        if not (is_finite(alpha) and is_finite(beta)):
            raise DegenerateParamsError(
                f"alpha and beta must be finite, got ({alpha!r}, {beta!r})"
            )
        _set(self, "alpha", float(alpha))
        _set(self, "beta", float(beta))

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


def _mapped(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each entry of the 1-d ``x``, called on Python floats.  A
    memoryview yields them one at a time, without ``tolist``'s list."""
    import numpy as np

    return np.fromiter(map(f, memoryview(x)), float, x.size)


def _argument(w: np.ndarray, alpha: np.ndarray, logged: np.ndarray):
    """(x, terms): per row of ``w``, the Shannon entropy in bits where
    ``logged``, else the power sum at the row's ``alpha``, and the terms
    summed.  No power or logarithm is taken of a zero weight, so zero
    weights add nothing and call no C library function.  The rows are
    summed a column at a time, last column first: the scalar loop's order.
    """
    import numpy as np

    positive = w > 0.0
    logs, powers = positive & logged[:, None], positive & ~logged[:, None]
    terms = np.zeros(w.shape)
    g = w[logs]
    # -(g log2 g), negated exactly before the sum: the sum is then
    # 0.0 minus the sum of the g log2 g, bit for bit.
    terms[logs] = (0.0 - _mapped(math.log2, g)) * g
    np.float_power(w, alpha[:, None], out=terms, where=powers)
    x = terms[:, -1].copy()
    for column in terms.T[-2::-1]:
        x += column
    return x, terms


def _outer(x: float, alpha: float, beta: float) -> float:
    """The family value, + 0.0, from its argument (Shannon in bits at
    alpha = 1, else the power sum) by :func:`sharma_mittal`'s branches, in
    Python floats, which raise where the C library signals an error."""
    if alpha == 1.0:
        if not x >= 0.0:
            raise ValueError(f"phi_beta is defined for x >= 0, got {x!r}")
        return (LN2 * x if beta == 1.0 else math.expm1((1.0 - beta) * x * LN2) / (1.0 - beta)) + 0.0
    if beta == 1.0:
        return math.log(x) / (1.0 - alpha) + 0.0
    if not x > 0.0:
        raise ValueError(f"h_alpha_beta needs x > 0, got {x!r}")
    return math.expm1((1.0 - beta) / (1.0 - alpha) * math.log(x)) / (1.0 - beta) + 0.0


#: Largest ``expm1`` argument that :func:`family_rows`' bulk pass settles.
#: ``math.expm1`` overflows just past log(DBL_MAX) = 709.78, so the rows
#: beyond this bound go through :func:`_outer`, which gives math's value or
#: its OverflowError.
_EXPM1_BOUND = 709.0


def family_rows(
    w: np.ndarray, alpha: np.ndarray, beta: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(values, failed): the family value of each row of ``w``, and a mask
    of the rows on which :func:`sharma_mittal` raises, whose values are nan.

    ``w`` is (k, m) and row i holds a non-increasing distribution in its
    first ``n[i]`` entries, zero-padded past them, evaluated at
    ``(alpha[i], beta[i])`` with :func:`sharma_mittal`'s branches and bits
    (the module's last-bit policy).  No error is built here: a sweep replays
    a flagged row to raise it (:func:`majent.engine._replay`).

    The padding cannot move a bit: no power or logarithm is taken of it,
    the smallest-first sums add its zero terms before any real term, and
    the zero-weight rule reads each row's last real entry, which is what
    ``n`` is for.
    """
    import numpy as np

    a1, b1 = alpha == 1.0, beta == 1.0
    with np.errstate(all="ignore"):
        x, terms = _argument(w, alpha, a1)
        # _outer on every row at once: numpy does its arithmetic in its
        # order, which gives Python's float bits, and math's log and expm1
        # are mapped.  A row outside the log's or the Shannon forms' domain,
        # or with an expm1 argument above _EXPM1_BOUND, goes through _outer.
        one_a, one_b = 1.0 - alpha, 1.0 - beta
        replay = ~np.where(a1, x >= 0.0, x > 0.0)
        logs = np.zeros(len(x))
        at = ~(a1 | replay)
        logs[at] = _mapped(math.log, x[at])
        arg = np.where(a1, one_b * x * LN2, one_b / one_a * logs)
        replay |= ~b1 & (arg > _EXPM1_BOUND)
        values = np.where(a1, LN2 * x, logs / one_a)
        at = ~(b1 | replay)
        values[at] = _mapped(math.expm1, arg[at]) / one_b[at]
        values += 0.0
    # A zero weight at a negative order, and a power beyond the float range.
    failed = (w[np.arange(len(w)), n - 1] == 0.0) & (alpha < 0.0)
    if np.isinf(x).any():
        failed |= np.isinf(terms).any(axis=1)
    for i in np.flatnonzero(replay).tolist():
        try:
            values[i] = _outer(x.item(i), alpha.item(i), beta.item(i))
        except (ValueError, OverflowError):
            failed[i] = True
    values[failed] = math.nan
    return values, failed


def g_alpha(p: ProbabilityDistribution, alpha: float) -> float:
    """The power sum sum_i p_i^alpha over the support, smallest weights first.

    This is the argument fed to ``h_alpha_beta`` and equals
    (1 - alpha) T_alpha(p) + 1 where T is the Tsallis entropy.  Zero
    weights follow the module's conventions, and one at alpha < 0 raises
    before any power is taken.
    """
    alpha = float(alpha)
    if alpha < 0.0 and p.weights[-1] == 0.0:
        raise ZeroWeightNegativeAlphaError(
            f"zero weight is outside the domain for alpha = {alpha!r}"
        )
    x = 0.0
    for w in reversed(p.weights):
        if w > 0.0:
            x += w**alpha  # the C library's pow; OverflowError past the float range
    return x


def shannon(p: ProbabilityDistribution) -> float:
    """Shannon entropy in bits, summed smallest weights first."""
    x = 0.0
    for w in reversed(p.weights):
        if w > 0.0:
            # -(w log2 w), negated exactly, as a row of family_rows takes it
            x += (0.0 - math.log2(w)) * w
    return x


def renyi(p: ProbabilityDistribution, alpha: float) -> float:
    """Renyi entropy of order ``alpha >= 0``, in bits.

    Order 1 is Shannon, order 0 counts the support, order +inf is the
    min-entropy -log2(max weight).  A point mass reads +0.0 at every order.
    """
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise ValueError(f"Renyi order must be >= 0, got {alpha!r}")
    if alpha == 1.0:
        return shannon(p)
    if math.isinf(alpha):
        return 0.0 - math.log2(p.weights[0])
    return math.log2(g_alpha(p, alpha)) / (1.0 - alpha) + 0.0


def tsallis(p: ProbabilityDistribution, alpha: float) -> float:
    """Tsallis entropy of order ``alpha > 0`` (natural units).

    The boundary alpha = 0 is left undefined here on purpose: the formula
    degenerates to support size minus 1 and is no longer an entropy in any
    useful sense.  Order 1 is ln(2) times Shannon, and a point mass reads +0.0.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"Tsallis order must be > 0, got {alpha!r}")
    if alpha == 1.0:
        return LN2 * shannon(p)
    return (1.0 - g_alpha(p, alpha)) / (alpha - 1.0) + 0.0


def phi_beta(x: float, beta: float) -> float:
    """The strictly increasing map (2^((1-beta) x) - 1) / (1-beta).

    Composing it with the Renyi entropy of matching order gives the family
    value; at beta = 1 it degenerates to ln(2) x.  Defined for x >= 0.
    """
    return _outer(float(x), 1.0, float(beta))


def h_alpha_beta(x: float, params: EntropyParams) -> float:
    """The map (x^((1-beta)/(1-alpha)) - 1) / (1-beta) applied to a power sum.

    Requires alpha and beta both different from 1; those limits have their
    own closed forms in :func:`sharma_mittal`.  Defined for x > 0.
    """
    if params.alpha == 1.0 or params.beta == 1.0:
        raise DegenerateParamsError("h_alpha_beta needs alpha and beta away from 1")
    return _outer(float(x), params.alpha, params.beta)


def sharma_mittal(p: ProbabilityDistribution, params: EntropyParams) -> float:
    """Evaluate the family at ``params``, choosing the branch by exact value.

    Branches:

    * alpha = 1: ``phi_beta`` of the Shannon entropy, which is ln(2) times
      Shannon at beta = 1
    * beta = 1: ln(2) times the Renyi entropy of order alpha (any alpha != 1
      including negative orders, which need full support)
    * otherwise: ``h_alpha_beta(g_alpha(p))``, which at beta = alpha is the
      Tsallis form (1 - g_alpha) / (alpha - 1) up to rounding

    Negative alpha with a zero weight raises.  :func:`family_rows` is its
    row kernel.
    """
    alpha, beta = params.alpha, params.beta
    x = shannon(p) if alpha == 1.0 else g_alpha(p, alpha)
    return _outer(x, alpha, beta)


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
    power = g_alpha(p, alpha)  # raises at a zero weight for alpha < 0
    pi = p.weights[i]
    if pi == 0.0:
        if alpha < 1.0:
            raise ValueError("partial derivative diverges at a zero weight for alpha < 1")
        return 0.0
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
