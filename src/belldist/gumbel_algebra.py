"""Closed-form Gumbel algebra and the discount-mismatch KL bound.

The three algebra rules: an affine map k*X + c of a Gumbel stays Gumbel; the
max of independent equal-scale Gumbels is Gumbel with a log-sum-exp location;
the difference of two independent equal-scale Gumbels is Logistic.  On top of
those sit upper bounds for E[exp(-X)] and E[X exp(-X)] under Gumbel(a, 1), and
a closed-form bound on KL(Gumbel(g*a, g*b) || Gumbel(a, b)) for a discount
g in (0, 1), reported next to the exact KL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import EULER_MASCHERONI, DistSpec, Family, _logsumexp
from .errors import DomainError, ScaleMismatchError, _as_real, _check_positive, _real_values

# Constant from bounding int exp(-(2x+e^-x)) dx piecewise over
# (-inf,-5], [-5,0], [0,inf):  20/e^2 + 10*exp(-sqrt(e)) + 1/2 - 1/(2e).
EXP_MOMENT_CONST = (
    20.0 / math.e**2 + 10.0 * math.exp(-math.exp(0.5)) + 0.5 - 0.5 / math.e
)


def gumbel_shift_scale(d: DistSpec, c: float, k: float) -> DistSpec:
    """Law of k*X + c for X ~ d (Gumbel); requires a finite k > 0."""
    _require_gumbel(d, "gumbel_shift_scale")
    k = _check_positive(k, "scale factor")
    return DistSpec(Family.GUMBEL, k * d.location + _as_real(c, "shift"), k * d.scale)


def gumbel_max(locations, beta: float) -> DistSpec:
    """Law of max_i X_i for independent X_i ~ Gumbel(locations[i], beta).

    The location is beta * logsumexp(locations / beta) over all locations,
    computed with max-subtraction so large location/beta ratios cannot
    overflow; a ratio beyond float64 itself raises DomainError.
    """
    locs = _real_values(locations, "locations")
    if locs.size == 0:
        raise DomainError("gumbel_max requires at least one location")
    beta = _check_positive(beta, "beta")
    # raveled in memory order, the order in which scipy's sum over every axis added them
    return DistSpec(Family.GUMBEL, beta * float(_logsumexp(locs.ravel(order="K"), beta)), beta)


def gumbel_difference(x: DistSpec, y: DistSpec) -> DistSpec:
    """Law of X - Y for independent Gumbels with equal scales.

    The closure into the Logistic family is exact only for equal scales (the
    sum X + Y is *not* Logistic), so unequal scales are an error; a relative
    tolerance of 1e-12 admits inputs that differ by floating-point round-off only.
    """
    _require_gumbel(x, "gumbel_difference")
    _require_gumbel(y, "gumbel_difference")
    if abs(x.scale - y.scale) > 1e-12 * max(abs(x.scale), abs(y.scale)):
        raise ScaleMismatchError(
            f"gumbel_difference requires equal scales, got {x.scale} and {y.scale}"
        )
    return DistSpec(Family.LOGISTIC, x.location - y.location, x.scale)


def gumbel_exp_moment_bounds(a: float) -> tuple[float, float]:
    """Upper bounds for E[exp(-X)] and E[X exp(-X)] when X ~ Gumbel(a, 1).

    Returns ``(bound_exp, bound_xexp)``.  Both are strict upper bounds, not
    suprema:  the exact moments are exp(-a) and (a + v - 1) exp(-a), with v
    the Euler-Mascheroni constant.  An ``a`` at which either bound is not
    finite in float64 (NaN, an infinity, a below about -708 or above about
    3.6e307) raises ``DomainError``.
    """
    a = _as_real(a, "a")
    try:
        e = math.exp(-a)
    except OverflowError:
        e = math.inf
    bound_exp = EXP_MOMENT_CONST * e
    if a > 0:
        bound_xexp = (0.15 + a * EXP_MOMENT_CONST) * e
    else:
        bound_xexp = 0.15 * e
    if not (bound_exp < math.inf and bound_xexp < math.inf):
        raise DomainError(f"the exp-moment bounds at a = {a} are not finite in float64")
    return bound_exp, bound_xexp


class KlBranch(str, Enum):
    A_POSITIVE = "APositive"
    A_NONPOSITIVE = "ANonpositive"


@dataclass(frozen=True)
class KlBoundReport:
    """Closed-form KL bound next to the exact KL (``numeric_kl``)."""

    a_star: float
    gamma: float
    bound: float
    numeric_kl: float
    branch: KlBranch

    @property
    def dominated(self) -> bool:
        return self.numeric_kl <= self.bound

    def to_json(self) -> str:
        return json.dumps(
            {
                "a_star": self.a_star,
                "gamma": self.gamma,
                "bound": self.bound,
                "numeric_kl": self.numeric_kl,
                "branch": self.branch.value,
                "dominated": self.dominated,
            },
            sort_keys=True,
        )


def kl_numeric(a: float, b: float, gamma: float) -> float:
    """Exact KL(Gumbel(gamma*a, gamma*b) || Gumbel(a, b)) in closed form.

    With a* = a/b and v the Euler-Mascheroni constant, the Gumbel moment
    generating function E[exp(-g Z)] = Gamma(1+g) for standard Gumbel Z gives

        KL = -log(g) - (1-g)(a* + v) + exp((1-g) a* + lgamma(1+g)) - 1,

    evaluated with expm1 so the small-(1-g) cancellation keeps its digits.
    The result depends on (a/b, gamma) only.  A non-finite a* or a KL beyond
    the float64 range raises DomainError.
    """
    b = _check_positive(b, "scale b")
    gamma = _check_positive(gamma, "gamma", 1.0)
    a_star = _as_real(a, "a") / b
    if not math.isfinite(a_star):
        raise DomainError(f"a/b must be finite, got {a_star}")
    exponent = (1.0 - gamma) * a_star + math.lgamma(1.0 + gamma)
    try:
        grown = math.expm1(exponent)
    except OverflowError:
        raise DomainError(
            f"KL overflows float64 at a/b={a_star}, gamma={gamma} "
            f"((1-gamma)*a/b + lgamma(1+gamma) = {exponent:.6g})"
        ) from None
    val = -math.log(gamma) - (1.0 - gamma) * (a_star + EULER_MASCHERONI) + grown
    return max(val, 0.0)


def kl_bound(a_star: float, gamma: float) -> KlBoundReport:
    """Closed-form upper bound for the discount-mismatch KL at ratio a_star.

    For a_star > 0 the bound is
        log(1/g) + (1-g) * [a_star*(EXP_MOMENT_CONST - 1) + 3/20 - v],
    and for a_star <= 0
        log(1/g) + (1-g) * [3/20 - a_star - v].
    The report also carries the exact KL from ``kl_numeric``; the bound
    genuinely dominates only when (1-g)*a_star is small (the regime the
    derivation assumes), which is why the report exposes both numbers instead
    of asserting the comparison.  Both numbers, the branch and the report
    use ``a_star`` and ``gamma`` as Python floats.
    """
    gamma = _check_positive(gamma, "gamma", 1.0)
    a_star = _as_real(a_star, "a_star")
    numeric = kl_numeric(a_star, 1.0, gamma)  # checks that a_star is finite
    v = EULER_MASCHERONI
    # 1/gamma overflows for a subnormal gamma, whose -log(gamma) is finite
    log_inv = math.log(1.0 / gamma) if 1.0 / gamma < math.inf else -math.log(gamma)
    if a_star > 0:
        branch = KlBranch.A_POSITIVE
        bound = log_inv + (1.0 - gamma) * (a_star * (EXP_MOMENT_CONST - 1.0) + 0.15 - v)
    else:
        branch = KlBranch.A_NONPOSITIVE
        bound = log_inv + (1.0 - gamma) * (0.15 - a_star - v)
    return KlBoundReport(a_star=a_star, gamma=gamma, bound=bound, numeric_kl=numeric, branch=branch)


def _require_gumbel(d: DistSpec, op: str) -> None:
    if d.family is not Family.GUMBEL:
        raise DomainError(f"{op} requires a Gumbel input, got {d.family.value}")
