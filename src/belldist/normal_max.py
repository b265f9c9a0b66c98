"""Gumbel approximation of the maximum of N standard Normal draws.

The limiting Gumbel shape for Normal maxima is approached very slowly, so a
finite-N approximation matters.  The construction used here writes the
density as the nu = 2 member of the exponential family
``f(x) = D0 * exp(-C * |x|^nu)`` and solves the leading-order level equation
with the Lambert W function, then corrects scale and location with short
asymptotic series in inverse powers of the Lambert root.

The series are asymptotic: below roughly N = 90 the highest-order terms
dominate rather than correct, and the output degrades sharply (the scale can
even go negative for N < 20).  Callers working at small N should check the
returned values against a Monte Carlo reference, e.g. via the CLI's
``normal-max --mc`` flag.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy.special import lambertw

from .errors import DomainError

_LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class NormalMaxParams:
    """Gumbel(location=b_n, scale=a_n) approximation for max of n Normals.

    ``intermediates`` records the exponential-family constants and the
    Lambert-W root the series are built from.
    """

    n: int
    nu: float
    a_n: float
    b_n: float
    intermediates: dict


def normal_max_gumbel(n: int) -> NormalMaxParams:
    """Gumbel parameters approximating the law of max of n standard Normals.

    The constants are theta = 1, C = 1/2, D0 = 1/sqrt(2*pi), D1 = -1, D2 = 3,
    and the Lambert root satisfies beta = sqrt(W0((D0*n)^2)), i.e.
    n * D0 * exp(-C*beta^2) / (2*C*beta) = 1.  An n whose (D0*n)^2 exceeds
    float64 raises ``DomainError``.
    """
    if n < 2:
        raise DomainError(f"normal_max_gumbel requires n >= 2, got {n}")
    # the standard Normal density is D0 * exp(-C * |x|^nu) at nu = 2, with
    # theta = nu - 1; D0 is C^((1 - nu)/nu) / (2 * Gamma(1/nu)) written so that
    # it keeps that formula's bits (1/sqrt(2*pi) is one ulp below it)
    nu, theta, c, d1, d2 = 2.0, 1.0, 0.5, -1.0, 3.0
    d0 = 0.5**-0.5 / (2.0 * math.sqrt(math.pi))
    # refuse a Lambert-W argument beyond float64 instead of letting the power
    # overflow; log(n) also takes integers too large for a float
    if 2.0 * (math.log(n) + math.log(d0)) > _LOG_DBL_MAX:
        raise DomainError(f"normal_max_gumbel(n={n}): the Lambert-W argument exceeds float64")
    w_arg = (nu * c / theta) * (d0 * n) ** (nu / theta)
    # w_arg > 0, so W0 is real and away from its branch point at -1/e
    beta = (theta / (nu * c)) * float(lambertw(w_arg).real) ** (1.0 / nu)

    b2, b4, b6 = beta**2, beta**4, beta**6
    a_n = (
        1.0
        / (2.0 * c * beta)
        * (
            1.0
            - theta / (2.0 * c * b2)
            + (theta**2 - 6.0 * c * d1) / (4.0 * c**2 * b4)
            - (2.0 * theta**3 - 32.0 * theta * c * d1 - 20.0 * c**2 * (d1**2 - 2.0 * d2))
            / (16.0 * c**3 * b6)
        )
    )
    b_n = beta * (
        1.0
        + d1 / (2.0 * c * b4)
        - (2.0 * theta * d1 + 2.0 * c * (d1**2 - 2.0 * d2)) / (16.0 * c**3 * b6)
    )
    return NormalMaxParams(
        n=n,
        nu=nu,
        a_n=a_n,
        b_n=b_n,
        intermediates={
            "theta": theta,
            "c": c,
            "d0": d0,
            "d1": d1,
            "d2": d2,
            "beta_n": beta,
        },
    )
