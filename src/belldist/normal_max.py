"""Gumbel approximation of the maximum of N standard Normal draws.

The limiting Gumbel shape for Normal maxima is approached very slowly, so a
finite-N approximation matters.  The standard Normal density is the nu = 2
member of the exponential family ``f(x) = D0 * exp(-C * |x|^nu)``, with
C = 1/2 and D0 = 1/sqrt(2*pi).  Its level equation is solved with the Lambert
W function, beta = sqrt(W0((D0*N)^2)), and the paper's asymptotic series in
inverse powers of beta, taken at nu = 2, give the scale and location

    a_N = (1 - 1/beta^2 + 4/beta^4 - 43/(2 beta^6)) / beta,
    b_N = beta * (1 - 1/beta^4 + 7/(2 beta^6)).

The series are asymptotic: below roughly N = 90 the highest-order terms
dominate rather than correct, and the output degrades sharply (the scale can
even go negative for N < 20).  Callers working at small N should check the
returned values against a Monte Carlo reference, e.g. via the CLI's
``normal-max --mc`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _check_count, _shown


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

    The Lambert root beta = sqrt(W0((D0*n)^2)) satisfies
    n * D0 * exp(-beta^2/2) / beta = 1.  An n whose (D0*n)^2 exceeds
    float64 raises ``DomainError``.
    """
    from scipy.special import lambertw

    _check_count(n, "n", 2)
    # D0 = C^((1 - nu)/nu) / (2 * Gamma(1/nu)) at nu = 2, written so that it
    # keeps that formula's bits (1/sqrt(2*pi) is one ulp below it)
    d0 = 0.5**-0.5 / (2.0 * math.sqrt(math.pi))
    try:  # the float product or power overflows for n beyond float64's reach
        w_arg = (d0 * n) ** 2
    except OverflowError:
        raise DomainError(
            f"normal_max_gumbel(n={_shown(n)}): the Lambert-W argument exceeds float64") from None
    # w_arg > 0, so W0 is real and away from its branch point at -1/e
    beta = float(lambertw(w_arg).real) ** 0.5

    b2, b4, b6 = beta**2, beta**4, beta**6
    a_n = 1.0 / beta * (1.0 - 1.0 / b2 + 4.0 / b4 - 43.0 / (2.0 * b6))
    b_n = beta * (1.0 - 1.0 / b4 + 7.0 / (2.0 * b6))
    return NormalMaxParams(
        n=n,
        nu=2.0,
        a_n=a_n,
        b_n=b_n,
        intermediates={"theta": 1.0, "c": 0.5, "d0": d0, "d1": -1.0, "d2": 3.0, "beta_n": beta},
    )
