"""Gumbel, Logistic and Normal families: exact densities, sampling, MLE.

Everything here is a pure function of its inputs and does no file I/O
(reading and writing value CSVs is the CLI's job).  Sampling is inverse-CDF
over a counter-based (Philox) generator keyed by the seed, so results are
reproducible across platforms and thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DegenerateDataError, DomainError

# Euler-Mascheroni constant; the mean of a standard Gumbel is exactly this.
EULER_MASCHERONI = 0.57721566490153286061

_TWO53 = float(1 << 53)


class Family(str, Enum):
    GUMBEL = "gumbel"
    LOGISTIC = "logistic"
    NORMAL = "normal"


@dataclass(frozen=True)
class DistSpec:
    """A location-scale law from one of the three supported families."""

    family: Family
    location: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "location", float(self.location))
        object.__setattr__(self, "scale", float(self.scale))
        if not math.isfinite(self.location):
            raise DomainError(f"location must be finite, got {self.location}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class SampleBatch:
    """An ordered batch of finite real values."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("SampleBatch requires a non-empty 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise DomainError("SampleBatch values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @cached_property
    def sorted(self) -> np.ndarray:
        """The values in ascending order: a read-only copy, sorted once per batch."""
        out = np.sort(self.values)
        out.setflags(write=False)
        return out

    @cached_property
    def _standardised(self) -> tuple[float, float, np.ndarray]:
        # (mean, std, z = (x - mean) / std) with z read-only, built once per
        # batch for all its fits; a batch without spread raises on every call
        x = self.values
        if x.min() == x.max():
            raise DegenerateDataError("fit_mle requires at least 2 distinct values")
        with np.errstate(over="ignore", invalid="ignore"):
            m, sd = float(np.mean(x)), float(np.std(x))
        if not (math.isfinite(sd) and sd > 0):
            raise DomainError(f"fit_mle needs a standard deviation that is finite and positive "
                              f"in float64, got {sd}")
        z = np.subtract(x, m)
        z /= sd
        z.setflags(write=False)
        return m, sd, z


# ---------------------------------------------------------------------------
# Densities, CDFs, quantiles
# ---------------------------------------------------------------------------

def pdf(d: DistSpec, x):
    """Density of ``d`` at ``x`` (scalar or array)."""
    # z overflows to +-inf far out in either tail, and so does the Gumbel
    # exp(-z) in the left tail: the density there is exactly 0
    with np.errstate(over="ignore"):
        z = (np.asarray(x, dtype=float) - d.location) / d.scale
        if d.family is Family.GUMBEL:
            # below -1e3 the density is already 0; the clip keeps z = -inf
            # from meeting exp(-z) = inf in a NaN
            z = np.maximum(z, -1e3)
            out = np.exp(-(z + np.exp(-z))) / d.scale
        elif d.family is Family.LOGISTIC:
            # exp(-|z|)/(1+exp(-|z|))^2 is symmetric and avoids overflow
            e = np.exp(-np.abs(z))
            out = e / (d.scale * (1.0 + e) ** 2)
        else:
            out = np.exp(-0.5 * z * z) / (d.scale * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


def cdf(d: DistSpec, x):
    """CDF of ``d`` at ``x`` (scalar or array)."""
    from scipy.special import expit, ndtr

    # z is formed once, in a fresh array, and each transform writes into it;
    # z overflows to +-inf far out in either tail, and so does the Gumbel
    # exp(-z) in the left tail: the CDF there is exactly 0 or 1
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        z = np.subtract(x, d.location, out=np.empty(x.shape))
        z /= d.scale
        if d.family is Family.GUMBEL:
            np.negative(z, out=z)
            np.exp(z, out=z)
            np.negative(z, out=z)
            np.exp(z, out=z)
        elif d.family is Family.LOGISTIC:
            expit(z, out=z)
        else:
            ndtr(z, out=z)
    return z if z.ndim else float(z)


def quantile(d: DistSpec, p):
    """Inverse CDF of ``d``; defined for p strictly inside (0, 1)."""
    from scipy.special import logit, ndtri

    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise DomainError("quantile requires 0 < p < 1")
    if d.family is Family.GUMBEL:
        out = d.location - d.scale * np.log(-np.log(p_arr))
    elif d.family is Family.LOGISTIC:
        out = d.location + d.scale * logit(p_arr)
    else:
        out = d.location + d.scale * ndtri(p_arr)
    return out if out.ndim else float(out)


def _check_int(value, name: str) -> None:
    # a count, index or seed is an int or numpy integer; a float, even an
    # integral one, would be truncated or fail deep inside numpy
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def _check_seed(seed) -> None:
    # a Philox key is an integer in [0, 2**128)
    _check_int(seed, "seed")
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")


def uniform_open(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n deterministic uniforms strictly inside (0, 1) from a Philox stream.

    The (seed, stream) pair fully determines the output; distinct streams from
    one seed are independent.  Each value is (k + 1/2) / 2**53 for a 53-bit
    integer k: ``random`` gives k / 2**53 exactly, and adding 2**-54 rounds
    the same real number as the integer formula does, so the bits agree.
    """
    _check_seed(seed)
    if n < 0:
        raise DomainError(f"number of uniforms must be >= 0, got {n}")
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, stream]))
    out = gen.random(n)
    out += 0.5 / _TWO53
    return out


def normal_max_quantile(u, n: float) -> np.ndarray:
    """Quantile of the max of n i.i.d. standard Normals at probability u.

    P(max <= x) = Phi(x)^n, so the quantile is Phi^-1(u^(1/n)).  It is
    evaluated as -Phi^-1(1 - u^(1/n)) with the complement formed by expm1,
    which keeps its digits when u^(1/n) is close to 1 (large n).
    """
    from scipy.special import ndtri

    return -ndtri(-np.expm1(np.log(u) / n))


def sample(d: DistSpec, n: int, seed: int) -> SampleBatch:
    """Draw n values from ``d`` by inverse CDF; deterministic per (d, n, seed)."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    u = uniform_open(seed, n)
    return SampleBatch(quantile(d, u))


# ---------------------------------------------------------------------------
# Maximum-likelihood fitting
# ---------------------------------------------------------------------------

# Newton iteration budget of the Gumbel and Logistic fits
_MAX_NEWTON = 200


def _logistic_loglik(t: np.ndarray, scale: float, a: np.ndarray, e: np.ndarray) -> float:
    # Log-likelihood from the standardised residuals t = (x - loc) / scale:
    # -t - 2 log(1+exp(-t)) written in the overflow-safe even form.  a and e
    # are scratch arrays of t's shape; the MLE's line search passes its trial
    # residuals, which the next Newton step reuses.
    np.abs(t, out=a)
    np.negative(a, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    return -t.size * math.log(scale) - float(np.sum(a)) - 2.0 * float(np.sum(e))


def log_likelihood(d: DistSpec, data: np.ndarray) -> float:
    """Total log-likelihood of ``data`` under ``d``."""
    # z overflows to +-inf far out in either tail, and so does the Gumbel
    # exp(-z) in the left tail; the exact value there is -inf
    with np.errstate(over="ignore"):
        z = (np.asarray(data, dtype=float) - d.location) / d.scale
        if d.family is Family.LOGISTIC:
            return _logistic_loglik(z, d.scale, np.empty_like(z), np.empty_like(z))
        n = z.size
        if d.family is Family.GUMBEL:
            # an infinite exp(-z) sum decides, even where -sum(z) is +inf
            tail = float(np.sum(np.exp(-z)))
            if tail == math.inf:
                return -math.inf
            return float(-n * math.log(d.scale) - np.sum(z) - tail)
        return float(-n * math.log(d.scale) - 0.5 * n * math.log(2.0 * math.pi)
                     - 0.5 * np.sum(z * z))


def _fit_gumbel_std(z: np.ndarray) -> tuple[float, float]:
    # Profile likelihood: for fixed scale the location is closed-form, and the
    # remaining 1-D score  g(s) = s - mean(z) + sum(z w)/sum(w),  w = exp(-z/s),
    # is strictly increasing in s, with g(0+) = min(z) - mean(z) < 0 and
    # g(s) -> inf.  The signs of g seen so far bracket the root in [lo, hi];
    # a Newton step that leaves the bracket is replaced by doubling s (while
    # no upper end is known) or by bisection, so the fit converges from any
    # start.  The tolerance is tested on the raw Newton step, before that guard,
    # so a rounding-level last step is taken as it is, not bisected.  The
    # weights w go to a buffer allocated once, and the weighted sums are
    # one-pass einsum reductions.  Division rounds monotonically, so the
    # largest -z/s is -min(z)/s, found without a pass over w.
    sd = float(np.std(z))
    s = sd * math.sqrt(6.0) / math.pi
    zbar = float(np.mean(z))
    zmin = float(z.min())
    zz = np.multiply(z, z)
    w = np.empty_like(z)
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_NEWTON):
        np.divide(z, -s, out=w)
        w -= -zmin / s
        np.exp(w, out=w)
        sw = float(np.sum(w))
        m1 = float(np.einsum("i,i->", z, w)) / sw
        m2 = float(np.einsum("i,i->", zz, w)) / sw
        g = s - zbar + m1
        if g < 0.0:
            lo = s
        elif g > 0.0:
            hi = s
        gp = 1.0 + (m2 - m1 * m1) / (s * s)
        step = g / gp
        new = s - step
        if abs(step) < 1e-10 * max(1.0, abs(new)) and new > 0.0:
            s = new
            break
        if not lo < new < hi:
            new = 2.0 * s if hi == math.inf else 0.5 * (lo + hi)
        s = new
    else:
        raise ConvergenceError(f"Gumbel MLE did not converge in {_MAX_NEWTON} Newton steps "
                               f"(scale bracket [{lo}, {hi}] in standard units)")
    m = -zmin / s
    np.divide(z, -s, out=w)
    w -= m
    np.exp(w, out=w)
    loc = -s * (m + math.log(float(np.mean(w))))
    return loc, s


# A line-search trial is accepted if it loses at most this many eps times
# |log-likelihood| + n, the rounding level of a sum of n terms of that size:
# a finer test halves converged steps until they round back to the start.
_LL_SLACK_EPS = 64.0 * np.finfo(float).eps


def _fit_logistic_std(z: np.ndarray) -> tuple[float, float]:
    # Two-parameter Newton on (location, scale) with analytic score/Hessian and
    # step halving, so that every accepted point keeps the log-likelihood of
    # the previous one up to its rounding level and never drops below the
    # moment start.  Where the Hessian is not negative definite, the fallback
    # gradient step is bounded: the scale at most halves or doubles and the
    # location moves by at most one scale.  A step under the tolerance is
    # taken as it is, without a trial.  The residuals t of the accepted trial
    # step, and their log-likelihood, carry over to the next iteration.  Four
    # buffers serve the whole fit: the residuals t, the trial residuals t_new
    # (also scratch for t w), and u, w (also scratch for the log-likelihood);
    # an accepted trial swaps t and t_new.
    n = z.size
    loc = float(np.mean(z))
    s = max(float(np.std(z)) * math.sqrt(3.0) / math.pi, 1e-12)
    t = np.subtract(z, loc)
    t /= s
    t_new, u, w = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    start = cur = _logistic_loglik(t, s, u, w)
    for _ in range(_MAX_NEWTON):
        np.multiply(t, 0.5, out=u)
        np.tanh(u, out=u)
        np.multiply(u, u, out=w)  # w = d tanh(t/2)/dt = (1 - u^2) / 2
        np.subtract(1.0, w, out=w)
        w *= 0.5
        sum_u = float(np.sum(u))
        sum_tu = float(np.einsum("i,i->", t, u))
        sum_tw = float(np.sum(np.multiply(t, w, out=t_new)))
        sum_ttw = float(np.einsum("i,i->", t, t_new))
        g_loc = sum_u / s
        g_s = (sum_tu - n) / s
        h_ll = -float(np.sum(w)) / (s * s)
        h_ls = -(sum_u + sum_tw) / (s * s)
        h_ss = (n - 2.0 * sum_tu - sum_ttw) / (s * s)
        det = h_ll * h_ss - h_ls * h_ls
        if det <= 0.0 or h_ll >= 0.0:
            d_loc = min(max(g_loc / max(-h_ll, 1e-12), -s), s)
            d_s = min(max(g_s / max(-h_ss, 1e-12), -0.5 * s), s)
        else:
            d_loc = -(h_ss * g_loc - h_ls * g_s) / det
            d_s = -(h_ll * g_s - h_ls * g_loc) / det
        lo_new, s_new = loc + d_loc, s + d_s
        if max(abs(d_loc), abs(d_s)) < 1e-10 * max(1.0, abs(lo_new), s_new) and s_new > 0.0:
            return lo_new, s_new
        slack = _LL_SLACK_EPS * (abs(cur) + n)
        scale_step = 1.0
        for _ in range(60):
            lo_new = loc + scale_step * d_loc
            s_new = s + scale_step * d_s
            if s_new > 0.0:
                np.subtract(z, lo_new, out=t_new)
                t_new /= s_new
                ll = _logistic_loglik(t_new, s_new, u, w)
                if ll >= cur - slack and ll >= start:
                    break
            scale_step *= 0.5
        else:
            raise ConvergenceError("Logistic MLE line search found no step that keeps the "
                                   "log-likelihood after 60 halvings")
        moved = max(abs(scale_step * d_loc), abs(scale_step * d_s))
        loc, s, t, t_new, cur = lo_new, s_new, t_new, t, ll
        if moved < 1e-10 * max(1.0, abs(loc), s):
            return loc, s
    raise ConvergenceError(f"Logistic MLE did not converge in {_MAX_NEWTON} Newton steps")


def fit_mle(family: Family, data: SampleBatch) -> DistSpec:
    """Maximum-likelihood fit of ``family`` to ``data``.

    Gumbel and Logistic use Newton iterations from moment-matched starting
    values (at most 200 iterations).  Both stop on the same rule: once a raw
    Newton step is below 1e-10 relative (and keeps the scale positive), it
    is taken as it is, unevaluated, and the fit returns.  The Gumbel Newton
    steps are safeguarded by a bracket on the root of the profile score, so
    they converge from any start.  The Logistic steps are halved until the
    trial's log-likelihood is at least the start's and loses at most
    64 eps (|log-likelihood| + n) against the current point, the rounding
    level of the log-likelihood's sum; a stricter test would halve steps
    that float64 can no longer tell apart.  So every accepted Logistic point
    is at or above the starting log-likelihood, and the returned one differs
    from the last accepted one by a step under the tolerance.  Where the
    Logistic Hessian is not negative definite (heavy tails), the fallback
    gradient step at most halves or doubles the scale and moves the location
    by at most one scale.  A fit that reaches the iteration limit, or whose
    Logistic line search finds no acceptable step, raises
    ``ConvergenceError``.  Normal is closed-form (sample mean, population
    standard deviation).  Data with a single distinct value raise
    ``DegenerateDataError``; data whose standard deviation overflows or
    underflows float64 raise ``DomainError``.
    """
    family = Family(family)
    # Standardize so the solver sees O(1) numbers; this also makes the fit
    # exactly equivariant under affine maps of the data.  The batch does it
    # once for all its fits.
    m, sd, z = data._standardised
    if family is Family.NORMAL:
        return DistSpec(family, m, sd)
    if family is Family.GUMBEL:
        loc, s = _fit_gumbel_std(z)
    else:
        loc, s = _fit_logistic_std(z)
    return DistSpec(family, m + sd * loc, sd * s)
