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

import numpy as np

from .errors import DegenerateDataError, DomainError

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

    @property
    def mean(self) -> float:
        if self.family is Family.GUMBEL:
            return self.location + self.scale * EULER_MASCHERONI
        return self.location

    @property
    def std(self) -> float:
        if self.family is Family.GUMBEL:
            return self.scale * math.pi / math.sqrt(6.0)
        if self.family is Family.LOGISTIC:
            return self.scale * math.pi / math.sqrt(3.0)
        return self.scale


@dataclass(frozen=True)
class SampleBatch:
    """An ordered batch of finite real values, optionally tagged with the seed
    that generated it (None for external data)."""

    values: np.ndarray
    seed: int | None = None

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


# ---------------------------------------------------------------------------
# Densities, CDFs, quantiles
# ---------------------------------------------------------------------------

def pdf(d: DistSpec, x):
    """Density of ``d`` at ``x`` (scalar or array)."""
    z = (np.asarray(x, dtype=float) - d.location) / d.scale
    if d.family is Family.GUMBEL:
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

    z = (np.asarray(x, dtype=float) - d.location) / d.scale
    if d.family is Family.GUMBEL:
        out = np.exp(-np.exp(-z))
    elif d.family is Family.LOGISTIC:
        out = expit(z)
    else:
        out = ndtr(z)
    return out if out.ndim else float(out)


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


def uniform_open(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n deterministic uniforms strictly inside (0, 1) from a Philox stream.

    The (seed, stream) pair fully determines the output; distinct streams from
    one seed are independent.
    """
    if n < 0:
        raise DomainError(f"number of uniforms must be >= 0, got {n}")
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, stream]))
    return (gen.integers(0, 1 << 53, size=n).astype(float) + 0.5) / _TWO53


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
    return SampleBatch(quantile(d, u), seed=seed)


# ---------------------------------------------------------------------------
# Maximum-likelihood fitting
# ---------------------------------------------------------------------------

def log_likelihood(d: DistSpec, data: np.ndarray) -> float:
    """Total log-likelihood of ``data`` under ``d``."""
    z = (np.asarray(data, dtype=float) - d.location) / d.scale
    n = z.size
    if d.family is Family.GUMBEL:
        return float(-n * math.log(d.scale) - np.sum(z) - np.sum(np.exp(-z)))
    if d.family is Family.LOGISTIC:
        # -z - 2 log(1+exp(-z)) written in the overflow-safe even form
        return float(-n * math.log(d.scale) - np.sum(np.abs(z)) - 2.0 * np.sum(np.log1p(np.exp(-np.abs(z)))))
    return float(-n * math.log(d.scale) - 0.5 * n * math.log(2.0 * math.pi) - 0.5 * np.sum(z * z))


def _fit_gumbel_std(z: np.ndarray) -> tuple[float, float]:
    # Profile likelihood: for fixed scale the location is closed-form, and the
    # remaining 1-D score  g(s) = s - mean(z) + sum(z w)/sum(w),  w = exp(-z/s),
    # is strictly increasing in s, so Newton from the moment start is safe.
    sd = float(np.std(z))
    s = sd * math.sqrt(6.0) / math.pi
    zbar = float(np.mean(z))
    for _ in range(200):
        e = -z / s
        e -= e.max()
        w = np.exp(e)
        sw = float(np.sum(w))
        m1 = float(np.sum(z * w)) / sw
        m2 = float(np.sum(z * z * w)) / sw
        g = s - zbar + m1
        gp = 1.0 + (m2 - m1 * m1) / (s * s)
        step = g / gp
        new = s - step
        while new <= 0.0:
            step *= 0.5
            new = s - step
        s = new
        if abs(step) < 1e-10 * max(1.0, abs(s)):
            break
    e = -z / s
    m = e.max()
    loc = -s * (m + math.log(float(np.mean(np.exp(e - m)))))
    return loc, s


def _fit_logistic_std(z: np.ndarray) -> tuple[float, float]:
    # Two-parameter Newton on (location, scale) with analytic score/Hessian and
    # step halving so the log-likelihood never drops below the moment start.
    n = z.size
    loc = float(np.mean(z))
    s = max(float(np.std(z)) * math.sqrt(3.0) / math.pi, 1e-12)

    def loglik(lo, sc):
        t = np.abs((z - lo) / sc)
        return -n * math.log(sc) - float(np.sum(t)) - 2.0 * float(np.sum(np.log1p(np.exp(-t))))

    cur = loglik(loc, s)
    for _ in range(200):
        t = (z - loc) / s
        u = np.tanh(0.5 * t)
        w = 0.5 * (1.0 - u * u)  # d tanh(t/2)/dt
        g_loc = float(np.sum(u)) / s
        g_s = (float(np.sum(t * u)) - n) / s
        h_ll = -float(np.sum(w)) / (s * s)
        h_ls = -(float(np.sum(u)) + float(np.sum(t * w))) / (s * s)
        h_ss = (n - 2.0 * float(np.sum(t * u)) - float(np.sum(t * t * w))) / (s * s)
        det = h_ll * h_ss - h_ls * h_ls
        if det <= 0.0 or h_ll >= 0.0:
            d_loc, d_s = g_loc / max(-h_ll, 1e-12), g_s / max(-h_ss, 1e-12)
        else:
            d_loc = -(h_ss * g_loc - h_ls * g_s) / det
            d_s = -(h_ll * g_s - h_ls * g_loc) / det
        scale_step = 1.0
        for _ in range(60):
            lo_new = loc + scale_step * d_loc
            s_new = s + scale_step * d_s
            if s_new > 0.0 and loglik(lo_new, s_new) >= cur - 1e-12:
                break
            scale_step *= 0.5
        else:
            break
        moved = max(abs(scale_step * d_loc), abs(scale_step * d_s))
        loc, s = lo_new, s_new
        cur = loglik(loc, s)
        if moved < 1e-10 * max(1.0, abs(loc), s):
            break
    return loc, s


def fit_mle(family: Family, data: SampleBatch) -> DistSpec:
    """Maximum-likelihood fit of ``family`` to ``data``.

    Gumbel and Logistic use Newton iterations from moment-matched starting
    values (step tolerance 1e-10, at most 200 iterations); the returned
    log-likelihood is never below the starting value.  Normal is closed-form
    (sample mean, population standard deviation).  Data whose standard
    deviation overflows or underflows float64 raise ``DomainError``.
    """
    family = Family(family)
    x = data.values
    if np.unique(x).size < 2:
        raise DegenerateDataError("fit_mle requires at least 2 distinct values")
    # Standardize so the solver sees O(1) numbers; this also makes the fit
    # exactly equivariant under affine maps of the data.
    with np.errstate(over="ignore", invalid="ignore"):
        m, sd = float(np.mean(x)), float(np.std(x))
    if not (math.isfinite(sd) and sd > 0):
        raise DomainError(f"fit_mle needs a standard deviation that is finite and positive "
                          f"in float64, got {sd}")
    z = (x - m) / sd
    if family is Family.NORMAL:
        return DistSpec(family, m, sd)
    if family is Family.GUMBEL:
        loc, s = _fit_gumbel_std(z)
    else:
        loc, s = _fit_logistic_std(z)
    return DistSpec(family, m + sd * loc, sd * s)
