"""Gumbel, Logistic and Normal families: exact densities, sampling, MLE.

Everything here is a pure function of its inputs and does no file I/O
(reading and writing value CSVs is the CLI's job).  Sampling is inverse-CDF
over a counter-based (Philox) generator keyed by the seed, so results are
reproducible across platforms and thread counts.  Kernels over arrays of at
least 2**15 points run in two fixed halves, the upper one on a worker thread
(``_halves``); the split does not depend on the core count, so neither does
any result.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (ConvergenceError, DegenerateDataError, DomainError, _as_real, _check_count,
                     _check_elements, _check_positive, _real_array, _real_values, _shown)

# Euler-Mascheroni constant; the mean of a standard Gumbel is exactly this.
EULER_MASCHERONI = 0.57721566490153286061

_TWO53 = float(1 << 53)


class Family(str, Enum):
    GUMBEL = "gumbel"
    LOGISTIC = "logistic"
    NORMAL = "normal"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"family must be one of {', '.join(f.value for f in cls)}, got {value!r}")


@dataclass(frozen=True)
class DistSpec:
    """A location-scale law from one of the three supported families."""

    family: Family
    location: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "location", _as_real(self.location, "location"))
        object.__setattr__(self, "scale", _as_real(self.scale, "scale"))
        if not math.isfinite(self.location):
            raise DomainError(f"location must be finite, got {self.location}")
        _check_positive(self.scale, "scale")


@dataclass(frozen=True)
class SampleBatch:
    """An ordered batch of finite real values, kept as a read-only copy."""

    values: np.ndarray

    def __post_init__(self):
        vals = _real_array(self.values, "SampleBatch values", frozen=True, finite=True)
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
        z = (_real_values(x, "x") - d.location) / d.scale
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
    x = _real_values(x, "x")
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
    """Inverse CDF of ``d``; defined for p strictly inside (0, 1).

    A quantile beyond float64 is -inf or +inf, its rounded value.
    """
    from scipy.special import logit, ndtri

    p_arr = _real_values(p, "p")
    # min and max are NaN when any p is, and then both tests fail
    if p_arr.size and not (0.0 < p_arr.min() and p_arr.max() < 1.0):
        raise DomainError("quantile requires 0 < p < 1")
    out = np.empty(p_arr.shape)

    def fill(_, p_part, o):
        # location -+ scale * (-log(-log p), logit p or ndtri p), formed in o
        if d.family is Family.GUMBEL:
            np.log(p_part, out=o)
            np.negative(o, out=o)
            np.log(o, out=o)
            o *= d.scale
            np.subtract(d.location, o, out=o)
        else:
            (logit if d.family is Family.LOGISTIC else ndtri)(p_part, out=o)
            o *= d.scale
            o += d.location
        return ()

    # scale times the standard quantile, or its sum with the location,
    # overflows to +-inf far out in either tail, as in pdf and cdf
    with np.errstate(over="ignore"):
        _halves(fill, p_arr, out)
    return out if out.ndim else float(out)


# 1-D arrays of at least this many points are split in two halves, the upper
# one computed on a worker thread.  One hand-off costs about 10 us on a
# 2-vCPU host, and numpy calls on much shorter arrays spend most of their
# time waiting for the GIL, so below this size a second core does not pay.
_PARALLEL_MIN = 1 << 15

# The job queue of the one worker thread that runs every upper half, made on
# first use and dropped in a forked child, which inherits the queue but not
# the thread.  A plain thread, not a concurrent.futures pool: that import
# alone costs about 5 ms and 1.4 MB (it pulls in logging), and a hand-off
# through a future about 20 us.
_JOBS = None


def _drop_worker() -> None:
    global _JOBS
    _JOBS = None


os.register_at_fork(after_in_child=_drop_worker)


def _serve(jobs) -> None:
    while True:
        _run_job(*jobs.get())


def _run_job(context, fn, args, done) -> None:
    # fn(*args) in the caller's copied context, with (value, exception) put
    # on ``done``; the job's arrays are released when this call returns, not
    # held by the waiting worker until the next job
    try:
        done.put((context.run(fn, *args), None))
    except BaseException as exc:  # handed to the caller, which raises it
        done.put((None, exc))


def _halves(fn, *arrays) -> tuple:
    """fn(start, *parts) on two fixed halves of 1-D ``arrays``, summed.

    fn returns a tuple of partial sums over the part that starts at index
    ``start`` (``()`` if it only fills); the halves' tuples are added term by
    term.  Arrays of at least ``_PARALLEL_MIN`` points are split at numpy's
    pairwise-summation split h = n//2 - (n//2) % 8, the lower half inline and
    the upper half on the worker thread; other arrays give fn(0, *arrays).
    np.sum adds the partial sums of a[:h] and a[h:] at the top of its own
    tree, so the halves' np.sum terms add up to the whole sum bit for bit;
    the split is always in two, whatever the core count, so no result
    depends on it.  The upper half runs in a copy of the caller's context,
    so the caller's ``np.errstate`` governs both halves.  fn must never call
    ``_halves`` itself: the one worker would wait on itself.
    """
    n = arrays[0].shape[0] if arrays[0].ndim == 1 else 0
    if n < _PARALLEL_MIN:
        return fn(0, *arrays)
    global _JOBS
    if _JOBS is None:
        from queue import SimpleQueue

        _JOBS = SimpleQueue()
        threading.Thread(target=_serve, args=(_JOBS,), name="belldist-half", daemon=True).start()
    h = n // 2 - (n // 2) % 8
    done = type(_JOBS)()  # the upper half's reply: a SimpleQueue, without a per-call import
    _JOBS.put((contextvars.copy_context(), fn, (h, *(a[h:] for a in arrays)), done))
    try:
        lower = fn(0, *(a[:h] for a in arrays))
    finally:
        value, error = done.get()  # the upper half is done before its buffers are used again
    if error is not None:
        raise error
    return tuple(p + q for p, q in zip(lower, value))


def _logsumexp(x, beta: float) -> np.ndarray:
    # log sum exp(x / beta) over the last axis, step for step as scipy 1.17's
    # scipy.special.logsumexp computes it, so the bits agree: the max-shift
    # method of Blanchard, Higham & Higham (IMA J. Numer. Anal. 41(4), 2021).
    # The maxima leave the sum as their count m and the rest is summed as
    # exp(a - max).  An x / beta beyond float64 raises DomainError, so the
    # result is finite on every row without a NaN entry; NaN entries pass
    # through to a NaN row.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = np.divide(x, beta)
        if np.isinf(a).any():
            raise DomainError(f"a log-sum-exp exponent x / beta overflows float64 "
                              f"at beta = {beta}")
        a_max = a.max(axis=-1, keepdims=True)
        is_max = a == a_max
        m = np.count_nonzero(is_max, axis=-1, keepdims=True)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=-1, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + a_max
    return out[..., 0]


def _check_seed(seed) -> None:
    # a Philox key is an integer in [0, 2**128)
    _check_count(seed, "seed")
    if seed >= 1 << 128:
        raise DomainError(f"seed must lie in [0, 2**128), got {_shown(seed)}")


def uniform_open(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n deterministic uniforms strictly inside (0, 1) from a Philox stream.

    The (seed, stream) pair fully determines the output; distinct streams from
    one seed are independent.  Each value is (k + 1/2) / 2**53 for a 53-bit
    integer k: ``random`` gives k / 2**53 exactly, and adding 2**-54 rounds
    the same real number as the integer formula does, so the bits agree.
    Philox is counter-based, so the upper half of a long draw starts by
    advancing the counter to where one long draw would be.  ``stream`` is the
    counter's top 64-bit word, so it lies in [0, 2**64).
    """
    _check_seed(seed)
    _check_count(n, "number of uniforms")
    _check_elements(n, "number of uniforms")
    _check_count(stream, "stream")
    if stream >= 1 << 64:
        raise DomainError(f"stream must lie in [0, 2**64), got {_shown(stream)}")
    # uint64 words: numpy converts a list holding a stream past int64's range
    # through float64, where the streams from 2**63 up round onto one another
    counter = np.array([0, 0, 0, stream], dtype=np.uint64)
    out = np.empty(n)

    def fill(start, part):
        bits = np.random.Philox(key=seed, counter=counter)
        if start:
            bits.advance(start // 4)  # one counter step gives four doubles; 8 divides start
        np.random.Generator(bits).random(out=part)
        part += 0.5 / _TWO53
        return ()

    _halves(fill, out)
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
    _check_count(n, "sample size", 1)
    u = uniform_open(seed, n)
    return SampleBatch(quantile(d, u))


# ---------------------------------------------------------------------------
# Maximum-likelihood fitting
# ---------------------------------------------------------------------------

# Newton iteration budget of the Gumbel and Logistic fits
_MAX_NEWTON = 200


def _logistic_terms(t: np.ndarray, a: np.ndarray, e: np.ndarray) -> None:
    # a = |t| and e = log(1 + exp(-|t|)) at the standardised residuals
    # t = (x - loc) / scale, into arrays of t's shape (a may be t itself).
    # The Logistic log-density is -log(scale) - a - 2 e: -t - 2 log(1 +
    # exp(-t)) written in the overflow-safe even form.  The likelihood sums
    # the two arrays; losses.l_loss averages a + 2 e.
    np.abs(t, out=a)
    np.negative(a, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)


def log_likelihood(d: DistSpec, data: np.ndarray) -> float:
    """Total log-likelihood of ``data`` under ``d``."""
    # z overflows to +-inf far out in either tail, and so does the Gumbel
    # exp(-z) in the left tail; the exact value there is -inf
    x = _real_values(data, "data")
    with np.errstate(over="ignore"):
        # formed in a fresh array, which the Logistic terms may overwrite
        z = np.subtract(x, d.location, out=np.empty(x.shape))
        z /= d.scale
        n = z.size
        if d.family is Family.LOGISTIC:
            e = np.empty_like(z)
            _logistic_terms(z, z, e)  # z becomes |z|
            return -n * math.log(d.scale) - float(z.sum()) - 2.0 * float(e.sum())
        if d.family is Family.GUMBEL:
            # an infinite exp(-z) sum decides, even where -sum(z) is +inf
            tail = float(np.sum(np.exp(-z)))
            if tail == math.inf:
                return -math.inf
            return float(-n * math.log(d.scale) - np.sum(z) - tail)
        return float(-n * math.log(d.scale) - 0.5 * n * math.log(2.0 * math.pi)
                     - 0.5 * np.sum(z * z))


# A line-search trial is accepted if it loses at most this many eps times
# |log-likelihood| + n, the rounding level of a sum of n terms of that size:
# a finer test halves converged steps until they round back to the start.
_LL_SLACK_EPS = 64.0 * np.finfo(float).eps


def _newton_ascent(x: tuple, n: int, evaluate, name: str) -> tuple:
    # Damped Newton ascent on the log-likelihood of n points in parameters x
    # that start with a = 1/scale > 0.  A log-concave location-scale density
    # makes it strictly concave in (1/scale, location/scale) (Pratt 1981,
    # JASA 76), so every Newton step is an ascent direction.  evaluate(x)
    # returns the log-likelihood at x and the Newton step from x, both from
    # one pass over the data; the accepted point's step is the next
    # iteration's.  A raw step under 1e-10 relative is taken without a
    # trial and is the one way the fit returns; any other is halved until
    # the trial is at least the start's log-likelihood and loses at most the
    # rounding level against the current point.
    start, d = evaluate(x)
    cur = start
    for _ in range(_MAX_NEWTON):
        new = tuple(p + q for p, q in zip(x, d))
        if max(map(abs, d)) < 1e-10 * max(1.0, *map(abs, new)) and new[0] > 0.0:
            return new
        slack = _LL_SLACK_EPS * (abs(cur) + n)
        h = 1.0
        for _ in range(60):
            new = tuple(p + h * q for p, q in zip(x, d))
            if new[0] > 0.0:
                ll, step = evaluate(new)
                if ll >= cur - slack and ll >= start:
                    break
            h *= 0.5
        else:
            raise ConvergenceError(f"{name} MLE line search found no step that keeps the "
                                   "log-likelihood after 60 halvings")
        x, cur, d = new, ll, step
    raise ConvergenceError(f"{name} MLE did not converge in {_MAX_NEWTON} Newton steps")


def _fit_gumbel_std(z: np.ndarray) -> tuple[float, float]:
    # In a = 1/scale and b = location/scale the log-likelihood is
    # n log a - a sum(z) + n b - e^b sum(exp(-a z)).  Its maximum over b is
    # b(a) = a min(z) - log mean(w) with the weights w = exp(-a (z - min z)),
    # each at most 1, and the profile l(a) = n (log a + b(a) - 1) - a sum(z)
    # has l' = n (1/a - mean(z) + m1) and l'' = -n (1/a^2 + var) < 0, where m1
    # and var are the mean and variance of z under w.  One buffer holds w;
    # each evaluation forms it with the weighted sums of z and z^2 in one
    # pass over each half of the data.
    n = z.size
    a = math.pi / (float(np.std(z)) * math.sqrt(6.0))
    sum_z, zmin = float(np.sum(z)), float(z.min())
    w = np.empty_like(z)

    def weigh(a, moments=True):
        def part(_, zh, wh):
            np.multiply(zh, -a, out=wh)
            np.add(wh, a * zmin, out=wh)
            np.exp(wh, out=wh)
            if not moments:
                return (float(wh.sum()),)
            return (float(wh.sum()), float(np.einsum("i,i->", zh, wh)),
                    float(np.einsum("i,i,i->", zh, zh, wh)))

        return _halves(part, z, w)

    def evaluate(x):
        sw, szw, szzw = weigh(x[0])
        m1 = szw / sw
        var = szzw / sw - m1 * m1
        ll = n * (math.log(x[0]) + x[0] * zmin - math.log(sw / n) - 1.0) - x[0] * sum_z
        return ll, ((1.0 / x[0] - sum_z / n + m1) / (1.0 / (x[0] * x[0]) + var),)

    (a,) = _newton_ascent((a,), n, evaluate, "Gumbel")
    s = 1.0 / a
    (sw,) = weigh(a, moments=False)
    return zmin - s * math.log(sw / n), s


def _fit_logistic_std(z: np.ndarray) -> tuple[float, float]:
    # In a = 1/scale and b = location/scale the log-likelihood is
    # n log a + sum g(a z - b) with g(t) = -t - 2 log(1 + exp(-t)),
    # g' = -tanh(t/2) and g'' = -(1 - tanh^2(t/2)) / 2.  Three buffers serve
    # the whole fit: the residuals t and the scratch u, w (u = -g', w = -g'').
    # Each evaluation forms the log-likelihood's two sums and then the five
    # sums of the Newton step, in one pass over each half of the data.
    n = z.size
    a = math.pi / (float(np.std(z)) * math.sqrt(3.0))
    b = a * float(np.mean(z))
    t, u, w = np.empty_like(z), np.empty_like(z), np.empty_like(z)

    def evaluate(x):
        def part(_, zh, th, uh, wh):
            np.multiply(zh, x[0], out=th)
            np.subtract(th, x[1], out=th)
            _logistic_terms(th, uh, wh)
            ll_sums = float(uh.sum()), float(wh.sum())
            np.multiply(th, 0.5, out=uh)
            np.tanh(uh, out=uh)
            np.multiply(uh, uh, out=wh)
            np.subtract(1.0, wh, out=wh)
            np.multiply(wh, 0.5, out=wh)
            return (*ll_sums, float(np.einsum("i,i->", zh, uh)), float(uh.sum()),
                    float(np.einsum("i,i,i->", zh, zh, wh)), float(np.einsum("i,i->", zh, wh)),
                    float(wh.sum()))

        sum_abs, sum_log, szu, g_b, szzw, h_ab, sw = _halves(part, z, t, u, w)
        g_a = n / x[0] - szu
        h_aa = -n / (x[0] * x[0]) - szzw
        h_bb = -sw
        det = h_aa * h_bb - h_ab * h_ab
        ll = -n * math.log(1.0 / x[0]) - sum_abs - 2.0 * sum_log
        return ll, ((h_ab * g_b - h_bb * g_a) / det, (h_ab * g_a - h_aa * g_b) / det)

    a, b = _newton_ascent((a, b), n, evaluate, "Logistic")
    return b / a, 1.0 / a


def fit_mle(family: Family, data: SampleBatch) -> DistSpec:
    """Maximum-likelihood fit of ``family`` to ``data``.

    Gumbel and Logistic are Newton fits from moment-matched starting values.
    Both densities are log-concave, so the log-likelihood is strictly concave
    in a = 1/scale and b = location/scale, and every Newton step there is an
    ascent direction.  The Gumbel fit is a 1-D Newton on the profile in a (b
    is closed-form given a), the Logistic fit a 2-D Newton in (a, b), and one
    loop of at most 200 steps serves both.  A raw Newton step below 1e-10
    relative (that keeps a positive) is taken as it is, unevaluated, and the
    fit returns; no other step ends a fit.  Any other step is halved until
    the trial's log-likelihood is at least the start's and loses at most
    64 eps (|log-likelihood| + n) against the current point, the rounding
    level of the log-likelihood's sum; a stricter test would halve steps
    that float64 can no longer tell apart.  A fit that reaches the iteration
    limit, even with steps shrunk to nothing, or whose line search finds no
    acceptable step in 60 halvings, raises ``ConvergenceError``.  Normal is closed-form (sample mean, population
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
