"""Exact random-coding distortion and the achievability bounds built on it.

The expected distortion of a codebook of M i.i.d. draws from the prior is

    integral over [0, 1] of dtilde(w) * G'_M(w) dw,
    G_M(w) = -(1 - w)^(M-1) * ((M-1) w + 1)

where G'_M is the density of the second-smallest of M uniforms. Because
dtilde1 is piecewise linear, the integral evaluates segment by segment in
closed form, with no quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dtilde import build_dtilde1, dtilde, rtilde
from .model import Problem, _like


@dataclass(eq=False)
class RandomCodingResult:
    M: int
    exact_distortion: float
    per_segment_contributions: list[float]


@dataclass(eq=False)
class AchievabilityBound:
    value: float | np.ndarray       # quantile form of the upper bound
    dmax_value: float | np.ndarray  # looser variant using d_max in place of dtilde(1)
    w: float | np.ndarray           # quantile at which dtilde was split


@dataclass(eq=False)
class RateForDistortion:
    rate: float      # via the exact inverse of f
    z: float
    rate_g: float    # via the closed-form relaxation g
    z_g: float


def _survival_pow(w: float, expo: float) -> float:
    """(1 - w)^expo computed in the log domain; exact 0 at w >= 1."""
    if w >= 1.0:
        return 0.0
    return math.exp(expo * math.log1p(-w))


def _segment_integral(pwl, M: float) -> np.ndarray:
    """Per-segment values of the integral of (c/w + s) * G'_M(w) dw."""
    a = pwl.breakpoints[:-1]
    b = pwl.breakpoints[1:]
    surv_a = np.array([_survival_pow(w, M - 1) for w in a])
    surv_b = np.array([_survival_pow(w, M - 1) for w in b])
    g_a = -surv_a * ((M - 1) * a + 1.0)
    g_b = -surv_b * ((M - 1) * b + 1.0)
    terms = pwl.intercepts * M * (surv_a - surv_b) + pwl.slopes * (g_b - g_a)
    terms[np.abs(terms) < 1e-300] = 0.0
    return terms


def exact_expected_distortion(problem: Problem, M: int) -> RandomCodingResult:
    """Exact average distortion of M codewords drawn i.i.d. from the prior."""
    if M < 1:
        raise ValueError("M must be at least 1")
    pwl = build_dtilde1(problem)
    if M == 1:
        value = float(pwl.value(1.0))
        return RandomCodingResult(1, value, [value])
    terms = _segment_integral(pwl, M)
    return RandomCodingResult(int(M), float(np.sum(terms)), [float(t) for t in terms])


def f_of(lam: float) -> float:
    """f(lam) = exp(-e^lam) * (e^lam + 1), strictly decreasing from 1 to 0."""
    t = min(math.exp(min(lam, 700.0)), 1e300)
    return math.exp(math.log1p(t) - t)


def _g_of_log(big_l: np.ndarray) -> np.ndarray:
    """g as a function of big_l = log x."""
    return (np.log(big_l) + math.log(2.0 / 3.0)
            + np.log1p(np.sqrt(1.0 + 9.0 / (2.0 * big_l))))


def f_inverse(x):
    """Solve f(lam) = x for x in (0, 1), for a scalar or elementwise for an array.

    With t = e^lam the equation reads t - log1p(t) = -log x, increasing and
    convex in t, so Newton's method started above the root (at the bound
    g(1/x) plus 0.5) falls monotonically onto it. An entry stops after its
    first step below 1e-9 of t: the error left is of the order of that step
    squared, and smaller steps would only trace the rounding noise of
    t - log1p(t) at small t, where one ulp of x moves the root far more.
    """
    xs = np.array(x, dtype=float, ndmin=1)
    bad = ~((0.0 < xs) & (xs < 1.0))
    if bad.any():
        raise ValueError(f"x must be in (0, 1), got {xs[bad][0]}")
    big_l = -np.log(xs)
    t = np.exp(_g_of_log(big_l) + 0.5)
    go = np.ones(t.shape, dtype=bool)
    for _ in range(50):  # 6 steps at most from 5e-324 to 1 - 2**-53
        step = (t - np.log1p(t) - big_l) * (1.0 + t) / t
        t = np.where(go & (step > 0.0), t - step, t)
        go &= step > 1e-9 * t
        if not go.any():
            break
    return _like(np.log(t), x)


def g_of(x):
    """Closed-form upper bound on f_inverse(1/x), for x > 1: a scalar or an array."""
    xs = np.array(x, dtype=float, ndmin=1)
    bad = ~(xs > 1.0)
    if bad.any():
        raise ValueError(f"x must be greater than 1, got {xs[bad][0]}")
    return _like(_g_of_log(np.log(xs)), x)


def achievability_bound(problem: Problem, rate: float, lam) -> AchievabilityBound:
    """Split-quantile upper bound on the random-coding distortion at this rate.

    Requires lam < rate. Also reports the looser variant that replaces the
    full-average term with d_max. lam is a scalar or an array; w and f(lam)
    come from math.exp and f_of, not np.exp, which can differ by an ulp, so
    each entry matches the scalar call bit for bit.
    """
    lams = np.array(lam, dtype=float, ndmin=1)
    bad = ~(lams < rate)
    if bad.any():
        raise ValueError(f"lam must be below the rate, got lam={lams[bad][0]}, rate={rate}")
    w = np.array([math.exp(v - rate) for v in lams.flat]).reshape(lams.shape)
    f = np.array([f_of(v) for v in lams.flat]).reshape(lams.shape)
    pw = build_dtilde1(problem)
    # dtilde at w = 0, where exp(lam - rate) underflows, is its right limit
    d_w = np.divide(pw.value(w), w, out=np.full(w.shape, pw.slopes[0]), where=w > 0.0)
    d_1 = dtilde(problem, 1.0)
    return AchievabilityBound(
        value=_like(d_w + (d_1 - d_w) * f, lam),
        dmax_value=_like(d_w + problem.d_max * f, lam),
        w=_like(w, lam),
    )


def rate_for_distortion(problem: Problem, d_req: float) -> RateForDistortion:
    """Smallest certified rate achieving average distortion d_req.

    Minimizes rtilde(z) + f_inverse((d_req - z) / (dtilde(1) - z)) over
    dtilde(0) < z < d_req. One array call evaluates a deterministic grid:
    every breakpoint value of dtilde plus 256 uniform points. Then 11
    rounds each evaluate 64 evenly spaced points across the two intervals
    beside the latest argmin, shrinking that bracket by 2/63 a round
    (about 3e-17 in all); the smallest value seen is the rate. The same
    minimization with the relaxation g in place of f_inverse gives rate_g.
    """
    lo = dtilde(problem, 0.0)
    hi = dtilde(problem, 1.0)
    if not lo < d_req < hi:
        raise ValueError(f"d_req must be inside ({lo}, {hi}), got {d_req}")

    pwl = build_dtilde1(problem)
    bp_vals = pwl.value(pwl.breakpoints[1:]) / pwl.breakpoints[1:]
    grid = np.unique(np.concatenate([
        bp_vals[(lo < bp_vals) & (bp_vals < d_req)],
        np.linspace(lo, d_req, 258)[1:-1],
    ]))

    def minimand(z: np.ndarray, use_g: bool) -> np.ndarray:
        y = (d_req - z) / (hi - z)
        ok = (lo < z) & (z < d_req) & (0.0 < y) & (y < 1.0)
        vals = np.full(z.size, math.inf)
        # 1/y overflows to inf for a subnormal y, where g is inf too
        with np.errstate(over="ignore"):
            vals[ok] = rtilde(problem, z[ok]) + (g_of(1.0 / y[ok]) if use_g else f_inverse(y[ok]))
        return vals

    results = []
    for use_g in (False, True):
        z, z_star, v_star = grid, math.nan, math.inf
        for _ in range(12):  # the grid, then 11 rounds of 64 points
            vals = minimand(z, use_g)
            k = int(np.argmin(vals))
            if vals[k] <= v_star:
                z_star, v_star = float(z[k]), float(vals[k])
            z = np.linspace(z[k - 1] if k > 0 else lo,
                            z[k + 1] if k + 1 < z.size else d_req, 64)
        results.append((max(v_star, 0.0), z_star))

    (rate, z), (rate_g, z_g) = results
    return RateForDistortion(rate=rate, z=z, rate_g=rate_g, z_g=z_g)
