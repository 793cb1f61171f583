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
import sys
from dataclasses import dataclass

import numpy as np

from .dtilde import build_dtilde1, dtilde, dtilde1, rtilde
from .model import Problem, _like


@dataclass(eq=False)
class AchievabilityBound:
    value: float | np.ndarray       # quantile form of the upper bound
    dmax_value: float | np.ndarray  # looser variant using d_max in place of dtilde(1)
    w: float | np.ndarray           # quantile at which dtilde was split


@dataclass(eq=False)
class BestAchievability:
    value: float     # least split-quantile bound found at the rate
    lam: float       # the lam, below the rate, that gives it


@dataclass(eq=False)
class RateForDistortion:
    rate: float      # via the exact inverse of f
    z: float
    rate_g: float    # via the closed-form relaxation g


def _segment_integral(pwl, M: float) -> np.ndarray:
    """Per-segment values of the integral of (c/w + s) * G'_M(w) dw."""
    bp = pwl.breakpoints
    # (1 - w)^(M-1) in one pass; an exponent of -inf (at w = 1 or past overflow) gives 0
    with np.errstate(divide="ignore", over="ignore"):
        surv = np.exp((M - 1) * np.log1p(-bp))
    g = -surv * ((M - 1) * bp + 1.0)
    # M * (a difference of survivals) stays finite where intercepts * M would overflow
    terms = pwl.intercepts * (M * (surv[:-1] - surv[1:])) + pwl.slopes * np.diff(g)
    terms[np.abs(terms) < 1e-300] = 0.0
    return terms


def exact_expected_distortion(problem: Problem, M: int) -> float:
    """Exact average distortion of M codewords drawn i.i.d. from the prior."""
    if not 0 <= M - 1 <= sys.float_info.max:
        raise ValueError(f"M must be at least 1 and M - 1 at most the largest double, got {M}")
    if M == 1:
        return dtilde1(problem, 1.0)
    return float(np.sum(_segment_integral(build_dtilde1(problem), M)))


def f_of(lam: float) -> float:
    """f(lam) = exp(-e^lam) * (e^lam + 1), strictly decreasing from 1 to 0."""
    # conditionals, not min(): achievability_bound calls this once per lam
    t = math.exp(700.0 if lam > 700.0 else lam)
    t = 1e300 if t > 1e300 else t
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
    flat = lams.ravel().tolist()
    ws = np.array([math.exp(v - rate) for v in flat] + [1.0])  # dtilde(1) rides along
    f = np.array([f_of(v) for v in flat]).reshape(lams.shape)
    d = dtilde(problem, ws)
    w, d_w, d_1 = ws[:-1].reshape(lams.shape), d[:-1].reshape(lams.shape), d[-1]
    return AchievabilityBound(
        value=_like(d_w + (d_1 - d_w) * f, lam),
        dmax_value=_like(d_w + problem.d_max * f, lam),
        w=_like(w, lam),
    )


def _grid_min(fn, grid, lo: float, hi: float, rounds: int, points: int):
    """(x, fn(x)) at the least value seen: one array call of fn on the grid,
    then rounds - 1 calls on points spanning the two intervals beside the
    latest argmin (reaching lo or hi past an end), a bracket that shrinks
    by 2 / (points - 1) a round."""
    x, x_star, v_star = grid, math.nan, math.inf
    for _ in range(rounds):
        vals = fn(x)
        k = int(np.argmin(vals))
        if vals[k] <= v_star:
            x_star, v_star = float(x[k]), float(vals[k])
        x = np.linspace(x[k - 1] if k > 0 else lo,
                        x[k + 1] if k + 1 < x.size else hi, points)
    return x_star, v_star


def best_achievability(problem: Problem, rate: float) -> BestAchievability:
    """Least achievability_bound(problem, rate, lam).value over lam, and its lam.

    The grid: lam = rate + log w at every interior breakpoint w of dtilde,
    and 32 points up to the last double below the rate from the later of
    -10 (below it f(lam) > 1 - 1e-9) and the middle of dtilde's flat first
    segment: the bound only rises as lam falls there, and dtilde is exact
    there, while at the segment's end c / w + s cancels to rounding. Then
    7 rounds of 16 points.
    """
    hi = math.nextafter(rate, -math.inf)
    bp = build_dtilde1(problem).breakpoints[1:-1]
    first = rate + math.log(bp[0] / 2) if bp.size else hi
    lo = min(max(-10.0, first), hi)
    grid = np.unique(np.concatenate([np.minimum(rate + np.log(bp), hi),
                                     np.linspace(lo, hi, 32)]))
    lam, value = _grid_min(lambda lams: achievability_bound(problem, rate, lams).value,
                           grid, grid[0], hi, 8, 16)
    return BestAchievability(value=value, lam=lam)


def rate_for_distortion(problem: Problem, d_req: float) -> RateForDistortion:
    """Smallest certified rate achieving average distortion d_req.

    Minimizes rtilde(z) + f_inverse((d_req - z) / (dtilde(1) - z)) over
    dtilde(0) < z < d_req. One array call evaluates a deterministic grid:
    every breakpoint value of dtilde plus 256 uniform points. Then 11
    rounds of 64 points shrink around the argmin (about 3e-17 in all);
    the smallest value seen is the rate. The same minimization with the
    relaxation g in place of f_inverse gives rate_g.
    Where no split strictly inside (dtilde(0), d_req) gives a finite value,
    as for d_req a few ulps above dtilde(0), it raises ValueError.
    """
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    if not lo < d_req < hi:
        raise ValueError(f"d_req must be inside ({lo}, {hi}), got {d_req}")

    bp_vals = dtilde(problem, build_dtilde1(problem).breakpoints[1:])
    grid = np.unique(np.concatenate([
        bp_vals[(lo < bp_vals) & (bp_vals < d_req)],
        np.linspace(lo, d_req, 258)[1:-1],
    ]))

    def minimand(z: np.ndarray, use_g: bool) -> np.ndarray:
        y = (d_req - z) / (hi - z)
        ok = (lo < z) & (z < d_req) & (0.0 < y) & (y < 1.0)
        vals = np.full(z.size, math.inf)
        # g(1/y) as g of log(1/y) = -log(y), finite for a subnormal y too
        rate_y = _g_of_log(-np.log(y[ok])) if use_g else f_inverse(y[ok])
        vals[ok] = rtilde(problem, z[ok]) + rate_y
        return vals

    results = []
    for use_g in (False, True):
        z_star, v_star = _grid_min(lambda z: minimand(z, use_g), grid, lo, d_req, 12, 64)
        if v_star == math.inf:
            raise ValueError(f"no distortion split strictly inside (dtilde(0), d_req) = "
                             f"({lo!r}, {d_req!r}) gives a finite rate")
        results.append((max(v_star, 0.0), z_star))

    (rate, z), (rate_g, _) = results
    return RateForDistortion(rate=rate, z=z, rate_g=rate_g)
