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
from .model import Problem

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
F_INVERSE_TOL = 1e-14  # f_inverse stops once its bisection bracket is this narrow


@dataclass(eq=False)
class RandomCodingResult:
    M: int
    exact_distortion: float
    per_segment_contributions: list[float]


@dataclass(eq=False)
class AchievabilityBound:
    value: float        # quantile form of the upper bound
    dmax_value: float   # looser variant using d_max in place of dtilde(1)
    w: float            # quantile at which dtilde was split


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


def f_inverse(x: float) -> float:
    """Solve f(lam) = x for x in (0, 1) by bisection on a guaranteed bracket.

    The bracket comes from two closed-form bounds on lam - log(-log x),
    widened by 0.5 on each side.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0, 1), got {x}")
    z = -math.log(x)
    upper = math.log(z) + math.log(2.0 / 3.0) + math.log1p(math.sqrt(1.0 + 9.0 / (2.0 * z)))
    lower = math.log(z) - math.log(2.0) + math.log1p(math.sqrt(1.0 + 8.0 / z))
    lo, hi = lower - 0.5, upper + 0.5
    # f is decreasing: f(lo) > x > f(hi); widen defensively if rounding broke it
    while f_of(lo) < x:
        lo -= 1.0
    while f_of(hi) > x:
        hi += 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < F_INVERSE_TOL:
            break
        if f_of(mid) > x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def g_of(x: float) -> float:
    """Closed-form upper bound on f_inverse composed with log: defined for x > 1."""
    if x <= 1.0:
        raise ValueError(f"x must be greater than 1, got {x}")
    big_l = math.log(x)
    return (math.log(big_l) + math.log(2.0 / 3.0)
            + math.log1p(math.sqrt(1.0 + 9.0 / (2.0 * big_l))))


def achievability_bound(problem: Problem, rate: float, lam: float) -> AchievabilityBound:
    """Split-quantile upper bound on the random-coding distortion at this rate.

    Requires lam < rate. Also reports the looser variant that replaces the
    full-average term with d_max.
    """
    if lam >= rate:
        raise ValueError(f"lam must be below the rate, got lam={lam}, rate={rate}")
    w = math.exp(lam - rate)
    d_w = dtilde(problem, w)
    d_1 = dtilde(problem, 1.0)
    f = f_of(lam)
    return AchievabilityBound(
        value=d_w + (d_1 - d_w) * f,
        dmax_value=d_w + problem.d_max * f,
        w=w,
    )


def _golden_min(fn, a: float, b: float):
    """Golden-section minimum of fn on [a, b]; 80 steps shrink the bracket
    by 0.618^80, about 2e-17."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(80):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def rate_for_distortion(problem: Problem, d_req: float) -> RateForDistortion:
    """Smallest certified rate achieving average distortion d_req.

    Minimizes rtilde(z) + f_inverse((d_req - z) / (dtilde(1) - z)) over
    z < d_req on a deterministic grid (all breakpoint values of dtilde plus
    256 uniform points) refined by golden section, and reports the same
    minimization with the closed-form relaxation g in place of f_inverse.
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

    def split(z: float):
        """(rtilde(z), y) for the split at z <= d_req, or None where it is infeasible."""
        y = (d_req - z) / (hi - z)
        return (rtilde(problem, z), y) if lo < z < d_req and 0.0 < y < 1.0 else None

    def minimand(parts, use_g: bool) -> float:
        if parts is None:
            return math.inf
        r, y = parts
        return r + (g_of(1.0 / y) if use_g else f_inverse(y))

    splits = [split(z) for z in grid]
    results = []
    for use_g in (False, True):
        vals = np.array([minimand(parts, use_g) for parts in splits])
        k = int(np.argmin(vals))
        a = grid[k - 1] if k > 0 else lo
        b = grid[k + 1] if k + 1 < grid.size else d_req
        z_star, v_star = _golden_min(lambda z: minimand(split(z), use_g), a, b)
        if vals[k] < v_star:
            z_star, v_star = grid[k], vals[k]
        results.append((max(v_star, 0.0), float(z_star)))

    (rate, z), (rate_g, z_g) = results
    return RateForDistortion(rate=rate, z=z, rate_g=rate_g, z_g=z_g)
