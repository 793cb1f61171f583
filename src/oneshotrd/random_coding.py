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

_PARTS = np.arange(1, 64) / 64  # _sign_changes' 63 inner points, as fractions of a bracket


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
    """Per-segment values of the integral of (c/w + s) * G'_M(w) dw, c = v - s b."""
    bp, c = pwl.breakpoints, pwl.values[:-1] - pwl.slopes * pwl.breakpoints[:-1]
    # (1 - w)^(M-1) in one pass; an exponent of -inf (at w = 1 or past overflow) gives 0
    with np.errstate(divide="ignore", over="ignore"):
        surv = np.exp((M - 1) * np.log1p(-bp))
    g = -surv * ((M - 1) * bp + 1.0)
    # M * (a difference of survivals) stays finite where c * M would overflow
    return c * (M * (surv[:-1] - surv[1:])) + pwl.slopes * np.diff(g)


def exact_expected_distortion(problem: Problem, M: int) -> float:
    """Exact average distortion of M codewords drawn i.i.d. from the prior."""
    if not 0 <= M - 1 <= sys.float_info.max:
        raise ValueError(f"M must be at least 1 and M - 1 at most the largest double, got {M}")
    if M == 1:
        return dtilde1(problem, 1.0)
    return float(np.sum(_segment_integral(build_dtilde1(problem), M)))


def f_of(lam):
    """f(lam) = exp(-e^lam) * (e^lam + 1) of a scalar or an array: strictly falls from 1 to 0."""
    t = np.exp(np.minimum(np.array(lam, dtype=float, ndmin=1), 700.0))
    return _like(np.exp(np.log1p(t) - t), lam)


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
    full-average term with d_max. lam is a scalar or an array; numpy's exp
    gives an entry the same bits whatever the array's length, so each entry
    matches the scalar call bit for bit.
    """
    lams = np.array(lam, dtype=float, ndmin=1)
    bad = ~(lams < rate)
    if bad.any():
        raise ValueError(f"lam must be below the rate, got lam={lams[bad][0]}, rate={rate}")
    w, f = np.exp(lams - rate), f_of(lams)
    d = dtilde(problem, np.append(w, 1.0))  # dtilde(1) rides along
    d_w = d[:-1].reshape(lams.shape)
    return AchievabilityBound(value=_like(d_w + (d[-1] - d_w) * f, lam),
                              dmax_value=_like(d_w + problem.d_max * f, lam),
                              w=_like(w, lam))


def _e2(t: np.ndarray) -> np.ndarray:
    """(e^t - 1 - t) / t^2 for 0 <= t <= 700, by its series below 0.01, where it cancels."""
    big = np.maximum(t, 0.01)
    return np.where(t < 0.01, 0.5 + t * (1 / 6 + t * (1 / 24 + t / 120)),
                    (np.expm1(big) - big) / (big * big))


def _sign_changes(slope, lo: np.ndarray, hi: np.ndarray, *coef: np.ndarray) -> np.ndarray:
    """Both ends of a bracket of the one sign change of slope(x, *coef) in [lo, hi], entry by
    entry where it goes from negative to positive: 10 rounds each keep one of 64 parts."""
    at_lo, at_hi = slope(np.stack([lo, hi]), *coef)  # both ends in one call
    k = np.flatnonzero((at_lo < 0) & (at_hi > 0))
    if not k.size:
        return np.empty(0)
    a, b, coef, rows = lo[k], hi[k], [c[k, None] for c in coef], np.arange(k.size)
    x = np.empty((k.size, 65))  # a, a + (b - a) i / 64 for i = 1..63, b
    for _ in range(10):
        x[:, 0], x[:, -1] = a, b
        np.add(a[:, None], (b - a)[:, None] * _PARTS, out=x[:, 1:-1])
        j = (slope(x[:, 1:-1], *coef) <= 0).sum(axis=1)
        a, b = x[rows, j], x[rows, j + 1]
    return np.concatenate([a, b])


def best_achievability(problem: Problem, rate: float) -> BestAchievability:
    """Least achievability_bound(problem, rate, lam).value over lam, and its lam.

    On a segment (v + s (w - b)) / w of dtilde, with a = s b - v >= 0, t = e^lam, w = t e^-rate,
    h = dtilde(w) + (d1 - dtilde(w)) f(lam) has dh/dlam = t^2 e^-t (a e^rate psi(t) - d1 + s),
    and psi(t) = (e^t - 1 - t - t^2) / t^3 = -1/(2t) + sum_{k>=3} t^(k-3) / k! increases
    strictly: h falls, then rises, and is least at an end or where a t psi = (d1 - s) w, a
    sign read divided by 1 + t psi = (e^t - 1 - t) / t^2 so that it stays finite. On the flat
    first segments (a = 0) h only falls. Each end b is also read at the nearest lam whose w (by
    np.exp) lies below b, as exp(rate + log b - rate) can land above b, on a steeper segment.
    """
    pw = build_dtilde1(problem)
    flat = np.count_nonzero(pw.slopes == pw.slopes[0])
    bp, s = pw.breakpoints[flat:], pw.slopes[flat:]
    ends = np.minimum(rate + np.log(bp), math.nextafter(rate, -math.inf))
    below, step = ends.copy(), math.ulp(rate) + np.abs(np.spacing(np.log(bp)))
    up = np.arange(bp.size)  # doubling steps while w >= b: single ulps can take 2^52
    while (up := up[np.exp(below[up] - rate) >= bp[up]]).size:
        below[up], step[up] = below[up] - step[up], 2.0 * step[up]
    roots = _sign_changes(
        lambda x, a, e: a - (a + e * np.exp(x - rate)) / _e2(np.exp(np.minimum(x, 6.5))),
        ends[:-1], ends[1:], s * bp[:-1] - pw.values[flat:-1], pw.values[-1] - s)
    lams = np.unique(np.concatenate([below, ends, roots]))
    values = achievability_bound(problem, rate, lams).value
    k = int(np.argmin(values))
    return BestAchievability(value=float(values[k]), lam=float(lams[k]))


def _split(u: np.ndarray, use_g: bool):
    """1 - y and Psi at u, for y = f(u) or, for rate_g, y = e^-u (see rate_for_distortion)."""
    if use_g:
        r = np.sqrt(1.0 + 4.5 / u)
        q, kappa = -np.expm1(-u), 2.0 * u * r / (1.0 + r)
    else:
        t = np.minimum(np.exp(u), 700.0)
        q, kappa = np.exp(-t) * t * t * _e2(t), t * t / (1.0 + t)
    return q, (1.0 - q) / q * (kappa / q - 1.0)


def rate_for_distortion(problem: Problem, d_req: float) -> RateForDistortion:
    """Smallest certified rate achieving average distortion d_req.

    Minimizes rtilde(z) + P(y), y = (d_req - z) / (d1 - z), over dtilde(0) < z < d_req, with
    P(y) = f_inverse(y) for rate and g(1/y) for rate_g. On a segment (v + s (w - b)) / w,
    rtilde = log((s - z) / (s b - v)); in u = f_inverse(y) (u = -log y for g) the sum's slope
    has the sign of rho - Psi(u), rho = (s - d_req) / (d1 - d_req), Psi = y / (1 - y) *
    (kappa / (1 - y) - 1), kappa = -y' / (y P'): t^2 / (1 + t), t = e^u, for f; 2 u r / (1 + r),
    r = sqrt(1 + 9 / (2u)), for g. Psi decreases (to 50 digits up to u = 700, not proved;
    tests/oracles.py scans for a second minimum), so the sum is least at a segment end, next
    to one, or at the sign change. With no finite value strictly inside (dtilde(0), d_req),
    as for d_req a few ulps above dtilde(0), it raises ValueError.
    """
    pw = build_dtilde1(problem)
    lo, hi = float(pw.slopes[0]), float(pw.values[-1])  # dtilde(0) and dtilde(1)
    if not lo < d_req < hi:
        raise ValueError(f"d_req must be inside ({lo}, {hi}), got {d_req}")
    # dtilde_inverse reads a segment up to its right_values entry and the next one past it
    kinks = pw.right_values[(lo < pw.right_values) & (pw.right_values < d_req)]
    ends = np.unique(np.concatenate([kinks, np.nextafter([lo, d_req], [math.inf, -math.inf])]))
    # each interval's segment, looked up at its middle as dtilde_inverse looks it up
    mid = np.searchsorted(pw.right_values, ends[:-1] + np.diff(ends) / 2)
    s = pw.slopes[np.minimum(mid, pw.slopes.size - 1)]

    def split(z: np.ndarray):  # where z is strictly inside, and y and rtilde there
        y = (d_req - z) / (hi - z)
        ok = (lo < z) & (z < d_req) & (0.0 < y) & (y < 1.0)
        return ok, y[ok], rtilde(problem, z[ok])

    def terms(ok, y, r, use_g: bool):  # u and the sum at each split, nan and inf outside
        u, vals = np.full(ok.size, math.nan), np.full(ok.size, math.inf)
        u[ok] = -np.log(y) if use_g else f_inverse(y)  # finite at a subnormal y
        vals[ok] = r + (_g_of_log(u[ok]) if use_g else u[ok])
        return u, vals

    z = np.concatenate([ends, np.nextafter(kinks, -math.inf), np.nextafter(kinks, math.inf)])
    shared, out = split(z), []  # both forms read the ends and the doubles beside each kink
    for use_g in (False, True):
        u, vals = terms(*shared, use_g)
        roots = _sign_changes(lambda x, rho: rho - _split(x, use_g)[1], u[:ends.size - 1],
                              u[1:ends.size], (s - d_req) / (hi - d_req))
        if roots.size:  # the splits where u brackets the sign change
            roots = hi - (hi - d_req) / _split(roots, use_g)[0]
            vals = np.concatenate([vals, terms(*split(roots), use_g)[1]])
        k = int(np.argmin(vals))
        if vals[k] == math.inf:
            raise ValueError(f"no distortion split strictly inside (dtilde(0), d_req) = "
                             f"({lo!r}, {d_req!r}) gives a finite rate")
        out += [max(float(vals[k]), 0.0), float(z[k] if k < z.size else roots[k - z.size])]
    return RateForDistortion(rate=out[0], z=out[1], rate_g=out[2])
