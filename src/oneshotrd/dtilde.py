"""The quantile-distortion functional, its inverse, and the packing channel.

dtilde1(w) is the expected distortion accumulated over the best w-quantile
of the prior, per source letter:

    dtilde1(w) = sum_x p_x(x) * (greedy fill of mass w from the cheapest
                 distortion levels of x under q_y)

It is piecewise linear and convex in w with dtilde1(0) = 0, and the exact
breakpoint representation built here supports closed-form integration and
inversion. dtilde(w) = dtilde1(w) / w is the normalized version; at w = 1
it is the plain product-average distortion, and as w -> 0 it tends to the
expected minimum distortion over the prior support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Channel, Problem
from .pairwise import accept_probability, profile

BREAKPOINT_MERGE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [0, 1].

    value(w) = intercepts[i] + slopes[i] * w on the i-th segment
    [breakpoints[i], breakpoints[i+1]].
    """

    breakpoints: np.ndarray
    intercepts: np.ndarray
    slopes: np.ndarray

    def segment_index(self, w) -> np.ndarray:
        i = np.searchsorted(self.breakpoints, w, side="right") - 1
        return np.clip(i, 0, self.slopes.size - 1)

    def value(self, w):
        i = self.segment_index(w)
        return self.intercepts[i] + self.slopes[i] * np.asarray(w, dtype=float)


def build_dtilde1(problem: Problem) -> PiecewiseLinear:
    """Exact piecewise-linear representation of w -> dtilde1(w).

    Built on first use and kept on the instance.
    """
    if problem._dtilde1 is not None:
        return problem._dtilde1
    profs = [profile(problem, x) for x in range(problem.x_size)]
    pts = np.concatenate([p.cumulative for p in profs] + [np.array([0.0, 1.0])])
    pts = np.sort(pts)
    keep = np.concatenate(([True], np.diff(pts) > BREAKPOINT_MERGE_TOL))
    bp = pts[keep].copy()
    bp[0], bp[-1] = 0.0, 1.0

    mids = 0.5 * (bp[:-1] + bp[1:])
    slopes = np.zeros(mids.size)
    for x in range(problem.x_size):
        prof = profs[x]
        j = np.minimum(
            np.searchsorted(prof.cumulative[1:], mids, side="left"),
            prof.levels.size - 1,
        )
        slopes += problem.p_x[x] * prof.levels[j]

    values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(bp))))
    intercepts = values[:-1] - slopes * bp[:-1]
    for a in (bp, intercepts, slopes):
        a.setflags(write=False)
    problem._dtilde1 = PiecewiseLinear(bp, intercepts, slopes)
    return problem._dtilde1


def dtilde1(problem: Problem, w: float) -> float:
    """Unnormalized functional: w * dtilde(w)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    return float(build_dtilde1(problem).value(w))


def dtilde(problem: Problem, w: float) -> float:
    """Normalized quantile distortion dtilde1(w) / w.

    w = 0 returns the right limit, the expected minimum distortion over the
    prior support.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    pw = build_dtilde1(problem)
    if w == 0.0:
        return float(pw.slopes[0])
    return float(pw.value(w)) / w


def dtilde_inverse(problem: Problem, z: float) -> float:
    """Smallest w with dtilde(w) >= z.

    z must lie in the closed range [dtilde(0), dtilde(1)]. dtilde is flat
    at dtilde(0) up to its first kink and strictly increasing after it, so
    z <= dtilde(0) returns 0 and every larger z a positive w.
    """
    pw = build_dtilde1(problem)
    lo, hi = float(pw.slopes[0]), float(pw.value(1.0))
    if z < lo - 1e-12 or z > hi + 1e-12:
        raise ValueError(f"z={z} outside the achievable range [{lo}, {hi}]")
    z = min(max(z, lo), hi)
    if z <= lo:
        return 0.0
    right = pw.breakpoints[1:]
    rvals = (pw.intercepts + pw.slopes * right) / right
    # dtilde is dtilde(0) < z on every segment of slope dtilde(0), even
    # where rounding lifts the right-end value above z; slopes are exact
    # sums of levels and never decrease, so only the later segments count
    i = int(np.argmax((rvals >= z) & (pw.slopes > lo)))
    c, s = pw.intercepts[i], pw.slopes[i]
    # solve c / w + s = z; where rounding leaves z >= s, dtilde reaches z
    # only at the right end of the segment
    w = c / (z - s) if z < s else right[i]
    return float(min(max(w, pw.breakpoints[i]), right[i]))


def rtilde(problem: Problem, z: float) -> float:
    """Rate needed for distortion level z under this prior: -log of the inverse.

    At or below dtilde(0) no finite rate reaches z, and the result is +inf.
    """
    w = dtilde_inverse(problem, max(z, float(build_dtilde1(problem).slopes[0])))
    return max(0.0, -math.log(w)) if w > 0.0 else math.inf


def test_channel(problem: Problem, w: float) -> Channel:
    """Channel packing mass 1/w * q_y(y) onto the lowest-distortion letters.

    Row x averages exactly to dtilde(w) under the source distribution.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError(f"w must be in (0, 1], got {w}")
    rows = problem.q_y[None, :] * accept_probability(problem, w) / w
    return Channel(rows)


# Direct fill-based evaluation for arbitrary priors. This is the fast path
# used inside prior optimization and the second, profile-free route used to
# cross-check the piecewise representation.

def _sorted_fill(problem: Problem, w: float, prior: np.ndarray):
    order = problem.row_order
    ds = np.take_along_axis(problem.d, order, axis=1)
    qs = np.asarray(prior, dtype=float)[order]
    cum = np.cumsum(qs, axis=1)
    alloc = np.clip(w - (cum - qs), 0.0, qs)
    return ds, qs, cum, alloc


def dtilde1_for_prior(problem: Problem, w: float, prior) -> float:
    """dtilde1(w) for an arbitrary (possibly unnormalized) prior vector."""
    ds, _, _, alloc = _sorted_fill(problem, w, prior)
    return float(np.sum(problem.p_x * np.sum(ds * alloc, axis=1)))


def dtilde_for_prior(problem: Problem, w: float, prior) -> float:
    """dtilde(w) for an arbitrary prior vector (w > 0)."""
    if w <= 0.0:
        raise ValueError("w must be positive; use the profile route for limits")
    return dtilde1_for_prior(problem, w, prior) / w


def fill_thresholds(problem: Problem, w: float, prior) -> np.ndarray:
    """Per-letter distortion level at which the greedy mass-w fill stops."""
    ds, _, cum, _ = _sorted_fill(problem, w, prior)
    idx = np.minimum(np.sum(cum < w, axis=1), problem.y_size - 1)
    return ds[np.arange(problem.x_size), idx]
