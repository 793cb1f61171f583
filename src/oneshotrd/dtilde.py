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

from dataclasses import dataclass

import numpy as np

from .model import Channel, Problem, _like
from .pairwise import accept_probability, profile

# Breakpoints closer than this are one breakpoint. Each row's profile adds
# the prior masses in its own order, so cumulative sums that are equal in
# exact arithmetic can differ by rounding, up to about ny * 2^-53; merging
# them drops segments of rounding width. It bounds arithmetic error, not the
# input: PROB_ATOL (model.py) is how far an input simplex may sum from 1,
# and at that width real breakpoints of letters with mass below 1e-12 would
# merge, so neither tolerance can be derived from the other.
BREAKPOINT_MERGE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [0, 1].

    value(w) = intercepts[i] + slopes[i] * w on the i-th segment
    [breakpoints[i], breakpoints[i+1]]. right_values[i] is value(w) / w at
    the segment's right end, -inf on the segments of slope slopes[0] and
    kept nondecreasing by a running maximum, so that searchsorted finds the
    first rising segment that reaches a given level.
    """

    breakpoints: np.ndarray
    intercepts: np.ndarray
    slopes: np.ndarray
    right_values: np.ndarray

    def value(self, w):
        i = np.clip(np.searchsorted(self.breakpoints, w, side="right") - 1,
                    0, self.slopes.size - 1)
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
    # slopes are exact sums of levels and never decrease, so the flat
    # segments are a prefix; rounding may still lift one of their right-end
    # values above dtilde(0), hence the mask by slope
    rvals = (intercepts + slopes * bp[1:]) / bp[1:]
    right_values = np.maximum.accumulate(np.where(slopes > slopes[0], rvals, -np.inf))
    for a in (bp, intercepts, slopes, right_values):
        a.setflags(write=False)
    problem._dtilde1 = PiecewiseLinear(bp, intercepts, slopes, right_values)
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


def dtilde_inverse(problem: Problem, z):
    """Smallest w with dtilde(w) >= z, for a scalar or elementwise for an array.

    z must lie in the closed range [dtilde(0), dtilde(1)]. dtilde is flat
    at dtilde(0) up to its first kink and strictly increasing after it, so
    z <= dtilde(0) gives 0 and every larger z a positive w.
    """
    pw = build_dtilde1(problem)
    lo, hi = float(pw.slopes[0]), float(pw.intercepts[-1] + pw.slopes[-1])
    zs = np.array(z, dtype=float, ndmin=1)
    bad = ~((lo - 1e-12 <= zs) & (zs <= hi + 1e-12))
    if bad.any():
        raise ValueError(f"z={zs[bad][0]} outside the achievable range [{lo}, {hi}]")
    zs = np.minimum(np.maximum(zs, lo), hi)
    i = np.minimum(np.searchsorted(pw.right_values, zs), pw.slopes.size - 1)
    left, right, s = pw.breakpoints[i], pw.breakpoints[i + 1], pw.slopes[i]
    # solve c / w + s = z; where rounding leaves z >= s, dtilde reaches z
    # only at the right end of the segment
    w = np.divide(pw.intercepts[i], zs - s, out=right.copy(), where=zs < s)
    return _like(np.where(zs <= lo, 0.0, np.minimum(np.maximum(w, left), right)), z)


def rtilde(problem: Problem, z):
    """Rate needed for distortion level z under this prior: -log of the inverse.

    Takes a scalar or an array. At or below dtilde(0) no finite rate reaches
    z, and the result is +inf.
    """
    zs = np.maximum(np.array(z, dtype=float, ndmin=1), build_dtilde1(problem).slopes[0])
    w = dtilde_inverse(problem, zs)
    with np.errstate(divide="ignore"):
        return _like(np.where(w < 1.0, -np.log(w), 0.0), z)


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
