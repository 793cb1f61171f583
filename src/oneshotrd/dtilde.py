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

from .model import InvariantViolation, Problem, _like, _readonly
from .pairwise import accept_probability

# Breakpoints closer than y_size times this, relative to the larger, are one
# breakpoint: each row sums the prior masses in its own order, so sums equal in
# exact arithmetic can differ by rounding, in practice by at most about
# y_size * 2^-53 of their value (a pair left apart opens a segment only as wide
# as that), while real breakpoints further apart stay apart: at two letters, a
# mass of 1e-14 at the top of a row opens a segment. Relative, so that a real
# mass of 1e-300 at the bottom of a row still opens a segment and dtilde(0)
# stays the minimum over the prior's support; but never below the smallest
# normal double: at a subnormal b the value dtilde1(b) is subnormal, short of
# digits, and dtilde divides it by w. That floor is the smallest mass
# validate() admits, and a gap equal to it is kept, so such a mass opens a
# segment, as the fill sees it. PROB_ATOL (model.py) is a separate quantity.
BREAKPOINT_MERGE_TOL = 2.0**-53


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [0, 1].

    value(w) = values[i] + slopes[i] * (w - breakpoints[i]) on the i-th segment
    [breakpoints[i], breakpoints[i+1]], and values[-1] = value(1). right_values[i] is
    value(w) / w at the right end, -inf on the segments of slope slopes[0] and
    nondecreasing by a running maximum, so searchsorted finds the first rising segment at a level.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    right_values: np.ndarray

    def pieces(self, ws: np.ndarray) -> np.ndarray:
        """The index of the segment holding each entry of the array ws, all in
        [0, 1]; a breakpoint belongs to the segment it opens."""
        bad = ~((0.0 <= ws) & (ws <= 1.0))
        if bad.any():
            raise ValueError(f"w must be in [0, 1], got {ws[bad][0]}")
        return np.searchsorted(self.breakpoints[:-1], ws, side="right") - 1

    def value(self, w):
        ws = np.array(w, dtype=float, ndmin=1)
        i = self.pieces(ws)
        return _like(self.values[i] + self.slopes[i] * (ws - self.breakpoints[i]), w)


def build_dtilde1(problem: Problem) -> PiecewiseLinear:
    """Exact piecewise-linear representation of w -> dtilde1(w).

    One sweep over the level table: where a level of positive mass starts,
    the slope rises by p_x times its step up from the row's level before it
    (from 0 at the lowest). Built on first use and kept on the instance.
    """
    if problem._dtilde1 is not None:
        return problem._dtilde1
    table = problem.levels
    i = (table.head & (table.mass > 0)).ravel().nonzero()[0]
    if i.size == 0:
        raise InvariantViolation("q_y has empty support")
    level, below = table.ds.ravel()[i], table.below.ravel()[i]
    # a row's lowest level starts at below = 0; each row's total ends its
    # top level and adds a breakpoint only
    pts = np.concatenate((below, table.below[:, -1] + table.mass[:, -1], [1.0]))
    rises = np.zeros(pts.size)
    rises[1:i.size] = np.where(below[1:] > 0, level[:-1], 0.0)
    rises[:i.size] = problem.p_x[i // problem.y_size] * (level - rises[:i.size])
    by_pt = pts.argsort(kind="stable")
    pts = pts[by_pt]
    gap = np.maximum(BREAKPOINT_MERGE_TOL * problem.y_size * pts[1:], np.finfo(float).tiny)
    keep = np.concatenate(([True], pts[1:] - pts[:-1] >= gap))
    bp = pts[keep]
    bp[0], bp[-1] = 0.0, 1.0
    # each merged breakpoint adds its rises to the slope of the segments
    # after it; the rises at w = 1 open no segment
    rise = np.bincount(keep.cumsum() - 1, weights=rises[by_pt], minlength=bp.size)
    slopes = rise[:-1].cumsum()

    # a sequential sum: each segment ends bit for bit at the next one's value
    values = np.concatenate(([0.0], (slopes * (bp[1:] - bp[:-1])).cumsum()))
    # slopes never decrease, so the flat segments are a prefix; rounding may
    # lift one of their right-end values above dtilde(0), hence the mask
    right_values = np.maximum.accumulate(
        np.where(slopes > slopes[0], values[1:] / bp[1:], -np.inf))
    for a in (bp, values, slopes, right_values):
        a.setflags(write=False)
    problem._dtilde1 = PiecewiseLinear(bp, values, slopes, right_values)
    return problem._dtilde1


def dtilde1(problem: Problem, w):
    """Unnormalized functional w * dtilde(w), for a scalar or elementwise for an array."""
    return build_dtilde1(problem).value(w)


def dtilde(problem: Problem, w):
    """Normalized quantile distortion dtilde1(w) / w, for a scalar or an array.

    Every term of (v + s (w - b)) / w is nonnegative. The first segment (b = 0)
    reads its slope, so w = 0 and every w in it, subnormal ones too, give exactly
    the right limit at 0: the expected minimum distortion over the prior support.
    """
    pw, ws = build_dtilde1(problem), np.array(w, dtype=float, ndmin=1)
    i = pw.pieces(ws)
    b, s = pw.breakpoints[i], pw.slopes[i]
    return _like(np.divide(pw.values[i] + s * (ws - b), ws, out=s.copy(), where=b > 0), w)


def dtilde_inverse(problem: Problem, z):
    """Smallest w with dtilde(w) >= z, for a scalar or elementwise for an array.

    z must lie in the closed range [dtilde(0), dtilde(1)], checked exactly. dtilde
    is flat at dtilde(0) up to its first kink and strictly increasing after it,
    so z = dtilde(0) gives 0 and every larger z a positive w.
    """
    pw = build_dtilde1(problem)
    lo, hi = float(pw.slopes[0]), float(pw.values[-1])
    zs = np.array(z, dtype=float, ndmin=1)
    bad = ~((lo <= zs) & (zs <= hi))
    if bad.any():
        raise ValueError(f"z={zs[bad][0]} outside the achievable range [{lo}, {hi}]")
    i = np.minimum(np.searchsorted(pw.right_values, zs), pw.slopes.size - 1)
    b, s = pw.breakpoints[i], pw.slopes[i]
    # solve (v + s (w - b)) / w = z; z at least the right end's value or s gives the right end
    step = np.divide(zs * b - pw.values[i], s - zs, out=np.full(zs.shape, np.inf),
                     where=zs < np.minimum(s, pw.right_values[i]))
    w = np.minimum(b + np.maximum(step, 0.0), pw.breakpoints[i + 1])
    return _like(np.where(zs == lo, 0.0, w), z)


def rtilde(problem: Problem, z):
    """Rate needed for distortion level z under this prior: -log of the inverse.

    Takes a scalar or an array. At or below dtilde(0) no finite rate reaches
    z, and the result is +inf.
    """
    zs = np.maximum(np.array(z, dtype=float, ndmin=1), build_dtilde1(problem).slopes[0])
    w = dtilde_inverse(problem, zs)
    with np.errstate(divide="ignore"):
        return _like(np.where(w < 1.0, -np.log(w), 0.0), z)


def test_channel(problem: Problem, w: float) -> np.ndarray:
    """The channel W(y|x), a read-only matrix, packing mass 1/w * q_y(y)
    onto the lowest-distortion letters.

    Row x averages exactly to dtilde(w) under the source distribution.
    """
    if not np.finfo(float).tiny <= w <= 1.0:
        raise ValueError(f"w must be a normal double in (0, 1], got {w}")
    rows = problem.q_y[None, :] * accept_probability(problem, w) / w
    return _readonly(rows)


# Fill-based evaluation for any prior: the one route for priors other than q_y
# (code priors, channel marginals, prior search), and a check of build_dtilde1.

def dtilde_for_prior(problem: Problem, w: float, prior) -> float:
    """dtilde(w) for a prior distribution: the fill takes mass w from the
    masses as given, so a prior that does not sum to 1 gives another value.
    w = 0 gives the right limit, sum_x p_x min over the prior's support of
    d(x, y). A prior without support raises InvariantViolation, as
    build_dtilde1 does for q_y."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    support = np.asarray(prior) > 0
    if not support.any():
        raise InvariantViolation("prior has empty support")
    if w == 0.0:
        return float(np.sum(problem.p_x * problem.d[:, support].min(axis=1)))
    qs = np.asarray(prior, dtype=float)[problem.row_order]
    # the mass before each entry as a sum, not cum - qs: (1 + 1e-14) - 1 != 1e-14
    below = np.zeros_like(qs)
    np.cumsum(qs[:, :-1], axis=1, out=below[:, 1:])
    alloc = np.clip(w - below, 0.0, qs)
    # alloc / w before the sums: a subnormal w reads its first letter exactly
    return float(np.sum(problem.p_x * np.sum(problem.levels.ds * (alloc / w), axis=1)))
