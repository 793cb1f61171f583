"""Test-only oracles: the laws behind the exact formulas, and samplers of them.

The library computes each quantity by one route (closed-form segment
integrals, the piecewise-linear functional, the k-median LP). The routes
here only cross-check it: the order-statistic kernel G_M and the law of the
minimum of M uniforms, the CDF and quantile levels of the pairwise-correct
variable p_c(x, Y, U), two Kolmogorov-Smirnov samplers of those laws, a
row-sum check for channels, the random-code simulator's plain kernel:
a search of the prior's CDF for every draw and a gather of d over every
codeword, then a min, and its first held letter of a presence mask: the
mask gathered in every row's order, then an argmax, the prior LP with one
variable per (x, y) pair rather than per distinct distortion level, the
level LP assembled as sparse matrices and solved through scipy's linprog
rather than on HiGHS's binding directly, the
best code of at most M words by exhaustive search, the 40-point slack grid of
scalar achievability_bound calls that exact's split-quantile bound must
never exceed, per-segment scans of the slack and of the distortion split
that best_achievability and rate_for_distortion must never exceed, their
bracket search with a grid stacked afresh by np.column_stack each round, a
count of the local minima inside each segment for the split (at most one,
the shape rate_for_distortion relies on), the exact integral with a
scalar power at both ends of every segment, dtilde from the greedy fill
in exact rational arithmetic with the largest relative shift of the
breakpoints that build_dtilde1 merges, and the per-row level routes that
Problem.levels replaced: the np.unique profile, the strict-below and tie
masses with the pairwise-correct probability and its inverse built on
them, the acceptance matrix and witness built row by row, the
piecewise-linear dtilde1 built from every row's profile, the
capacity-capped greedy channel filled level by level, and the three-stage
search for the best memoryless prior (multiplicative weights, a grid and
a softmax polish) that Nelder-Mead on the faces of the simplex replaced,
validate()'s checks in their order, each run on every problem, which name
the violation a rejected problem must report, and the CLI's CSV table
written through csv.writer one formatted value at a time.

The samplers read the library's own Philox words and blocks (streams 1 and
2; the random-code simulator reads its codewords from stream 0) and turn
each word into numpy's double, so they are seeded exactly as the library is,
and a patched ``oneshotrd.montecarlo.BUDGET`` bounds their memory too.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse, stats
from scipy.optimize import linprog, minimize

from oneshotrd import (
    DistortionProfile, InvariantViolation, PiecewiseLinear, Problem, build_dtilde1, f_inverse,
    f_of, rtilde,
)
from oneshotrd.cli import FMT
from oneshotrd.converse import (
    PRODUCT_RANDOM_STARTS, ProductPriorReport, PriorOptResult, _dual_bound,
    _lp_size, _product_power, dtilde_subgradient, optimize_prior, product_problem,
)
from oneshotrd.dtilde import BREAKPOINT_MERGE_TOL, dtilde, dtilde_for_prior
from oneshotrd.model import PROB_ATOL, EqualityCheckError, _readonly
from oneshotrd.montecarlo import (
    CHUNK, MCEstimate, _blocks, _inverse_cdf, _trial_words, _word_block,
)
from oneshotrd.random_coding import AchievabilityBound, _g_of_log
from oneshotrd.variational import InfFormResult

KS_SIGNIFICANCE = 1e-3


def profile_unique(problem: Problem, x: int) -> DistortionProfile:
    """profile by one np.unique of row x on supp(q_y)."""
    sup = problem.q_y > 0
    if not sup.any():
        raise InvariantViolation("q_y has empty support")
    levels, inv = np.unique(problem.d[x, sup], return_inverse=True)
    masses = np.bincount(inv, weights=problem.q_y[sup], minlength=levels.size)
    cumulative = np.concatenate(([0.0], np.cumsum(masses)))
    for a in (levels, masses, cumulative):
        a.setflags(write=False)
    return DistortionProfile(levels, masses, cumulative)


def _level_masses(problem: Problem, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Row x's strict-below and tie masses Q{d < d(x,y)}, Q{d = d(x,y)} for every y."""
    row, order = problem.d[x], problem.row_order[x]
    ds = row[order]
    cum = np.concatenate(([0.0], np.cumsum(problem.q_y[order])))
    below = cum[np.searchsorted(ds, row, side="left")]
    return below, cum[np.searchsorted(ds, row, side="right")] - below


def pairwise_correct(problem: Problem, x: int, y: int, u: float) -> float:
    """p_c(x, y, u): prior mass strictly better than y plus u times the tie mass."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must be in [0, 1], got {u}")
    below, tie = _level_masses(problem, x)
    return float(below[y] + u * tie[y])


def find_level(problem: Problem, x: int, w: float) -> tuple[int, float]:
    """Invert w -> (y, tau) with pairwise_correct(x, y, tau) == w.

    Returns the smallest reproduction index on the active level; at exact
    level boundaries the lower level is selected (tau = 1).
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    prof = profile_unique(problem, x)
    j = min(int(np.searchsorted(prof.cumulative[1:], w, side="left")),
            prof.levels.size - 1)
    tau = (w - prof.cumulative[j]) / prof.masses[j]
    tau = min(max(tau, 0.0), 1.0)
    y = int(np.flatnonzero((problem.q_y > 0)
                           & (problem.d[x] == prof.levels[j]))[0])
    return y, float(tau)


def accept_probability_by_rows(problem: Problem, w: float) -> np.ndarray:
    """accept_probability from one _level_masses call per row.

    Entries whose tie mass vanishes (only possible off the prior support)
    degenerate to the step indicator of the strict-below mass.
    """
    below, tie = np.stack([_level_masses(problem, x)
                           for x in range(problem.x_size)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.clip((w - below) / tie, 0.0, 1.0)
    return np.where(tie > 0, frac, (below <= w).astype(float))


def witness_qx_by_rows(problem: Problem, w: float) -> tuple[np.ndarray | None, float]:
    """witness_qx from one find_level call per row.

    Returns (q_x, lam) with q_x(x) proportional to p_x(x) times the
    distortion of x's level-w reproduction. When that weight is identically
    zero, dtilde1(w) = 0 and no witness is needed: returns (None, 0.0).
    """
    if not 0.0 < w <= 1.0:
        raise ValueError(f"w must be in (0, 1], got {w}")
    level_d = np.empty(problem.x_size)
    for x in range(problem.x_size):
        y, _ = find_level(problem, x, w)
        level_d[x] = problem.d[x, y]
    lam = float(np.sum(problem.p_x * level_d))
    if lam == 0.0:
        return None, 0.0
    return _readonly(problem.p_x * level_d / lam), lam


def build_dtilde1_by_rows(problem: Problem) -> PiecewiseLinear:
    """build_dtilde1 from every row's profile, one searchsorted per row.

    Builds anew on every call and keeps nothing on the instance.
    """
    profs = [profile_unique(problem, x) for x in range(problem.x_size)]
    pts = np.concatenate([p.cumulative for p in profs] + [np.array([0.0, 1.0])])
    pts = np.sort(pts)
    gap = np.maximum(BREAKPOINT_MERGE_TOL * problem.y_size * pts[1:], np.finfo(float).tiny)
    keep = np.concatenate(([True], np.diff(pts) >= gap))
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
    # slopes are exact sums of levels and never decrease, so the flat
    # segments are a prefix; rounding may still lift one of their right-end
    # values above dtilde(0), hence the mask by slope
    right_values = np.maximum.accumulate(
        np.where(slopes > slopes[0], values[1:] / bp[1:], -np.inf))
    for a in (bp, values, slopes, right_values):
        a.setflags(write=False)
    return PiecewiseLinear(bp, values, slopes, right_values)


def dtilde_exact(problem: Problem, ws) -> list[Fraction]:
    """dtilde at each w of ws in exact rational arithmetic: the greedy fill of
    mass w over each row's letters in ascending d, with the float masses,
    their running sums and every product taken exactly. w = 0 gives the
    right limit, sum_x p_x min over q_y's support of d(x, y)."""
    sup = problem.q_y > 0
    if not sup.any():
        raise InvariantViolation("q_y has empty support")
    rows = [(Fraction(float(problem.p_x[x])),
             [(Fraction(float(problem.d[x, y])), Fraction(float(problem.q_y[y])))
              for y in problem.row_order[x] if sup[y]])
            for x in range(problem.x_size)]
    out = []
    for w in ws:
        w = Fraction(float(w))
        if w == 0:
            out.append(sum(p * row[0][0] for p, row in rows))
            continue
        total = Fraction(0)
        for p, row in rows:
            below = Fraction(0)
            for d, q in row:
                total += p * d * min(max(w - below, Fraction(0)), q)
                below += q
        out.append(total / w)
    return out


def exact_merge_shift(problem: Problem) -> float:
    """The largest gap, relative to its upper end, between two distinct
    exact breakpoints of the fill (0, 1, and each row's running prior sum
    where a level of positive mass starts and at its end) that lie within
    2 * y_size * BREAKPOINT_MERGE_TOL of each other, where build_dtilde1 may
    take them as one; 0 if there are none."""
    pts = {Fraction(0), Fraction(1)}
    for x in range(problem.x_size):
        below, d_prev = Fraction(0), None
        for y in problem.row_order[x]:
            if problem.q_y[y] > 0 and problem.d[x, y] != d_prev:
                pts.add(below)
                d_prev = problem.d[x, y]
            below += Fraction(float(problem.q_y[y]))
        pts.add(below)
    pts = sorted(pts)
    gaps = [(hi - lo) / hi for lo, hi in zip(pts, pts[1:])]
    tol = 2 * problem.y_size * BREAKPOINT_MERGE_TOL
    return float(max([g for g in gaps if g < tol], default=0))


def inf_form_by_rows(problem: Problem, rate: float) -> InfFormResult:
    """inf_form_value by a Python loop over rows and their np.unique levels.

    Fills each row with the lowest-distortion letters until it carries unit
    mass, splitting partially filled levels proportionally to the prior.
    The resulting average distortion equals dtilde(exp(-rate)).
    """
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    scale = math.exp(rate)
    rows = np.zeros((problem.x_size, problem.y_size))
    sup = problem.q_y > 0
    for x in range(problem.x_size):
        remaining = 1.0
        for level in np.unique(problem.d[x, sup]):
            if remaining <= 0.0:
                break
            members = sup & (problem.d[x] == level)
            level_mass = float(np.sum(problem.q_y[members]))
            cap = scale * level_mass
            take = min(cap, remaining)
            rows[x, members] = take * problem.q_y[members] / level_mass
            remaining -= take
    value = float(np.sum(problem.p_x[:, None] * rows * problem.d))
    return InfFormResult(value, _readonly(rows))


def survival_pow(w: float, expo: float) -> float:
    """(1 - w)^expo computed in the log domain; exact 0 at w >= 1."""
    if w >= 1.0:
        return 0.0
    return math.exp(expo * math.log1p(-w))


def segment_integral_by_ends(pwl: PiecewiseLinear, M: int) -> np.ndarray:
    """The exact integral's per-segment terms, with survival_pow called at
    both ends of every segment, so each interior breakpoint twice."""
    a = pwl.breakpoints[:-1]
    b = pwl.breakpoints[1:]
    surv_a = np.array([survival_pow(w, M - 1) for w in a])
    surv_b = np.array([survival_pow(w, M - 1) for w in b])
    g_a = -surv_a * ((M - 1) * a + 1.0)
    g_b = -surv_b * ((M - 1) * b + 1.0)
    c = pwl.values[:-1] - pwl.slopes * a
    terms = c * M * (surv_a - surv_b) + pwl.slopes * (g_b - g_a)
    terms[np.abs(terms) < 1e-300] = 0.0
    return terms


def g_m(w: float, M: int) -> float:
    """Survival-side kernel G_M(w) = -(1-w)^(M-1) ((M-1) w + 1)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    if M < 1:
        raise ValueError("M must be at least 1")
    return -survival_pow(w, M - 1) * ((M - 1) * w + 1.0)


def min_uniform_pdf(w: float, M: int) -> float:
    """Density of the minimum of M independent uniforms: M (1-w)^(M-1)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    if M < 1:
        raise ValueError("M must be at least 1")
    return M * survival_pow(w, M - 1) if M > 1 else 1.0


def min_uniform_cdf(w: float, M: int) -> float:
    """CDF of the minimum of M independent uniforms: 1 - (1-w)^M."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    if M < 1:
        raise ValueError("M must be at least 1")
    return 1.0 - survival_pow(w, M)


def dtilde_of_u(problem: Problem, x: int, u: float) -> float:
    """Distortion level sitting at quantile u of the pairwise-correct variable."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must be in [0, 1], got {u}")
    prof = profile_unique(problem, x)
    j = min(int(np.searchsorted(prof.cumulative[1:], u, side="left")),
            prof.levels.size - 1)
    return float(prof.levels[j])


def pc_cdf(problem: Problem, x: int, w: float) -> float:
    """CDF of p_c(x, Y, U) at w; equals w exactly by the uniformity property."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    prof = profile_unique(problem, x)
    filled = np.minimum(prof.masses, np.maximum(0.0, w - prof.cumulative[:-1]))
    return float(np.sum(filled))


def validate_channel(w: np.ndarray) -> None:
    """Check that every row of the channel matrix W(y|x) is a probability
    vector within PROB_ATOL."""
    if not np.all(np.isfinite(w)):
        raise InvariantViolation("channel has non-finite entries")
    if np.any(w < 0):
        raise InvariantViolation("channel has negative entries")
    sums = w.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > PROB_ATOL)
    if bad.size:
        raise InvariantViolation(
            f"channel row {bad[0]} sums to {sums[bad[0]]:.12g}"
        )


def validate_ordered(problem: Problem) -> None:
    """validate() as ordered checks alone, each run on every problem: the
    first violation in this order is the one validate() must name."""
    p, q, d = problem.p_x, problem.q_y, problem.d
    for name, v in (("p_x", p), ("q_y", q)):
        if v.ndim != 1 or v.size == 0:
            raise InvariantViolation(f"{name} must be a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise InvariantViolation(f"{name} has non-finite entries")
        if np.any(v < 0):
            raise InvariantViolation(f"{name} has negative entries")
        s = float(np.sum(v))
        if abs(s - 1.0) > PROB_ATOL:
            raise InvariantViolation(f"{name} sums to {s:.12g}")
    if np.any((q > 0) & (q < np.finfo(float).tiny)):
        raise InvariantViolation("q_y has subnormal entries")
    if d.shape != (p.size, q.size):
        raise InvariantViolation(
            f"distortion matrix has shape {d.shape}, expected {(p.size, q.size)}"
        )
    if np.any(np.isnan(d)) or np.any(np.isinf(d)):
        raise InvariantViolation("non-finite distortion")
    if np.any(d < 0):
        raise InvariantViolation("negative distortion")


def write_csv_per_value(header, rows, handle) -> None:
    """The CLI's CSV table through csv.writer, formatting each float on its own."""
    writer = csv.writer(handle)
    writer.writerow(header)
    for row in rows:
        writer.writerow([FMT % v if isinstance(v, float) else v for v in row])


@dataclass(eq=False)
class KSSummary:
    """Kolmogorov-Smirnov comparison of a sample against a reference CDF."""

    trials: int
    statistic: float
    pvalue: float
    critical_value: float  # asymptotic threshold at the 1e-3 level
    passed: bool
    sample_mean: float
    sample_stderr: float
    seed: int


def _ks_summary(sample: np.ndarray, cdf, seed: int) -> KSSummary:
    result = stats.kstest(sample, cdf)
    n = sample.size
    critical = float(stats.kstwobign.isf(KS_SIGNIFICANCE) / math.sqrt(n))
    return KSSummary(
        trials=n,
        statistic=float(result.statistic),
        pvalue=float(result.pvalue),
        critical_value=critical,
        passed=bool(result.pvalue > KS_SIGNIFICANCE),
        sample_mean=float(np.mean(sample)),
        sample_stderr=float(np.std(sample, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        seed=seed,
    )


def words_to_doubles(words: np.ndarray) -> np.ndarray:
    """numpy's double of each 64-bit word, as every Generator makes it."""
    return (words >> 11) * 2.0**-53


def _trial_uniforms(seed, stream, per_trial, t0, t1):
    # shifted in place, so that a block holds two arrays of its size, not three
    words = _trial_words(seed, stream, per_trial, t0, t1)
    words >>= 11
    return words * 2.0**-53


def sample_min_uniform(M: int, trials: int, seed: int) -> KSSummary:
    """Empirical law of the minimum of M uniforms against 1 - (1-w)^M."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    mins = np.empty(trials)
    for t0, t1 in _blocks(trials, M, CHUNK):
        mins[t0:t1] = _trial_uniforms(seed, 1, M, t0, t1).min(axis=1)
    with np.errstate(divide="ignore"):
        cdf = lambda w: -np.expm1(M * np.log1p(-np.minimum(w, 1.0)))
    return _ks_summary(mins, cdf, seed)


def sample_pc_uniformity(problem: Problem, x: int, trials: int, seed: int) -> KSSummary:
    """Sampled pairwise-correct values for letter x against the uniform CDF."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    below, tie = _level_masses(problem, x)
    pc = np.empty(trials)
    draw, _ = _inverse_cdf(problem.q_y)
    for t0, t1 in _blocks(trials, 2, CHUNK):
        w = _trial_words(seed, 2, 2, t0, t1)
        y = draw(w[:, 0])
        pc[t0:t1] = below[y] + words_to_doubles(w[:, 1]) * tie[y]
    return _ks_summary(pc, "uniform", seed)


def inverse_cdf(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The prior's inverse CDF by a search of cum_q for every draw, clamped
    to the last letter with positive mass."""
    cum_q = np.cumsum(q)
    return np.minimum(np.searchsorted(cum_q, u, side="right"),
                      np.flatnonzero(q)[-1])


def simulate_gather_min(problem: Problem, M: int, trials: int, seed: int,
                        chunk: int = CHUNK, stride: int | None = None) -> MCEstimate:
    """simulate_random_code by a search per draw and the (nx, B, M) gather of
    d over the codewords, then a min: same streams, blocks and sums. A trial's
    codewords are the first M of its stride words (by default M rounded up
    to a multiple of 4, as a call at M alone reads them)."""
    stride = stride or (M + 3) // 4 * 4
    if not (M <= stride and stride % 4 == 0):
        raise ValueError(f"stride must be a multiple of 4 of at least M, got {stride}")
    values = np.empty(trials)
    for t0, t1 in _blocks(trials, problem.x_size * M, chunk):
        words = _word_block(seed, 0, t0 * stride, (t1 - t0) * stride)
        codes = inverse_cdf(problem.q_y, words_to_doubles(words.reshape(-1, stride)[:, :M]))
        best = problem.d[:, codes].min(axis=2)
        values[t0:t1] = np.sum(problem.p_x[:, None] * best, axis=0)
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MCEstimate(float(np.mean(values)), stderr, trials, seed)


def first_held_rank(held: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The rank, in row x's order, of the first letter that each row of a
    (trials, ny) mask holds, by the (trials, nx, ny) gather of the mask in
    every row's order and an argmax."""
    return np.take(held, order, axis=1).argmax(axis=2)


def _prior_by_linprog(problem: Problem, t: float, cost, a_ub, a_eq) -> PriorOptResult:
    """optimize_prior's result from min cost . (z, r) subject to
    a_ub (z, r) <= 0 and a_eq (z, r) = (1, ..., 1, t), r the last y_size
    columns, solved by scipy's linprog(method="highs"); q_star = r / t. The
    dual bound is recomputed in numpy from the equality duals alpha, without
    trusting the solver's objective. As in optimize_prior, the solver gets the
    costs divided by the power of two at their top, and alpha is scaled back.
    """
    nx = problem.x_size
    top = np.frexp(cost.max())[1]
    # HiGHS's default 1e-7 tolerances would let costs below 1e-7 of the
    # largest go unoptimized; 1e-10 is the tightest it accepts
    res = linprog(np.ldexp(cost, -top), A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq,
                  b_eq=np.concatenate([np.ones(nx), [t]]), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"k-median LP failed: {res.message}")
    q = np.clip(res.x[-problem.y_size:], 0.0, None)
    q = q / q.sum()
    value = dtilde_for_prior(problem, 1.0 / t, q)
    alpha = np.ldexp(res.eqlin.marginals[:nx], top)
    bound = _dual_bound(problem, t, alpha)
    return PriorOptResult(_readonly(q), value, bound, value - bound, _readonly(alpha))


def kmedian_lp_per_letter(problem: Problem, rate: float) -> PriorOptResult:
    """optimize_prior by the k-median LP over every (x, y) pair.

    The minimum is the k-median LP relaxation at t = e^rate (repeated
    centres allowed): min sum p_x d_xy z_xy subject to sum_y z_xy = 1,
    sum_y r_y = t and z_xy <= r_y, solved by linprog with sparse
    constraints. For t >= y_size the minimum is the floor
    sum_x p_x min_y d_xy, so t is clamped there.
    """
    if not rate >= 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    t = _lp_size(problem, rate)
    nx, ny = problem.x_size, problem.y_size
    nz = nx * ny
    k = np.arange(nz)
    cost = np.concatenate([(problem.p_x[:, None] * problem.d).ravel(), np.zeros(ny)])
    # rows 0..nx-1: sum_y z_xy = 1; row nx: sum_y r_y = t
    a_eq = sparse.csr_array(
        (np.ones(nz + ny),
         (np.concatenate([k // ny, np.full(ny, nx)]), np.arange(nz + ny))),
        shape=(nx + 1, nz + ny))
    # row (x, y): z_xy - r_y <= 0
    a_ub = sparse.csr_array(
        (np.concatenate([np.ones(nz), -np.ones(nz)]),
         (np.concatenate([k, k]), np.concatenate([k, nz + k % ny]))),
        shape=(nz, nz + ny))
    return _prior_by_linprog(problem, t, cost, a_ub, a_eq)


def kmedian_lp_by_levels_linprog(problem: Problem, rate: float) -> PriorOptResult:
    """optimize_prior's LP over the distinct levels of each row of d,
    assembled as sparse CSR blocks and solved by linprog, with the same
    columns, rows and options as optimize_prior's call into HiGHS, so the
    two agree bit for bit.
    """
    if not rate >= 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    t = _lp_size(problem, rate)
    nx, ny = problem.x_size, problem.y_size
    nz = nx * ny
    k = np.arange(nz)
    # (x, y) in each row's ascending order, and where each level starts
    ranked = (np.arange(nx)[:, None] * ny + problem.row_order).ravel()
    head = problem.levels.head.ravel()
    # each level is numbered by its smallest (x, y), its first entry in the
    # stable row order
    heads = ranked[head]
    by_head = np.argsort(heads)
    level = np.empty(nz, dtype=np.intp)
    level[ranked] = np.argsort(by_head)[np.cumsum(head) - 1]
    heads = heads[by_head]
    g = heads.size
    cost = np.concatenate([(problem.p_x[:, None] * problem.d).ravel()[heads],
                           np.zeros(ny)])
    # rows 0..nx-1: sum_k z_xk = 1; row nx: sum_y r_y = t
    a_eq = sparse.csr_array(
        (np.ones(g + ny),
         (np.concatenate([heads // ny, np.full(ny, nx)]), np.arange(g + ny))),
        shape=(nx + 1, g + ny))
    # row (x, level k): z_xk - sum_{y at level k} r_y <= 0
    a_ub = sparse.csr_array(
        (np.concatenate([np.ones(g), -np.ones(nz)]),
         (np.concatenate([np.arange(g), level]),
          np.concatenate([np.arange(g), g + k % ny]))),
        shape=(g, g + ny))
    return _prior_by_linprog(problem, t, cost, a_ub, a_eq)


def best_code_distortion(problem: Problem, m: int | None) -> float:
    """D*(m), the least average distortion of a code of at most m words, by
    exhaustive search; m = None means no limit. More distinct letters never
    hurt, so the search runs over the sets of min(m, y_size) letters."""
    ny = problem.y_size
    size = ny if m is None else min(m, ny)
    return min(float(np.sum(problem.p_x * problem.d[:, list(c)].min(axis=1)))
               for c in itertools.combinations(range(ny), size))


def achievability_bound_scalar(problem: Problem, rate: float, lam: float) -> AchievabilityBound:
    """achievability_bound for one scalar lam, in scalar arithmetic.

    Requires lam < rate. Also reports the looser variant that replaces the
    full-average term with d_max. w is numpy's exp, as the library takes it:
    math.exp can differ from it by an ulp.
    """
    if lam >= rate:
        raise ValueError(f"lam must be below the rate, got lam={lam}, rate={rate}")
    w = float(np.exp(lam - rate))
    d_w = dtilde(problem, w)
    d_1 = dtilde(problem, 1.0)
    f = f_of(lam)
    return AchievabilityBound(
        value=d_w + (d_1 - d_w) * f,
        dmax_value=d_w + problem.d_max * f,
        w=w,
    )


def exact_split_quantile_bound(problem: Problem, m: int) -> float:
    """Least split-quantile bound at rate log(m - 1) over 40 slacks in
    [rate - 4, rate - 1e-3], one scalar achievability_bound call each: an
    upper end for exact's bound[M=m], m > 2."""
    rate = math.log(m - 1)
    return min(achievability_bound_scalar(problem, rate, lam).value
               for lam in np.linspace(rate - 4.0, rate - 1e-3, 40))


def segment_scan_lams(problem: Problem, rate: float, points: int = 64) -> np.ndarray:
    """lam below the rate at both ends of each segment of dtilde and at
    `points` evenly spaced between; the flat first segment, where the bound
    only falls, is scanned over the last 5 of lam before its end."""
    hi = math.nextafter(rate, -math.inf)
    ends = np.minimum(rate + np.log(build_dtilde1(problem).breakpoints[1:]), hi)
    ends = np.concatenate([[ends[0] - 5.0], ends])
    return np.linspace(ends[:-1], ends[1:], points + 2).ravel()


def sign_changes_column_stack(slope, lo: np.ndarray, hi: np.ndarray,
                              *coef: np.ndarray) -> np.ndarray:
    """_sign_changes with one slope call for each end of the brackets and a
    fresh grid each round: a, the 63 inner points and b stacked by
    np.column_stack, the points at or below zero counted by np.count_nonzero."""
    k = np.flatnonzero((slope(lo, *coef) < 0) & (slope(hi, *coef) > 0))
    a, b, coef, rows = lo[k], hi[k], [c[k, None] for c in coef], np.arange(k.size)
    for _ in range(10 if k.size else 0):
        x = np.column_stack([a, a[:, None] + (b - a)[:, None] * (np.arange(1, 64) / 64), b])
        j = np.count_nonzero(slope(x[:, 1:-1], *coef) <= 0, axis=1)
        a, b = x[rows, j], x[rows, j + 1]
    return np.concatenate([a, b])


def rate_sum(problem: Problem, d_req: float, z: np.ndarray, use_g: bool) -> np.ndarray:
    """rtilde(z) + f_inverse(y), or + g(1/y), y = (d_req - z) / (dtilde(1) - z),
    at each split z of any shape: inf where z is not strictly inside
    (dtilde(0), d_req) or y not inside (0, 1)."""
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    y = (d_req - z) / (hi - z)
    ok = (lo < z) & (z < d_req) & (0.0 < y) & (y < 1.0)
    out = np.full(np.shape(z), math.inf)
    out[ok] = rtilde(problem, z[ok]) + (_g_of_log(-np.log(y[ok])) if use_g else f_inverse(y[ok]))
    return out


def segment_scan_splits(problem: Problem, d_req: float, points: int) -> np.ndarray:
    """Splits z at both ends of each segment of dtilde inside
    (dtilde(0), d_req) and at `points` evenly spaced between, one row per
    segment; the outer ends are the doubles next to dtilde(0) and d_req."""
    pw = build_dtilde1(problem)
    lo = dtilde(problem, 0.0)
    kinks = pw.value(pw.breakpoints[1:]) / pw.breakpoints[1:]
    ends = np.unique(np.concatenate([kinks[(lo < kinks) & (kinks < d_req)], [
        math.nextafter(lo, math.inf), math.nextafter(d_req, -math.inf)]]))
    return np.linspace(ends[:-1], ends[1:], points + 2, axis=1)


def rate_interior_minima(problem: Problem, d_req: float, use_g: bool,
                         points: int = 400) -> np.ndarray:
    """The number of local minima strictly inside each segment of dtilde of
    rtilde(z) + f_inverse(y) (or + g(1/y) with use_g), from a scan of
    `points` splits a segment: the count of falls followed by rises, where a
    step smaller than 1e-12 of the larger value is rounding and is skipped.
    rate_for_distortion takes each segment's sum to fall and then rise, so
    every count must be 0 or 1."""
    vals = rate_sum(problem, d_req, segment_scan_splits(problem, d_req, points), use_g)
    counts = []
    for row in vals:
        row = row[np.isfinite(row)]
        step = np.diff(row)
        keep = np.abs(step) > 1e-12 * np.maximum(1.0, np.abs(row[1:]))
        signs = np.sign(step[keep])
        counts.append(int(np.sum((signs[:-1] < 0) & (signs[1:] > 0))))
    return np.array(counts, dtype=int)


# product_prior_three_stage: multiplicative-weights steps per start
PRODUCT_ITERATIONS = 300


def _single_letter_grid(ny: int, step: float):
    """Compositions of 1.0 at resolution `step` over ny letters."""
    n = round(1.0 / step)

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield np.array(prefix + [remaining]) / n
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    yield from rec([], n, ny)


def product_prior_three_stage(
    base: Problem, n: int, rate: float, *, seed: int = 0
) -> ProductPriorReport:
    """product_prior_experiment by the search it replaced: multiplicative
    weights driven by dtilde_subgradient through the product map from the
    same starts, a single-letter grid when ny <= 4, then one softmax
    Nelder-Mead polish of the incumbent."""
    if n < 1:
        raise ValueError("n must be at least 1")
    prod = product_problem(base, n)
    total_rate = n * rate
    if n == 1:
        # identical search spaces; one optimization answers both questions
        res = optimize_prior(base, total_rate)
        return ProductPriorReport(1, rate, res.value, res.q_star, res.value, 0.0)

    w = math.exp(-total_rate)
    ny = base.y_size
    digits = (np.arange(prod.y_size)[:, None] // ny ** np.arange(n)[None, :]) % ny
    counts = np.stack([(digits == y).sum(axis=1) for y in range(ny)]).astype(float)

    def single_objective(q: np.ndarray) -> tuple[float, np.ndarray]:
        qn = _product_power(q, n)
        val = dtilde_for_prior(prod, w, qn)
        g_full = dtilde_subgradient(prod, w, qn)
        g = counts @ (g_full * qn) / np.maximum(q, 1e-300)
        return val, g

    rng = np.random.default_rng(seed)
    starts = [np.full(ny, 1.0 / ny)]
    starts += [rng.dirichlet(np.ones(ny)) for _ in range(PRODUCT_RANDOM_STARTS)]
    eta0 = 1.0 / (1.0 + prod.d_max / w)
    best_val, best_q = math.inf, starts[0]
    for q0 in starts:
        q = np.clip(q0, 1e-300, None)
        q = q / q.sum()
        for t in range(1, PRODUCT_ITERATIONS + 1):
            val, g = single_objective(q)
            if val < best_val:
                best_val, best_q = val, q.copy()
            q = q * np.exp(-(eta0 / math.sqrt(t)) * (g - g.min()))
            q = q / q.sum()

    # descent through the product map stalls on kinks; sweep a coarse
    # single-letter grid and polish before trusting the memoryless value
    if ny <= 4:
        step = 0.02 if ny <= 3 else 0.05
        for q in _single_letter_grid(ny, step):
            val = dtilde_for_prior(prod, w, _product_power(q, n))
            if val < best_val:
                best_val, best_q = val, q

    def softmax_objective(theta: np.ndarray) -> float:
        e = np.exp(theta - theta.max())
        return dtilde_for_prior(prod, w, _product_power(e / e.sum(), n))

    theta0 = np.log(np.clip(best_q, 1e-12, None))
    nm = minimize(softmax_objective, theta0, method="Nelder-Mead",
                  options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-13})
    e = np.exp(nm.x - nm.x.max())
    q_nm = e / e.sum()
    val_nm = dtilde_for_prior(prod, w, _product_power(q_nm, n))
    if val_nm < best_val:
        best_val, best_q = val_nm, q_nm

    full = optimize_prior(prod, total_rate)
    gap = full.value - best_val
    if gap > 1e-9:
        raise EqualityCheckError(
            "full-simplex optimum exceeded the product-prior value"
        )
    return ProductPriorReport(n, rate, float(best_val), best_q, full.value, float(gap))
