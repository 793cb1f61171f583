"""Test-only oracles: the laws behind the exact formulas, and samplers of them.

The library computes each quantity by one route (closed-form segment
integrals, the piecewise-linear functional, the k-median LP). The routes
here only cross-check it: the order-statistic kernel G_M and the law of the
minimum of M uniforms, the CDF and quantile levels of the pairwise-correct
variable p_c(x, Y, U), two Kolmogorov-Smirnov samplers of those laws, a
row-sum check for channels, the random-code simulator's plain kernel:
a search of the prior's CDF for every draw and a gather of d over every
codeword, then a min, the prior LP with one variable per (x, y) pair
rather than per distinct distortion level, exact's split-quantile
bound as the minimum of 40 scalar achievability_bound calls, and the
per-row level routes that Problem.levels replaced: the np.unique profile,
the strict-below and tie masses with the pairwise-correct probability and
its inverse built on them, the acceptance matrix and witness built row by
row, the piecewise-linear dtilde1 built from every row's profile, and the
capacity-capped greedy channel filled level by level.

The samplers draw from the library's own Philox streams and blocks (streams
1 and 2; the random-code simulator uses stream 0), so they are seeded
exactly as the library is, and a patched ``oneshotrd.montecarlo.BUDGET``
bounds their memory too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse, stats
from scipy.optimize import linprog

from oneshotrd import (
    Channel, DistortionProfile, InvariantViolation, PiecewiseLinear, Problem, f_of,
)
from oneshotrd.converse import PriorOptResult, _dual_bound, _lp_size
from oneshotrd.dtilde import BREAKPOINT_MERGE_TOL, dtilde, dtilde_for_prior
from oneshotrd.model import PROB_ATOL, _readonly
from oneshotrd.montecarlo import (
    CHUNK, MCEstimate, _blocks, _inverse_cdf, _stride, _trial_uniforms,
)
from oneshotrd.random_coding import AchievabilityBound, _survival_pow
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
    return PiecewiseLinear(bp, intercepts, slopes, right_values)


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
    return InfFormResult(value, Channel(rows))


def g_m(w: float, M: int) -> float:
    """Survival-side kernel G_M(w) = -(1-w)^(M-1) ((M-1) w + 1)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    if M < 1:
        raise ValueError("M must be at least 1")
    return -_survival_pow(w, M - 1) * ((M - 1) * w + 1.0)


def min_uniform_pdf(w: float, M: int) -> float:
    """Density of the minimum of M independent uniforms: M (1-w)^(M-1)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    if M < 1:
        raise ValueError("M must be at least 1")
    return M * _survival_pow(w, M - 1) if M > 1 else 1.0


def min_uniform_cdf(w: float, M: int) -> float:
    """CDF of the minimum of M independent uniforms: 1 - (1-w)^M."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    if M < 1:
        raise ValueError("M must be at least 1")
    return 1.0 - _survival_pow(w, M)


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


def validate_channel(channel: Channel) -> None:
    """Check that every row is a probability vector within PROB_ATOL."""
    w = channel.w
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


def sample_min_uniform(M: int, trials: int, seed: int) -> KSSummary:
    """Empirical law of the minimum of M uniforms against 1 - (1-w)^M."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    mins = np.empty(trials)
    for t0, t1 in _blocks(trials, _stride(M), CHUNK):
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
    draw = _inverse_cdf(problem.q_y)
    for t0, t1 in _blocks(trials, _stride(2), CHUNK):
        u = _trial_uniforms(seed, 2, 2, t0, t1)
        y = draw(u[:, 0])
        pc[t0:t1] = below[y] + u[:, 1] * tie[y]
    return _ks_summary(pc, "uniform", seed)


def inverse_cdf(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The prior's inverse CDF by a search of cum_q for every draw, clamped
    to the last letter with positive mass."""
    cum_q = np.cumsum(q)
    return np.minimum(np.searchsorted(cum_q, u, side="right"),
                      np.flatnonzero(q)[-1])


def simulate_gather_min(problem: Problem, M: int, trials: int, seed: int,
                        chunk: int = CHUNK) -> MCEstimate:
    """simulate_random_code by a search per draw and the (nx, B, M) gather of
    d over the codewords, then a min: same streams, blocks and sums."""
    values = np.empty(trials)
    for t0, t1 in _blocks(trials, problem.x_size * M, chunk):
        codes = inverse_cdf(problem.q_y, _trial_uniforms(seed, 0, M, t0, t1))
        best = problem.d[:, codes].min(axis=2)
        values[t0:t1] = np.sum(problem.p_x[:, None] * best, axis=0)
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MCEstimate(float(np.mean(values)), stderr, trials, seed)


def kmedian_lp_per_letter(problem: Problem, rate: float) -> PriorOptResult:
    """optimize_prior by the k-median LP over every (x, y) pair.

    The minimum is the k-median LP relaxation at t = e^rate (repeated
    centres allowed): min sum p_x d_xy z_xy subject to sum_y z_xy = 1,
    sum_y r_y = t and z_xy <= r_y, solved by HiGHS with sparse
    constraints; q_star = r / t. For t >= y_size the minimum is the floor
    sum_x p_x min_y d_xy, so t is clamped there. The dual bound is
    recomputed in numpy from the equality duals alpha, without trusting
    the solver's objective.
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
    # HiGHS's default 1e-7 tolerances would let costs p_x d_xy below 1e-7
    # go unoptimized; 1e-10 is the tightest it accepts
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(nz), A_eq=a_eq,
                  b_eq=np.concatenate([np.ones(nx), [t]]), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"k-median LP failed: {res.message}")
    q = np.clip(res.x[nz:], 0.0, None)
    q = q / q.sum()
    value = dtilde_for_prior(problem, 1.0 / t, q)
    bound = _dual_bound(problem, t, res.eqlin.marginals[:nx])
    return PriorOptResult(
        q_star=_readonly(q),
        value=value,
        dual_bound=bound,
        certificate_gap=value - bound,
    )


def achievability_bound_scalar(problem: Problem, rate: float, lam: float) -> AchievabilityBound:
    """achievability_bound for one scalar lam, in scalar arithmetic.

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


def exact_split_quantile_bound(problem: Problem, m: int) -> float:
    """exact's bound[M=m] for m > 2, one scalar achievability_bound call per lam."""
    rate = math.log(m - 1)
    return min(achievability_bound_scalar(problem, rate, lam).value
               for lam in np.linspace(rate - 4.0, rate - 1e-3, 40))
