"""Exact converse machinery and optimization of the prior.

Any codebook C with M codewords, encoded optimally, attains exactly
dtilde(1/M, Q_C) where Q_C is the empirical distribution of its codewords.
Minimizing dtilde(exp(-R), Q) over priors Q therefore lower-bounds the best
achievable distortion at rate R; combined with the split-quantile
achievability bound this sandwiches the operational curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .dtilde import dtilde, dtilde_for_prior, fill_thresholds
from .model import Channel, Code, EqualityCheckError, Problem, _readonly
from .random_coding import f_of


class ConverseEquality(NamedTuple):
    lhs: float
    rhs: float
    gap: float


class SandwichBounds(NamedTuple):
    lower: float
    upper: float
    q_star: np.ndarray


@dataclass(eq=False)
class PriorOptResult:
    """Outcome of minimizing dtilde(w, .) over the simplex.

    value is dtilde(w, q_star), attained by q_star; dual_bound is a
    certified lower bound on the minimum; certificate_gap = value -
    dual_bound, so the minimum lies within certificate_gap below value.
    """

    q_star: np.ndarray
    value: float
    dual_bound: float
    certificate_gap: float


def code_prior(problem: Problem, code: Code) -> np.ndarray:
    """Empirical distribution of the codewords, weighted by multiplicity."""
    if code.M == 0:
        raise ValueError("code must be nonempty")
    members = np.asarray(code.members, dtype=int)
    if members.min() < 0 or members.max() >= problem.y_size:
        raise ValueError("code member out of range")
    return np.bincount(members, minlength=problem.y_size) / code.M


def code_distortion(problem: Problem, code: Code) -> float:
    """Average distortion of the code under optimal (minimum-distortion) encoding."""
    if code.M == 0:
        raise ValueError("code must be nonempty")
    members = np.asarray(code.members, dtype=int)
    return float(np.sum(problem.p_x * problem.d[:, members].min(axis=1)))


def optimal_encoder(problem: Problem, code: Code) -> Channel:
    """Encoder splitting each source letter uniformly over its closest codewords.

    Codeword multiplicity counts: a repeated codeword receives a share per
    copy, which matches the packing channel at w = 1/M under the code prior.
    """
    if code.M == 0:
        raise ValueError("code must be nonempty")
    members = np.asarray(code.members, dtype=int)
    rows = np.zeros((problem.x_size, problem.y_size))
    for x in range(problem.x_size):
        dc = problem.d[x, members]
        winners = members[dc == dc.min()]
        np.add.at(rows[x], winners, 1.0 / winners.size)
    return Channel(rows)


def converse_equality_check(
    problem: Problem, code: Code, tol: float = 1e-10
) -> ConverseEquality:
    """Verify code distortion == dtilde(1/M, code prior); raise beyond tol."""
    lhs = code_distortion(problem, code)
    prior = code_prior(problem, code)
    rhs = dtilde(Problem(problem.p_x, prior, problem.d), 1.0 / code.M)
    gap = abs(lhs - rhs)
    if gap > tol:
        raise EqualityCheckError(
            f"converse equality violated: lhs={lhs!r} rhs={rhs!r} gap={gap:.3e}"
        )
    return ConverseEquality(lhs, rhs, gap)


def dtilde_subgradient(problem: Problem, w: float, prior=None) -> np.ndarray:
    """Subgradient of prior -> dtilde(w, prior) from the fill thresholds.

    Raising the mass of letter y displaces fill mass from each letter's
    threshold level theta_x down to d(x, y) where that is an improvement,
    at exchange rate 1/w.
    """
    if prior is None:
        prior = problem.q_y
    theta = fill_thresholds(problem, w, prior)
    gain = np.maximum(theta[:, None] - problem.d, 0.0)
    return -np.sum(problem.p_x[:, None] * gain, axis=0) / w


def _lp_size(problem: Problem, rate: float) -> float:
    """t = e^rate, clamped to y_size: beyond it every letter can be opened."""
    ny = problem.y_size
    return float(ny) if rate >= math.log(ny) else math.exp(rate)


def _dual_bound(problem: Problem, t: float, alpha: np.ndarray) -> float:
    """Jain-Vazirani dual of the k-median LP at size t, valid for any alpha.

    L(alpha) = sum_x alpha_x - t * max_y sum_x (alpha_x - p_x d_xy)^+
    lower-bounds every feasible (z, r), hence dtilde(1/t, q) for every q.
    """
    excess = np.maximum(alpha[:, None] - problem.p_x[:, None] * problem.d, 0.0)
    return float(np.sum(alpha) - t * np.max(np.sum(excess, axis=0)))


def optimize_prior(problem: Problem, rate: float) -> PriorOptResult:
    """Minimize prior -> dtilde(exp(-rate), prior) over the simplex exactly.

    The minimum is the k-median LP relaxation at t = e^rate (repeated
    centres allowed): min sum p_x d_xy z_xy subject to sum_y z_xy = 1,
    sum_y r_y = t and z_xy <= r_y, solved by HiGHS with sparse
    constraints; q_star = r / t. For t >= y_size the minimum is the floor
    sum_x p_x min_y d_xy, so t is clamped there. The dual bound is
    recomputed in numpy from the equality duals alpha, without trusting
    the solver's objective.
    """
    if rate < 0:
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


def dhat_sandwich(
    problem: Problem,
    rate: float,
    lam_grid=None,
    tol: float = 1e-9,
) -> SandwichBounds:
    """Certified lower bound vs the matching achievability upper bound.

    lower = optimize_prior(rate).dual_bound, with q_star its prior;
    upper = min over lam in lam_grid of
            optimize_prior(rate - lam).value + d_max * f(lam).
    """
    if lam_grid is None:
        lam_grid = [rate - t for t in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    lam_grid = [lam for lam in lam_grid if lam < rate]
    if not lam_grid:
        raise ValueError("lam_grid must contain at least one value below the rate")
    at_rate = optimize_prior(problem, rate)
    lower = at_rate.dual_bound
    upper = math.inf
    for lam in lam_grid:
        cand = (optimize_prior(problem, rate - lam).value
                + problem.d_max * f_of(lam))
        upper = min(upper, cand)
    if lower > upper + tol:
        raise EqualityCheckError(
            f"sandwich violated: lower={lower!r} > upper={upper!r}"
        )
    return SandwichBounds(lower, upper, at_rate.q_star)
