"""Exact converse machinery and optimization of the prior.

Any codebook C with M codewords, encoded optimally, attains exactly
dtilde(1/M, Q_C) where Q_C is the empirical distribution of its codewords.
Minimizing dtilde(exp(-R), Q) over priors Q therefore lower-bounds the best
achievable distortion at rate R; combined with the split-quantile
achievability bound this sandwiches the operational curve. The product
experiment compares the best memoryless prior on an n-fold source with
the unrestricted optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize

from .dtilde import dtilde, dtilde_for_prior, fill_thresholds
from .model import Channel, Code, EqualityCheckError, Problem, _readonly
from .random_coding import f_of

EQUALITY_TOL = 1e-10  # converse_equality_check: largest |lhs - rhs| accepted
SANDWICH_SLACKS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)  # dhat_sandwich: rate - lam
SANDWICH_TOL = 1e-9   # dhat_sandwich: largest lower - upper accepted


class ConverseEquality(NamedTuple):
    lhs: float
    rhs: float
    gap: float


class SandwichBounds(NamedTuple):
    lower: float
    upper: float
    q_star: np.ndarray
    slack: float | None  # the rate - lam that gave upper; None at the floor


class ProductPriorReport(NamedTuple):
    n: int
    rate: float
    product_value: float
    product_prior: np.ndarray
    full_value: float
    gap: float


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


def _members(problem: Problem, code: Code) -> np.ndarray:
    """The code's members as indices; raises unless nonempty and in [0, y_size)."""
    if code.M == 0:
        raise ValueError("code must be nonempty")
    members = np.asarray(code.members, dtype=int)
    if members.min() < 0 or members.max() >= problem.y_size:
        raise ValueError("code member out of range")
    return members


def code_prior(problem: Problem, code: Code) -> np.ndarray:
    """Empirical distribution of the codewords, weighted by multiplicity."""
    return np.bincount(_members(problem, code), minlength=problem.y_size) / code.M


def code_distortion(problem: Problem, code: Code) -> float:
    """Average distortion of the code under optimal (minimum-distortion) encoding."""
    members = _members(problem, code)
    return float(np.sum(problem.p_x * problem.d[:, members].min(axis=1)))


def optimal_encoder(problem: Problem, code: Code) -> Channel:
    """Encoder splitting each source letter uniformly over its closest codewords.

    Codeword multiplicity counts: a repeated codeword receives a share per
    copy, which matches the packing channel at w = 1/M under the code prior.
    """
    members = _members(problem, code)
    dc = problem.d[:, members]
    x, j = np.nonzero(dc == dc.min(axis=1, keepdims=True))
    rows = np.zeros((problem.x_size, problem.y_size))
    np.add.at(rows, (x, members[j]), 1.0 / np.bincount(x)[x])
    return Channel(rows)


def converse_equality_check(problem: Problem, code: Code) -> ConverseEquality:
    """Verify code distortion == dtilde(1/M, code prior); raise beyond EQUALITY_TOL."""
    lhs = code_distortion(problem, code)
    prior = code_prior(problem, code)
    rhs = dtilde(Problem(problem.p_x, prior, problem.d), 1.0 / code.M)
    gap = abs(lhs - rhs)
    if gap > EQUALITY_TOL:
        raise EqualityCheckError(
            f"converse equality violated: lhs={lhs!r} rhs={rhs!r} gap={gap:.3e}"
        )
    return ConverseEquality(lhs, rhs, gap)


def dtilde_subgradient(problem: Problem, w: float, prior) -> np.ndarray:
    """Subgradient of prior -> dtilde(w, prior) from the fill thresholds.

    Raising the mass of letter y displaces fill mass from each letter's
    threshold level theta_x down to d(x, y) where that is an improvement,
    at exchange rate 1/w.
    """
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
    """Minimize prior -> dtilde(exp(-rate), prior) over the simplex.

    The minimum is the k-median LP relaxation at t = e^rate (repeated
    centres allowed): min sum p_x d_xy z_xy subject to sum_y z_xy = 1,
    sum_y r_y = t and z_xy <= r_y; q_star = r / t. HiGHS solves it over
    the distinct levels of each row of d instead of its letters: one
    z_xk <= sum_{y at level k} r_y per (x, level). The two LPs have the
    same optimum, since the letters of a level share the cost p_x d_xk,
    so z_xk is the sum of their z_xy, and any z_xk splits back as
    z_xy = z_xk r_y / sum_{y at level k} r_y. Each level is numbered by
    its smallest row-major (x, y), so a d without ties gives the per-letter
    LP column for column. For t >= y_size the minimum is the floor
    sum_x p_x min_y d_xy, so t is clamped there. The dual bound is
    recomputed in numpy from the equality duals alpha against the full
    p_x d matrix, without trusting the solver's objective. HiGHS stops
    within its 1e-10 tolerances, so where costs p_x d_xy differ by about
    1e-10, value can sit up to about 5e-10 above the minimum;
    certificate_gap reports that distance, and dual_bound stays valid.
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
    # the stable row order lists a level's letters by y, so its first entry
    # is its smallest (x, y); levels are numbered in that order
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
    # HiGHS's default 1e-7 tolerances would let costs p_x d_xy below 1e-7
    # go unoptimized; 1e-10 is the tightest it accepts
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(g), A_eq=a_eq,
                  b_eq=np.concatenate([np.ones(nx), [t]]), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"k-median LP failed: {res.message}")
    q = np.clip(res.x[g:], 0.0, None)
    q = q / q.sum()
    value = dtilde_for_prior(problem, 1.0 / t, q)
    bound = _dual_bound(problem, t, res.eqlin.marginals[:nx])
    return PriorOptResult(
        q_star=_readonly(q),
        value=value,
        dual_bound=bound,
        certificate_gap=value - bound,
    )


def dhat_sandwich(problem: Problem, rate: float) -> SandwichBounds:
    """Certified lower bound vs the matching achievability upper bound.

    lower = optimize_prior(rate).dual_bound, with q_star its prior;
    upper = min over lam = rate - s, s in SANDWICH_SLACKS, of
            optimize_prior(rate - lam).value + d_max * f(lam).
    Each LP depends on its rate only through _lp_size's t, so each distinct
    t is solved once. Where every rate - s rounds back to rate (about 1e16
    and above), the LP is clamped at the floor sum_x p_x min_y d_xy, upper
    is its value and slack is None.
    """
    at_rate = optimize_prior(problem, rate)
    solved = {_lp_size(problem, rate): at_rate}
    upper, slack = at_rate.value, None
    for s in SANDWICH_SLACKS:
        lam = rate - s
        if not lam < rate:
            continue
        t = _lp_size(problem, rate - lam)
        if t not in solved:
            solved[t] = optimize_prior(problem, rate - lam)
        cand = solved[t].value + problem.d_max * f_of(lam)
        if slack is None or cand < upper:
            upper, slack = cand, s
    if at_rate.dual_bound > upper + SANDWICH_TOL:
        raise EqualityCheckError(
            f"sandwich violated: lower={at_rate.dual_bound!r} > upper={upper!r}"
        )
    return SandwichBounds(at_rate.dual_bound, upper, at_rate.q_star, slack)


# product_prior_experiment: multiplicative-weights steps per start, random
# starts besides the uniform one, and the most channel entries
# x_size**n * y_size**n (a 4x4 base at n = 4, which takes about 8 s)
PRODUCT_ITERATIONS = 300
PRODUCT_RANDOM_STARTS = 4
PRODUCT_MAX_ENTRIES = 1 << 16


def _product_power(vec: np.ndarray, n: int) -> np.ndarray:
    return reduce(np.kron, [vec] * n)


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


def product_problem(base: Problem, n: int) -> Problem:
    """n-fold memoryless extension with per-letter averaged distortion."""
    nx, ny = base.x_size, base.y_size
    d = np.zeros((nx ** n, ny ** n))
    for i in range(n):
        left = np.ones((nx ** i, ny ** i))
        right = np.ones((nx ** (n - 1 - i), ny ** (n - 1 - i)))
        d += np.kron(np.kron(left, base.d), right)
    return Problem(_product_power(base.p_x, n), _product_power(base.q_y, n), d / n)


def product_prior_experiment(
    base: Problem, n: int, rate: float, *, seed: int = 0
) -> ProductPriorReport:
    """Best memoryless prior vs the unrestricted prior on the n-fold source.

    Optimizes the single-letter prior through the product map by
    multiplicative weights, then solves the full-simplex LP exactly, so
    full_value <= product_value holds up to solver tolerance. Exploratory:
    the sign and size of the remaining gap are reported, not asserted.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    entries = base.x_size ** n * base.y_size ** n
    if entries > PRODUCT_MAX_ENTRIES:
        raise ValueError(f"product instance has {entries} channel entries, "
                         f"more than {PRODUCT_MAX_ENTRIES}")
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
