"""Exact converse machinery and optimization of the prior.

Any codebook C with M codewords, encoded optimally, attains exactly
dtilde(1/M, Q_C) where Q_C is the empirical distribution of its codewords.
Minimizing dtilde(exp(-R), Q) over priors Q therefore lower-bounds the best
achievable distortion at rate R; the exact average distortion of a random
code of floor(e^R) words drawn from a prior is achievable, and the two
sandwich the operational curve. The product experiment compares the best
memoryless prior on an n-fold source with the unrestricted optimum. Only the
LP, solved on the HiGHS binding that scipy bundles, and the product prior's
Nelder-Mead search need scipy, imported at their first call: about 0.5 s
saved in every process that runs neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .dtilde import dtilde_for_prior
from .model import EqualityCheck, EqualityCheckError, Problem, _readonly, scaled_tol
from .random_coding import exact_expected_distortion

EQUALITY_TOL = 1e-10  # converse_equality_check: largest |lhs - rhs|, times the scale of d
SANDWICH_TOL = 1e-9   # dhat_sandwich: largest lower - upper, times the scale of d


def __getattr__(name: str):
    """converse.linprog, _highs on scipy's bundled HiGHS binding, or
    converse.minimize, scipy.optimize's: bound on first use (PEP 562), or
    whatever has been set in its place since. This module calls them too, as
    a bare name lookup skips module __getattr__. As a partial, linprog is not
    a function of this module, so a tracer of those wraps it only by name."""
    if name not in ("linprog", "minimize"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name not in globals():
        import scipy.optimize
        from scipy.optimize._highspy import _core
        globals()[name] = partial(_highs, _core) if name == "linprog" else scipy.optimize.minimize
    return globals()[name]


class SandwichBounds(NamedTuple):
    lower: float
    upper: float
    q_star: np.ndarray
    M: int | None      # floor(e^rate); None where e^rate overflows
    prior: np.ndarray  # the prior whose random-code average is upper


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
    alpha holds the LP's equality duals, one per source letter, from which
    dual_bound is computed.
    """

    q_star: np.ndarray
    value: float
    dual_bound: float
    certificate_gap: float
    alpha: np.ndarray


def _members(problem: Problem, code) -> np.ndarray:
    """The code, a 1-D sequence of letters with repeats allowed, as an index
    array; raises unless it is nonempty and every letter is an integer in
    [0, y_size)."""
    members = np.asarray(code)
    if members.ndim != 1:
        raise ValueError("code must be a 1-D sequence of letters")
    if members.size == 0:
        raise ValueError("code must be nonempty")
    if members.dtype.kind not in "iu":
        # a NaN or an infinite letter casts to some integer; the test rejects it
        with np.errstate(invalid="ignore"):
            ints = members.astype(int)
        if (ints != members).any():
            raise ValueError("code letters must be integers")
        members = ints
    if members.min() < 0 or members.max() >= problem.y_size:
        raise ValueError("code member out of range")
    return members


def code_prior(problem: Problem, code) -> np.ndarray:
    """Empirical distribution of the codewords, weighted by multiplicity."""
    members = _members(problem, code)
    return np.bincount(members, minlength=problem.y_size) / len(members)


def code_distortion(problem: Problem, code) -> float:
    """Average distortion of the code under optimal (minimum-distortion) encoding."""
    members = _members(problem, code)
    return float(np.sum(problem.p_x * problem.d[:, members].min(axis=1)))


def optimal_encoder(problem: Problem, code) -> np.ndarray:
    """Encoder splitting each source letter uniformly over its closest codewords.

    Codeword multiplicity counts: a repeated codeword receives a share per
    copy, which matches the packing channel at w = 1/M under the code prior.
    Returns the channel W(y|x) as a read-only matrix.
    """
    members = _members(problem, code)
    dc = problem.d[:, members]
    x, j = np.nonzero(dc == dc.min(axis=1, keepdims=True))
    rows = np.zeros((problem.x_size, problem.y_size))
    np.add.at(rows, (x, members[j]), 1.0 / np.bincount(x)[x])
    return _readonly(rows)


def converse_equality_check(problem: Problem, code) -> EqualityCheck:
    """Verify code distortion == dtilde(1/M, code prior); raise beyond scaled EQUALITY_TOL."""
    lhs = code_distortion(problem, code)
    rhs = dtilde_for_prior(problem, 1.0 / len(code), code_prior(problem, code))
    gap = abs(lhs - rhs)
    if gap > scaled_tol(problem, EQUALITY_TOL):
        raise EqualityCheckError(
            f"converse equality violated: lhs={lhs!r} rhs={rhs!r} gap={gap:.3e}"
        )
    return EqualityCheck(lhs, rhs, gap)


def dtilde_subgradient(problem: Problem, w: float, prior) -> np.ndarray:
    """Subgradient of prior -> dtilde(w, prior) from the fill thresholds.

    The mass-w fill of dtilde_for_prior stops, in each row's sort order, at
    the last letter with less than w of mass before it; its level is the
    threshold theta_x. Raising the mass of letter y displaces fill mass from
    theta_x down to d(x, y) where that is an improvement, at exchange rate
    1/w. No search in the package uses it: it is kept as a public export and
    as the converse.dtilde_subgradient trace point.
    """
    if not np.finfo(float).tiny <= w <= 1.0:
        raise ValueError(f"w must be a normal double in (0, 1], got {w}")
    below = np.cumsum(np.asarray(prior, dtype=float)[problem.row_order][:, :-1], axis=1)
    theta = problem.levels.ds[np.arange(problem.x_size), np.sum(below < w, axis=1)]
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


def _highs(core, cost, start, index, coef, lower, upper):
    """min cost . x over x >= 0 subject to lower <= A x <= upper, A given
    column-wise by (start, index, coef), on a fresh Highs of scipy's binding
    core. Returns HiGHS's model status, and x and the row duals if optimal."""
    lp, n = core.HighsLp(), cost.size
    # the binding takes col_cost_ fastest as an array, every other field as a list
    lp.num_col_, lp.num_row_ = n, upper.size
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, [0.0] * n, [np.inf] * n
    lp.row_lower_, lp.row_upper_ = lower.tolist(), upper.tolist()
    matrix = lp.a_matrix_
    matrix.start_, matrix.index_, matrix.value_ = start.tolist(), index.tolist(), coef.tolist()
    highs = core._Highs()
    # linprog(method="highs")'s options, with both feasibility tolerances at 1e-10:
    # HiGHS's default 1e-7 would let costs below 1e-7 of the largest go unoptimized
    for option in (("presolve", "on"), ("highs_debug_level", 0), ("log_to_console", False),
                   ("output_flag", False), ("simplex_strategy", 1),
                   ("primal_feasibility_tolerance", 1e-10), ("dual_feasibility_tolerance", 1e-10)):
        highs.setOptionValue(*option)
    highs.passModel(lp)
    highs.run()
    if (status := highs.getModelStatus()) != core.HighsModelStatus.kOptimal:
        return highs.modelStatusToString(status), None, None
    solution = highs.getSolution()
    return "Optimal", np.array(solution.col_value), np.array(solution.row_dual)


def optimize_prior(problem: Problem, rate: float) -> PriorOptResult:
    """Minimize prior -> dtilde(exp(-rate), prior) over the simplex.

    The minimum is the k-median LP relaxation at t = e^rate (repeated
    centres allowed): min sum p_x d_xy z_xy subject to sum_y z_xy = 1,
    sum_y r_y = t and z_xy <= r_y; q_star = r / t. HiGHS solves it, through
    scipy's bundled binding with the options linprog would set (_highs),
    over the distinct levels of each row of d instead of its letters: one
    z_xk <= sum_{y at level k} r_y per (x, level). The two LPs have the
    same optimum, since the letters of a level share the cost p_x d_xk,
    so z_xk is the sum of their z_xy, and any z_xk splits back as
    z_xy = z_xk r_y / sum_{y at level k} r_y. Each level is numbered by
    its smallest row-major (x, y), so a d without ties gives the per-letter
    LP column for column. For t >= y_size the minimum is the floor
    sum_x p_x min_y d_xy, so t is clamped there. The dual bound is
    recomputed in numpy from the equality duals alpha against the full
    p_x d matrix, without trusting the solver's objective. HiGHS gets the
    costs divided by the power of two at their top, exactly (alpha is
    multiplied back), so its fixed 1e-10 tolerances act in the scale of the
    costs: where costs differ by about 1e-10 of the largest, value can sit
    up to about 5e-10 of the largest above the minimum; certificate_gap
    reports that distance, and dual_bound stays valid.
    Where HiGHS ends without an optimum, a ValueError names the largest
    cost and HiGHS's model status.
    """
    if not rate >= 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    t = _lp_size(problem, rate)
    nx, ny = problem.x_size, problem.y_size
    # (x, y) in each row's ascending order, and where each level starts
    ranked = (np.arange(nx)[:, None] * ny + problem.row_order).ravel()
    head = problem.levels.head.ravel()
    # the stable row order lists a level's letters by y, so its first entry
    # is its smallest (x, y); levels are numbered in that order
    heads = ranked[head]
    by_head = np.argsort(heads)
    level = np.empty(nx * ny, dtype=np.intp)
    level[ranked] = np.argsort(by_head)[np.cumsum(head) - 1]
    heads = heads[by_head]
    g = heads.size
    cost = np.concatenate([(problem.p_x[:, None] * problem.d).ravel()[heads],
                           np.zeros(ny)])
    # rows k: z_xk - sum_{y at level k} r_y <= 0, g + x: sum_k z_xk = 1 and
    # g + nx: sum_y r_y = t, read column by column with rows ascending: z_xk's
    # are k and g + x, and r_y's its level in each x (in order), then g + nx
    index = np.concatenate([np.column_stack([np.arange(g), g + heads // ny]).ravel(),
                            np.vstack([level.reshape(nx, ny), np.full(ny, g + nx)]).T.ravel()])
    start = np.concatenate([np.arange(0, 2 * g, 2), np.arange(2 * g, index.size + 1, nx + 1)])
    coef = np.concatenate([np.ones(2 * g), np.tile(np.append(-np.ones(nx), 1.0), ny)])
    upper = np.concatenate([np.zeros(g), np.ones(nx), [t]])
    lower = np.concatenate([np.full(g, -np.inf), upper[g:]])
    top = np.frexp(cost.max())[1]
    status, x, duals = __getattr__("linprog")(np.ldexp(cost, -top), start, index, coef,
                                              lower, upper)
    if x is None:
        raise ValueError(f"k-median LP failed (largest cost p_x d_xy = "
                         f"{cost.max():.3g}): HiGHS model status {status}")
    q = np.clip(x[g:], 0.0, None)
    q = q / q.sum()
    value = dtilde_for_prior(problem, 1.0 / t, q)
    alpha = np.ldexp(duals[g:g + nx], top)
    bound = _dual_bound(problem, t, alpha)
    return PriorOptResult(_readonly(q), value, bound, value - bound, _readonly(alpha))


def dhat_sandwich(problem: Problem, rate: float) -> SandwichBounds:
    """Certified lower and achievable upper bounds on D*(M), M = floor(e^rate).

    D*(M) is the least average distortion of a code of at most M words.
    lower = optimize_prior(rate).dual_bound, with q_star its prior: it
    bounds the LP minimum V(e^rate), which is at most V(M) and so at most
    D*(M). upper is the exact average distortion of M codewords drawn
    i.i.d. from a prior, which some code of M words attains or beats: the
    smaller of the averages under q_star, its masses below the smallest
    normal double set to 0, and under q_y. prior is the one that gives it.
    M = 1 gives the plain average sum p q d. Where e^rate overflows, M is
    None and upper is the average's limit, the floor over the prior's
    support, dtilde_for_prior(problem, 0, prior). Only the LP at the rate
    is solved.
    """
    res = optimize_prior(problem, rate)
    q = np.where(res.q_star < np.finfo(float).tiny, 0.0, res.q_star)
    lp_prior = Problem(problem.p_x, q, problem.d)
    try:
        m = math.floor(math.exp(rate))
    except OverflowError:  # e^rate is past the largest double, or inf
        m = None

    def average(on: Problem) -> float:
        if m is None:
            return dtilde_for_prior(on, 0.0, on.q_y)
        return exact_expected_distortion(on, m)

    upper, prior = average(lp_prior), lp_prior.q_y
    if (at_q_y := average(problem)) < upper:
        upper, prior = at_q_y, problem.q_y
    if res.dual_bound > upper + scaled_tol(problem, SANDWICH_TOL):
        raise EqualityCheckError(
            f"sandwich violated: lower={res.dual_bound!r} > upper={upper!r}"
        )
    return SandwichBounds(res.dual_bound, upper, res.q_star, m, prior)


# product_prior_experiment: random starts besides the uniform one, and the
# most channel entries x_size**n * y_size**n; at that size a call took 1-4 s
# for a 4x4 base at n = 4 and 9-16 s for a 16x16 base at n = 2 (three
# random bases each, on one core of a 2-CPU Xeon), up to 8.5 s of it in the LP
PRODUCT_RANDOM_STARTS = 4
PRODUCT_MAX_ENTRIES = 1 << 16


def _product_power(vec: np.ndarray, n: int) -> np.ndarray:
    return reduce(np.kron, [vec] * n)


def _nelder_mead(objective, q0: np.ndarray, free: np.ndarray):
    """Nelder-Mead from q0 over softmax weights of the letters in free, every
    other letter held at exactly 0; returns (value, prior)."""
    def prior(theta: np.ndarray) -> np.ndarray:
        q = np.zeros(q0.size)
        e = np.exp(theta - theta.max())
        q[free] = e / e.sum()
        return q

    nm = __getattr__("minimize")(lambda theta: objective(prior(theta)),
                                 np.log(np.clip(q0[free], 1e-12, None)), method="Nelder-Mead",
                                 options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-13})
    return nm.fun, prior(nm.x)


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

    Searches the single-letter prior q, through q -> q^{(x)n}, by softmax
    Nelder-Mead from the uniform prior and PRODUCT_RANDOM_STARTS Dirichlet
    draws. The optimum often lies on a face of the simplex, which softmax
    only approaches, so the search then sweeps the incumbent's support once:
    for each letter in turn it restarts from the incumbent on the face that
    drops that letter (held at exactly 0) and keeps the result if it
    improves. That is at most y_size + PRODUCT_RANDOM_STARTS + 1
    Nelder-Mead runs. The full-simplex LP is solved exactly, so full_value
    <= product_value holds up to scaled_tol(base, 1e-9). Exploratory: the sign
    and size of the remaining gap are reported, not asserted.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not rate >= 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
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

    def objective(q: np.ndarray) -> float:
        return dtilde_for_prior(prod, w, _product_power(q, n))

    rng = np.random.default_rng(seed)
    starts = [np.full(ny, 1.0 / ny)]
    starts += [rng.dirichlet(np.ones(ny)) for _ in range(PRODUCT_RANDOM_STARTS)]
    best_val, best_q = min((_nelder_mead(objective, q0, np.arange(ny))
                            for q0 in starts), key=lambda r: r[0])
    for y in np.flatnonzero(best_q > 0):
        rest = np.flatnonzero((best_q > 0) & (np.arange(ny) != y))
        if rest.size:
            val, q = _nelder_mead(objective, best_q, rest)
            if val < best_val:
                best_val, best_q = val, q

    full = optimize_prior(prod, total_rate)
    gap = full.value - best_val
    if gap > scaled_tol(base, 1e-9):
        raise EqualityCheckError(
            "full-simplex optimum exceeded the product-prior value"
        )
    return ProductPriorReport(n, rate, float(best_val), best_q, full.value, float(gap))
