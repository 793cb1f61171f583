import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from scipy.optimize import linprog

from oneshotrd import Problem, d_inf


def make_random_problem(rng, nx=None, ny=None, tie_prob=0.5, zero_mass_prob=0.3,
                        scale_d=True):
    """Random instance generator shared by the module and acceptance tests.

    Mixes continuous and quantized distortion matrices (ties exercise the
    level/randomization logic) and occasionally zeroes out a prior or source
    mass to cover the support-handling paths.
    """
    nx = int(nx if nx is not None else rng.integers(2, 7))
    ny = int(ny if ny is not None else rng.integers(2, 7))
    p_x = rng.dirichlet(np.ones(nx))
    q_y = rng.dirichlet(np.ones(ny))
    if ny >= 3 and rng.random() < zero_mass_prob:
        q_y[rng.integers(ny)] = 0.0
        q_y = q_y / q_y.sum()
    if nx >= 3 and rng.random() < zero_mass_prob / 2:
        p_x[rng.integers(nx)] = 0.0
        p_x = p_x / p_x.sum()
    d = rng.uniform(0.0, 1.0, (nx, ny))
    if rng.random() < tie_prob:
        d = np.round(d * 4.0) / 4.0
    if scale_d:
        d = d * rng.uniform(0.5, 3.0)
    return Problem(p_x, q_y, d)


def _draw_simplex(draw, n):
    """A probability vector of n entries, zero entries included."""
    v = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0),
                               min_size=n, max_size=n)))
    assume(v.sum() > 1e-3)
    return v / v.sum()


@st.composite
def problems(draw):
    """1x1 to 5x5 instances, 1xn and nx1 included, with zero masses and
    distortions on a coarse grid half the time, so levels tie."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    p, q = _draw_simplex(draw, nx), _draw_simplex(draw, ny)
    entry = (st.sampled_from([0.0, 0.5, 1.0, 2.0]) if draw(st.booleans())
             else st.floats(0.0, 4.0))
    d = draw(st.lists(entry, min_size=nx * ny, max_size=nx * ny))
    return Problem(p, q, np.reshape(d, (nx, ny)))


@st.composite
def quarter_problems(draw):
    """1x1 to 8x8 instances with d on the quarters 0..2, so most rows tie."""
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    p, q = _draw_simplex(draw, nx), _draw_simplex(draw, ny)
    d = draw(st.lists(st.integers(0, 8), min_size=nx * ny, max_size=nx * ny))
    return Problem(p, q, np.reshape(d, (nx, ny)) / 4.0)


# named instances for the level table, as (p_x, q_y, d): one letter on each
# side; a row at a single level; a zero-mass letter that ties a support
# letter on the lowest level of each row and comes first in its order, so
# that level's head entry has q_y = 0; and a prior that sums to 1 - 1e-13,
# within validate()'s tolerance, so the top level ends at a breakpoint of
# its own
LEVEL_CASES = {
    "1x1": ([1.0], [1.0], [[0.5]]),
    "constant_row": ([0.3, 0.7], [0.25, 0.75], [[0.7, 0.7], [0.2, 0.9]]),
    "zero_mass_head": ([0.4, 0.6], [0.0, 0.5, 0.5], [[0.1, 0.1, 0.8], [0.3, 0.5, 0.3]]),
    "short_prior": ([1.0], [0.5, 0.5 - 1e-13], [[0.0, 1.0]]),
}


def nonbreakpoint_w(problem, rng, lo=0.02, hi=0.999, margin=1e-6):
    """A quantile bounded away from every profile breakpoint of the instance."""
    from oneshotrd import build_dtilde1

    bps = build_dtilde1(problem).breakpoints
    for _ in range(1000):
        w = float(rng.uniform(lo, hi))
        if np.min(np.abs(bps - w)) > margin:
            return w
    raise RuntimeError("could not find a non-breakpoint quantile")


def dense_prior_lp(problem, w):
    """Oracle: min over priors of dtilde(w, .) as a dense joint channel/prior LP.

    Variables W (nx*ny channel entries) and q (ny prior masses):
    min sum p_x d_xy W_xy  s.t.  sum_y W_xy = 1, sum_y q_y = 1,
    W_xy <= q_y / w. Returns the LP minimum.
    """
    nx, ny = problem.x_size, problem.y_size
    nw = nx * ny
    cost = np.concatenate([(problem.p_x[:, None] * problem.d).ravel(),
                           np.zeros(ny)])
    a_eq = np.zeros((nx + 1, nw + ny))
    for x in range(nx):
        a_eq[x, x * ny:(x + 1) * ny] = 1.0
    a_eq[nx, nw:] = 1.0
    a_ub = np.hstack([np.eye(nw), np.tile(-np.eye(ny) / w, (nx, 1))])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(nw), A_eq=a_eq,
                  b_eq=np.ones(nx + 1), method="highs-ds")
    assert res.success, res.message
    return float(res.fun)


def simplex_grid(ny, step):
    """Oracle for ny <= 3: every prior on the simplex grid of the given step."""
    n = round(1.0 / step)
    if ny == 1:
        yield np.ones(1)
        return
    if ny == 2:
        for i in range(n + 1):
            yield np.array([i, n - i]) / n
        return
    for i in range(n + 1):
        for j in range(n + 1 - i):
            yield np.array([i, j, n - i - j]) / n


def priors_beating_log_m(joint, log_m, seed):
    """Oracle for the minimal-divergence identity: how many of 20 Dirichlet
    priors q bring the product p_x q closer than log M to the joint."""
    j = np.asarray(joint, dtype=float)
    p_x = j.sum(axis=1)
    rng = np.random.default_rng(seed)
    priors = [rng.dirichlet(np.ones(j.shape[1])) for _ in range(20)]
    return sum(d_inf(j, p_x[:, None] * q[None, :]) < log_m - 1e-12 for q in priors)


@pytest.fixture
def binary_hamming():
    return Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
