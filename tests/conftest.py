import numpy as np
import pytest
from scipy.optimize import linprog

from oneshotrd import Problem


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


@pytest.fixture
def binary_hamming():
    return Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
