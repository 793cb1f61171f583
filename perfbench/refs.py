"""Independent references for the quantities the CLI reports.

Nothing here imports oneshotrd: each quantity is recomputed from the raw
arrays (p_x, q_y, d) by a different route than the package takes, so a
benchmark run checks the program against arithmetic it does not share.

(a) random_code_average   exact random-code average by order statistics
(b) prior_lp              k-median LP relaxation at t = e^R (sparse, HiGHS)
(c) dtilde1 / dtilde      greedy fill over each sorted row
(d) best_code             exhaustive best code of M codewords
(e) excess_rates          bisection inverse of dtilde on the indicator matrix
    packing_channel_m     column-max sum of the packing channel
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def random_code_average(p, q, d, M) -> float:
    """(a) E[min over M i.i.d. prior draws of d(x, Y)], averaged over x.

    With the distinct levels l_1 < ... < l_k of row x on supp(q),
    E[min] = l_1 + sum_k (l_k - l_{k-1}) * Q{d(x, Y) >= l_k}^M.
    """
    sup = q > 0
    qs = q[sup]
    total = 0.0
    for x in np.flatnonzero(p > 0):
        row = d[x, sup]
        levels = np.unique(row)
        tails = np.array([qs[row >= lev].sum() for lev in levels[1:]])
        total += p[x] * (levels[0] + float(np.sum(np.diff(levels) * tails ** float(M))))
    return float(total)


def dtilde1(p, q, d, w):
    """(c) Mass-w greedy fill of each row's cheapest letters, averaged over x.

    Accepts a scalar or an array of w; ties fill in any order since the
    filled distortion does not depend on it.
    """
    ws = np.atleast_1d(np.asarray(w, dtype=float))
    out = np.zeros(ws.shape)
    for x in np.flatnonzero(p > 0):
        order = np.argsort(d[x], kind="stable")
        ds, qs = d[x, order], q[order]
        start = np.cumsum(qs) - qs
        fill = np.clip(ws[:, None] - start[None, :], 0.0, qs[None, :])
        out += p[x] * (fill @ ds)
    return out if np.ndim(w) else float(out[0])


def dtilde(p, q, d, w):
    """(c) dtilde1(w) / w; at w = 0 the limit, the mean least supported distortion."""
    ws = np.atleast_1d(np.asarray(w, dtype=float))
    floor = float(np.sum(p * np.where(q[None, :] > 0, d, np.inf).min(axis=1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ws > 0, dtilde1(p, q, d, ws) / ws, floor)
    return out if np.ndim(w) else float(out[0])


def prior_lp(p, d, rate) -> tuple[float, np.ndarray]:
    """(b) min over priors of dtilde(e^-R, prior) as the k-median LP, t = e^R.

    Variables z (nx*ny assignments) and r (ny openings, repeats allowed):
    min sum p_x d_xy z_xy  s.t.  sum_y z_xy = 1, sum_y r_y = t, z_xy <= r_y.
    Returns the LP value and the prior r / t.
    """
    t = math.exp(rate)
    nx, ny = d.shape
    nz = nx * ny
    cost = np.concatenate([(p[:, None] * d).ravel(), np.zeros(ny)])
    k = np.arange(nz)
    a_eq = sparse.csr_matrix(
        (np.ones(nz + ny),
         (np.concatenate([k // ny, np.full(ny, nx)]),
          np.concatenate([k, nz + np.arange(ny)]))),
        shape=(nx + 1, nz + ny))
    a_ub = sparse.csr_matrix(
        (np.concatenate([np.ones(nz), -np.ones(nz)]),
         (np.concatenate([k, k]), np.concatenate([k, nz + k % ny]))),
        shape=(nz, nz + ny))
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(nz), A_eq=a_eq,
                  b_eq=np.concatenate([np.ones(nx), [t]]), bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    r = np.clip(res.x[nz:], 0.0, None)
    return float(res.fun), r / r.sum()


def best_code(p, d, M, limit=20000) -> float | None:
    """(d) Least distortion of any code of M codewords (repeats allowed).

    Returns None when there are more than `limit` multisets to try.
    """
    ny = d.shape[1]
    if math.comb(ny + M - 1, M) > limit:
        return None
    codes = np.array(list(combinations_with_replacement(range(ny), M)))
    return float(np.min(p @ d[:, codes].min(axis=2)))


def excess_rates(p, q, d, d_th, deltas) -> np.ndarray:
    """(e) -log of the least w with dtilde(w) >= delta on the indicator d > d_th.

    On a 0/1 row the greedy fill of mass w costs max(0, w - Q0_x), where
    Q0_x is the prior mass at zero cost, so dtilde(w) is known in closed
    form and is inverted by bisection on w, for all deltas at once. The
    rate is +inf when delta does not exceed the floor dtilde(0+), and 0
    when even w = 1 falls short.
    """
    q0 = np.where(d <= d_th, q[None, :], 0.0).sum(axis=1)
    live = p > 0
    floor = float(np.sum(p[live & (q0 <= 0.0)]))

    def dt(w):
        return np.sum(p[live, None] * np.maximum(0.0, w[None, :] - q0[live, None]),
                      axis=0) / w

    deltas = np.asarray(deltas, dtype=float)
    lo, hi = np.zeros(deltas.shape), np.ones(deltas.shape)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        up = dt(np.maximum(mid, 1e-300)) >= deltas
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    rates = np.maximum(0.0, -np.log(hi))
    rates[dt(np.ones(deltas.shape)) < deltas] = 0.0
    rates[deltas <= floor] = np.inf
    return rates


def packing_channel_m(p, q, d, rate) -> float:
    """Column-max sum of the packing channel at w = e^-R.

    Row x puts mass w on its cheapest levels; a level only partly filled
    shares its fill in proportion to q. The channel is that fill over w.
    """
    w = math.exp(-rate)
    nx, ny = d.shape
    chan = np.zeros((nx, ny))
    sup = q > 0
    for x in range(nx):
        levels = np.unique(d[x, sup])
        below = 0.0
        for lev in levels:
            members = sup & (d[x] == lev)
            mass = q[members].sum()
            take = min(max(w - below, 0.0), mass)
            chan[x, members] = take * q[members] / mass / w
            below += mass
    live = (p[:, None] > 0) & (chan > 0)
    return float(np.sum(np.where(live, chan, 0.0).max(axis=0)))
