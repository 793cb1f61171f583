"""Hypothesis-testing and channel-minimization forms of the quantile functional.

Two independent routes to the same quantity:

* a Neyman-Pearson problem between a product distribution and the
  distortion-weighted measure p_x(x) q_y(y) d(x, y), whose optimal power at
  level w equals dtilde1(w) for an explicitly constructed worst-case source
  distribution, and

* a greedy channel filling capacity exp(R) * q_y(y) cheapest-first, which
  realizes the minimum of E[d] over channels within max-divergence R of the
  prior and equals dtilde(exp(-R)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dtilde import dtilde, dtilde1, dtilde_for_prior, test_channel
from .model import EqualityCheckError, Problem, _readonly, scaled_tol

VARIATIONAL_TOL = 1e-9  # variational_check: largest gap, scaled for the forms, not the channels


@dataclass(eq=False)
class NPTest:
    """Randomized acceptance test with a single shared threshold fraction."""

    accept: np.ndarray
    threshold: float
    achieved_alpha: float


class InfFormResult(NamedTuple):
    value: float
    channel: np.ndarray  # W(y|x), read-only


class VariationalCheck(NamedTuple):
    dtilde1: float
    sup_form: float
    dtilde: float
    inf_form: float
    channel_gap: float


class InfoSpectrumCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def distortion_measure(problem: Problem) -> np.ndarray:
    """The measure p_x(x) * q_y(y) * d(x, y) used throughout this module."""
    return _readonly(problem.p_x[:, None] * problem.q_y[None, :] * problem.d)


def np_beta(alpha: float, p: np.ndarray, mu: np.ndarray) -> tuple[float, NPTest]:
    """Minimal mu-measure of a randomized test with p-measure at least alpha.

    mu is an unnormalized measure of p's shape. Entries are accepted in
    increasing order of the ratio mu/p, randomizing uniformly over the
    threshold group. Entries with p = 0 have ratio inf: they rank last and
    are never accepted, unless some mu/p with p > 0 overflows to inf and
    ties with them.
    """
    p = np.asarray(p, dtype=float)
    mw = np.asarray(mu, dtype=float)
    if p.shape != mw.shape:
        raise ValueError("shape mismatch between p and the measure")
    if np.any(mw < 0) or not np.all(np.isfinite(mw)):
        raise ValueError("measure weights must be finite and nonnegative")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("p must be finite and nonnegative")
    if not -1e-12 <= alpha <= 1.0 + 1e-12:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    alpha = min(max(alpha, 0.0), 1.0)
    total_p = float(np.sum(p))
    if alpha > total_p + 1e-9:
        raise ValueError(f"alpha={alpha} exceeds the total p mass {total_p}")

    accept = np.zeros_like(p)
    if alpha == 0.0:
        return 0.0, NPTest(_readonly(accept), -math.inf, 0.0)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(p > 0, mw / p, math.inf)
    order = np.argsort(ratio, axis=None, kind="stable")
    cum = np.cumsum(p.ravel()[order])
    k = int(np.searchsorted(cum, min(alpha, cum[-1]), side="left"))
    threshold = float(ratio.ravel()[order[k]])

    below = ratio < threshold
    tied = ratio == threshold
    p_below = float(np.sum(p[below]))
    p_tied = float(np.sum(p[tied]))
    tau = min(max((alpha - p_below) / p_tied, 0.0), 1.0) if p_tied > 0 else 0.0

    accept[below] = 1.0
    accept[tied] = tau
    with np.errstate(over="ignore"):
        tied_mu = np.sum(mw[tied])
    # where the group's own sum overflows, tau scales each entry before it
    tied_beta = tau * tied_mu if np.isfinite(tied_mu) else np.sum(tau * mw[tied])
    beta = float(np.sum(mw[below]) + tied_beta)
    achieved = float(np.sum(p * accept))
    return beta, NPTest(_readonly(accept), threshold, achieved)


def witness_qx(problem: Problem, w: float) -> tuple[np.ndarray | None, float]:
    """Worst-case source distribution attaining the supremum form at level w.

    Returns (q_x, lam) with q_x(x) proportional to p_x(x) times the
    distortion of x's level-w reproduction. When that weight is identically
    zero, dtilde1(w) = 0 and no witness is needed: returns (None, 0.0).
    """
    if not np.finfo(float).tiny <= w <= 1.0:
        raise ValueError(f"w must be a normal double in (0, 1], got {w}")
    # row x's level-w entry is its last of positive mass with below < w
    table = problem.levels
    hit = (table.mass > 0) & (table.below < w)
    level_d = table.ds[np.arange(problem.x_size), -1 - np.argmax(hit[:, ::-1], axis=1)]
    lam = float(np.sum(problem.p_x * level_d))
    if lam == 0.0:
        return None, 0.0
    return _readonly(problem.p_x * level_d / lam), lam


def sup_form_value(problem: Problem, w: float) -> float:
    """Supremum over source distributions of the level-w testing power.

    Equals dtilde1(w) = w * dtilde(w); divide by w for the normalized form.
    """
    q_x, lam = witness_qx(problem, w)
    if q_x is None:
        return 0.0
    p = q_x[:, None] * problem.q_y[None, :]
    beta, _ = np_beta(w, p, distortion_measure(problem))
    return beta


def d_inf(numerator, denominator) -> float:
    """Max-divergence: log of the largest pointwise ratio, +inf off support."""
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if num.shape != den.shape:
        raise ValueError("shape mismatch")
    if np.any((num > 0) & (den == 0)):
        return math.inf
    mask = den > 0
    if not mask.any():
        return -math.inf
    top = float(np.max(num[mask] / den[mask]))
    if top == 0.0:
        return -math.inf
    return math.log(top)


def inf_form_value(problem: Problem, rate: float) -> InfFormResult:
    """Cheapest-first channel under the capacity cap exp(rate) * q_y.

    Fills each row with the lowest-distortion letters until it carries unit
    mass, splitting partially filled levels proportionally to the prior:
    a level takes min(1 - e^rate * below, e^rate * mass), clipped at 0.
    The resulting average distortion equals dtilde(exp(-rate)).
    """
    if not 0.0 <= rate <= math.log(np.finfo(float).max):
        raise ValueError(f"rate must be in [0, log of the largest double], got {rate}")
    scale = math.exp(rate)
    table = problem.levels
    take = np.clip(1.0 - scale * table.below, 0.0, scale * table.mass)
    sorted_rows = np.divide(take * problem.q_y[problem.row_order], table.mass,
                            out=np.zeros(take.shape), where=table.mass > 0)
    rows = np.empty(take.shape)
    np.put_along_axis(rows, problem.row_order, sorted_rows, axis=1)
    value = float(np.sum(problem.p_x[:, None] * rows * problem.d))
    return InfFormResult(value, _readonly(rows))


def variational_check(problem: Problem, w: float) -> VariationalCheck:
    """Verify sup form == dtilde1(w), inf form == dtilde(w) and greedy channel
    == packing channel at w; raise beyond VARIATIONAL_TOL (scaled_tol for the forms)."""
    direct1, direct = dtilde1(problem, w), dtilde(problem, w)
    sup_val = sup_form_value(problem, w)
    inf_res = inf_form_value(problem, -math.log(w))
    chan_gap = float(np.max(np.abs(inf_res.channel - test_channel(problem, w))))
    tol = scaled_tol(problem, VARIATIONAL_TOL)
    if abs(sup_val - direct1) > tol or abs(inf_res.value - direct) > tol:
        raise EqualityCheckError(
            f"variational forms disagree: sup_form={sup_val!r} dtilde1={direct1!r} "
            f"inf_form={inf_res.value!r} dtilde={direct!r}")
    if chan_gap > VARIATIONAL_TOL:
        raise EqualityCheckError(
            f"greedy channel disagrees with the packing channel: channel_gap={chan_gap!r}")
    return VariationalCheck(direct1, sup_val, direct, inf_res.value, chan_gap)


def info_spectrum_check(
    problem: Problem, channel, rate: float, delta: float
) -> InfoSpectrumCheck:
    """Relate the quantile functional to an information-density tail event.

    channel is the matrix W(y|x), q its output marginal and rho = rate - delta.
    A = {0 < W <= e^rho q} is the event i <= rho of the information density
    i = log(W / q), read without logs. With m the least P(A | x) over the x with
    p_x > 0, checks

        dtilde(e^-rho m, q) <= E[d] / m,

    up to scaled_tol(problem, 1e-10); at m = 0 the right side is inf (vacuous).
    Proof: V = W 1_A / P(A | x), on the rows with p_x > 0, sums to 1 by row. On A,
    V <= e^rho q / m = q / w at w = e^-rho m, so V is under the cap q / w of
    the inf form, whose least E[d] over such channels is dtilde(w, q); and
    E_V[d] <= E[d] / m, as d >= 0 and P(A | x) >= m. A row of V sums to 1 under
    a cap that sums to 1 / w, so w <= 1 up to rounding.
    """
    w_mat = np.asarray(channel, dtype=float)
    joint = problem.p_x[:, None] * w_mat
    q_y, shrink = joint.sum(axis=0), math.exp(delta - rate)  # shrink = e^-rho
    in_a = (w_mat > 0) & (w_mat * shrink <= q_y)
    m = float(np.min(np.where(in_a, w_mat, 0.0).sum(axis=1)[problem.p_x > 0]))
    lhs = dtilde_for_prior(problem, min(shrink * m, 1.0), q_y)
    rhs = float(np.sum(joint * problem.d)) / m if m > 0.0 else math.inf
    return InfoSpectrumCheck(lhs, rhs, lhs <= rhs + scaled_tol(problem, 1e-10))
