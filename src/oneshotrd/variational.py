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

from .dtilde import dtilde
from .model import Channel, Problem, _readonly


@dataclass(eq=False)
class WeightedMeasure:
    """Nonnegative weights over source/reproduction pairs; not normalized."""

    weights: np.ndarray
    total_mass: float

    @classmethod
    def from_weights(cls, weights) -> "WeightedMeasure":
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("measure weights must be finite and nonnegative")
        return cls(_readonly(weights), float(np.sum(weights)))


@dataclass(eq=False)
class NPTest:
    """Randomized acceptance test with a single shared threshold fraction."""

    accept: np.ndarray
    threshold: float
    achieved_alpha: float


class InfFormResult(NamedTuple):
    value: float
    channel: Channel


class InfoSpectrumCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def distortion_measure(problem: Problem) -> WeightedMeasure:
    """The measure p_x(x) * q_y(y) * d(x, y) used throughout this module."""
    return WeightedMeasure.from_weights(
        problem.p_x[:, None] * problem.q_y[None, :] * problem.d
    )


def np_beta(alpha: float, p: np.ndarray, mu: WeightedMeasure) -> tuple[float, NPTest]:
    """Minimal mu-measure of a randomized test with p-measure at least alpha.

    Entries are accepted in increasing order of the ratio mu/p, randomizing
    uniformly over the threshold group. Entries with p = 0 but mu > 0 rank
    last; entries with p = mu = 0 are excluded.
    """
    p = np.asarray(p, dtype=float)
    mw = mu.weights
    if p.shape != mw.shape:
        raise ValueError("shape mismatch between p and the measure")
    if not -1e-12 <= alpha <= 1.0 + 1e-12:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    alpha = min(max(alpha, 0.0), 1.0)
    total_p = float(np.sum(p))
    if alpha > total_p + 1e-9:
        raise ValueError(f"alpha={alpha} exceeds the total p mass {total_p}")

    accept = np.zeros_like(p)
    if alpha == 0.0:
        return 0.0, NPTest(_readonly(accept), -math.inf, 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, mw / p, math.inf)
    ratio = np.where((p == 0) & (mw == 0), np.nan, ratio)  # excluded entries

    flat_r = ratio.ravel()
    flat_p = p.ravel()
    flat_m = mw.ravel()
    live = ~np.isnan(flat_r)
    order = np.argsort(flat_r[live], kind="stable")
    idx = np.flatnonzero(live)[order]
    cum = np.cumsum(flat_p[idx])
    k = int(np.searchsorted(cum, min(alpha, cum[-1]), side="left"))
    threshold = float(flat_r[idx[k]])

    below = live.reshape(p.shape) & (ratio < threshold)
    tied = live.reshape(p.shape) & (ratio == threshold)
    p_below = float(np.sum(p[below]))
    p_tied = float(np.sum(p[tied]))
    tau = min(max((alpha - p_below) / p_tied, 0.0), 1.0) if p_tied > 0 else 0.0

    accept[below] = 1.0
    accept[tied] = tau
    beta = float(np.sum(mw[below]) + tau * np.sum(mw[tied]))
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
    return InfFormResult(value, Channel(rows))


def info_spectrum_check(
    problem: Problem, channel: Channel, rate: float, delta: float
) -> InfoSpectrumCheck:
    """Relate the quantile functional to an information-density tail event.

    With q the output marginal of the channel, i = log(W/q), and
    lam = -log P[i <= rate - delta], checks

        dtilde(exp(-(rate - delta) - lam), q) <= E[d] * exp(lam).

    A probability-zero event makes the right side infinite (vacuously true).
    """
    w_mat = channel.w
    joint = problem.p_x[:, None] * w_mat
    q_y = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where((w_mat > 0) & (q_y[None, :] > 0),
                        np.log(np.where(w_mat > 0, w_mat, 1.0))
                        - np.log(np.where(q_y > 0, q_y, 1.0))[None, :],
                        -math.inf)
    pr = float(np.sum(joint[dens <= rate - delta]))
    marg_problem = Problem(problem.p_x, q_y, problem.d)
    expected = float(np.sum(joint * problem.d))
    if pr <= 0.0:
        lhs = dtilde(marg_problem, 0.0)
        return InfoSpectrumCheck(lhs, math.inf, True)
    lam = -math.log(pr)
    w_arg = min(math.exp(-(rate - delta) - lam), 1.0)
    lhs = dtilde(marg_problem, w_arg)
    rhs = expected * math.exp(lam)
    return InfoSpectrumCheck(lhs, rhs, lhs <= rhs + 1e-10)
