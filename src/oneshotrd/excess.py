"""Excess-distortion specialization and comparisons against reference bounds.

Thresholding the distortion matrix at d_th turns the quantile functional
into an excess probability, so every exact tool in the package applies to
the excess-distortion problem by composition with the indicator matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dtilde import dtilde, dtilde1, rtilde
from .model import EqualityCheck, EqualityCheckError, Problem, _like
from .random_coding import g_of
from .variational import d_inf

LEMMA4_TOL = 1e-10  # lemma4_check: largest |lhs - rhs| accepted


class GapComparison(NamedTuple):
    ours: float
    theirs: float
    diff: float


def excess_problem(problem: Problem, d_th: float) -> Problem:
    """Same instance with distortion replaced by the indicator of d > d_th."""
    if not d_th >= 0:
        raise ValueError(f"d_th must be nonnegative, got {d_th}")
    return Problem(
        problem.p_x,
        problem.q_y,
        (problem.d > d_th).astype(float),
        problem.x_labels,
        problem.y_labels,
    )


def excess_dtilde(problem: Problem, rate: float, d_th: float) -> float:
    """Excess mass at quantile exp(-rate): dtilde1 of the thresholded instance."""
    if not rate >= 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    return dtilde1(excess_problem(problem, d_th), math.exp(-rate))


def excess_rate(problem: Problem, delta: float, d_th: float) -> float:
    """Rate needed to keep the excess-distortion probability at delta.

    Returns +inf when delta is below the smallest excess probability any
    prior-supported channel can achieve (the feasible set is empty).
    """
    ep = excess_problem(problem, d_th)
    ceil = dtilde(ep, 1.0)
    if not 0 <= delta <= ceil:
        raise ValueError(
            f"delta must be in [0, {ceil:.12g}], got {delta}"
        )
    return rtilde(ep, delta)


def _column_maxima(joint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked joint, its marginal p_x and each output's largest
    conditional probability on the support of the joint."""
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2 or np.any(j < 0) or not np.all(np.isfinite(j)):
        raise ValueError("joint must be a nonnegative finite matrix")
    total = float(np.sum(j))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint sums to {total:.12g}, expected 1")
    p_x = j.sum(axis=1)
    live = p_x > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(live[:, None], j / np.where(live, p_x, 1.0)[:, None], 0.0)
    return j, p_x, np.where(j > 0, cond, 0.0).max(axis=0)


def m_functional(joint) -> float:
    """Sum over outputs of the largest conditional probability on their support."""
    return float(np.sum(_column_maxima(joint)[2]))


def lemma4_check(joint) -> EqualityCheck:
    """Verify that the minimal max-divergence to a product measure is log M.

    Evaluates the explicit minimizer q*(y) = column-max / M and raises
    beyond LEMMA4_TOL.
    """
    j, p_x, colmax = _column_maxima(joint)
    m = float(np.sum(colmax))
    rhs = math.log(m)
    q_star = colmax / m
    lhs = d_inf(j, p_x[:, None] * q_star[None, :])
    gap = abs(lhs - rhs)
    if gap > LEMMA4_TOL:
        raise EqualityCheckError(
            f"minimal-divergence identity violated: lhs={lhs!r} rhs={rhs!r}"
        )
    return EqualityCheck(lhs, rhs, gap)


def bound_gap_comparison(x) -> GapComparison:
    """Our closed-form rate penalty g(x) against the reference log log x, for
    x > 1: a scalar (each field a float) or an array."""
    ours = g_of(x)
    theirs = _like(np.log(np.log(np.array(x, dtype=float, ndmin=1))), x)
    return GapComparison(ours, theirs, ours - theirs)
