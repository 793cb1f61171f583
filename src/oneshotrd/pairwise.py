"""Pairwise-correct probabilities and per-letter distortion profiles.

For a source letter x and a candidate reproduction y, the pairwise-correct
probability is the chance that a fresh draw from the prior strictly beats y,
plus a randomized share u of the tie mass:

    p_c(x, y, u) = Q{d(x, Y) < d(x, y)} + u * Q{d(x, Y) = d(x, y)}

With Y drawn from the prior and u uniform, this quantity is itself uniform
on [0, 1], which is what makes exact random-coding analysis possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InvariantViolation, Problem


@dataclass(frozen=True, eq=False)
class DistortionProfile:
    """Sorted distinct distortion levels of one source letter on supp(q_y).

    levels[j] are strictly increasing, masses[j] > 0 is the prior mass at
    that level, and cumulative = [0, F_1, ..., F_k] with F_k = 1.
    """

    levels: np.ndarray
    masses: np.ndarray
    cumulative: np.ndarray


def profile(problem: Problem, x: int) -> DistortionProfile:
    """Distinct-distortion decomposition of row x under the prior."""
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
    prof = profile(problem, x)
    j = min(int(np.searchsorted(prof.cumulative[1:], w, side="left")),
            prof.levels.size - 1)
    tau = (w - prof.cumulative[j]) / prof.masses[j]
    tau = min(max(tau, 0.0), 1.0)
    y = int(np.flatnonzero((problem.q_y > 0)
                           & (problem.d[x] == prof.levels[j]))[0])
    return y, float(tau)


def accept_probability(problem: Problem, w: float) -> np.ndarray:
    """Matrix of Pr_U{p_c(x, y, U) <= w} over all (x, y) pairs.

    Entries whose tie mass vanishes (only possible off the prior support)
    degenerate to the step indicator of the strict-below mass.
    """
    below, tie = np.stack([_level_masses(problem, x)
                           for x in range(problem.x_size)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.clip((w - below) / tie, 0.0, 1.0)
    return np.where(tie > 0, frac, (below <= w).astype(float))
