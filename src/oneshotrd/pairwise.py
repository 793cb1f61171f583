"""Per-letter distortion profiles and the acceptance matrix of the exact integral.

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

    levels[j] are strictly increasing, masses[j] is the prior mass at that
    level, and cumulative = [0, F_1, ..., F_k] with F_k = 1. A mass is 0
    only where the cumulative sum absorbs it, below one rounding step of F.
    """

    levels: np.ndarray
    masses: np.ndarray
    cumulative: np.ndarray


def profile(problem: Problem, x: int) -> DistortionProfile:
    """Row x of the level table, at the levels that hold a letter of supp(q_y)."""
    table = problem.levels
    held = problem.q_y[problem.row_order[x]] > 0
    if not held.any():
        raise InvariantViolation("q_y has empty support")
    starts = np.flatnonzero(table.head[x])
    live = starts[np.logical_or.reduceat(held, starts)]
    masses, below = table.mass[x, live], table.below[x, live]
    cumulative = np.append(below, below[-1] + masses[-1])
    levels = table.ds[x, live]
    for a in (levels, masses, cumulative):
        a.setflags(write=False)
    return DistortionProfile(levels, masses, cumulative)


def accept_probability(problem: Problem, w: float) -> np.ndarray:
    """Matrix of Pr_U{p_c(x, y, U) <= w} over all (x, y) pairs.

    Entries whose tie mass vanishes (off the prior support, or by rounding)
    degenerate to the step indicator of the strict-below mass.
    """
    table = problem.levels
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = np.clip((w - table.below) / table.mass, 0.0, 1.0)
    accept = np.empty(frac.shape)
    np.put_along_axis(accept, problem.row_order, np.where(
        table.mass > 0, frac, (table.below <= w).astype(float)), axis=1)
    return accept
