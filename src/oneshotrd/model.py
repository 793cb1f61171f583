"""Core problem data types, validation, and problem-file ingestion.

A lossy-compression instance is a source distribution over a finite input
alphabet, a prior over a finite reproduction alphabet, and a nonnegative
distortion matrix between them. Everything else in the package computes
functionals of such an instance.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

# How far validate() lets p_x and q_y sum from 1: a tolerance on the input,
# which accepts vectors written to about a dozen decimals. The arithmetic
# tolerance BREAKPOINT_MERGE_TOL (dtilde.py), which merges cumulative sums
# that differ by rounding alone, is narrower and is a separate quantity.
PROB_ATOL = 1e-12
RESCALE_ATOL = 1e-9  # load_problem rescales sums within this, rejects beyond


class ProblemFormatError(ValueError):
    """Problem-spec file does not conform to the documented JSON schema."""


class InvariantViolation(ValueError):
    """A data-type invariant does not hold."""


class EqualityCheckError(RuntimeError):
    """An identity that must hold exactly was violated beyond tolerance."""


# both sides of such an identity and their absolute difference
EqualityCheck = namedtuple("EqualityCheck", "lhs rhs gap")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _like(values: np.ndarray, x):
    """values, computed from x, as a float where x was a scalar."""
    return float(values[0]) if np.ndim(x) == 0 else values


LevelTable = namedtuple("LevelTable", "ds head below mass")


@dataclass(eq=False)
class Problem:
    """Finite instance: source p_x, reproduction prior q_y, distortion d.

    Instances are immutable after construction (arrays are read-only), so
    the derived objects worth keeping live on the instance, are built on
    first use and are freed with it: d_max, the per-row sort order of d, its
    level table and the dtilde1 representation stored by build_dtilde1. No
    validation happens here; see :func:`validate` and :func:`load_problem`.
    """

    p_x: np.ndarray
    q_y: np.ndarray
    d: np.ndarray
    x_labels: list[str] | None = None
    y_labels: list[str] | None = None
    _dtilde1: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.p_x = _readonly(np.atleast_1d(self.p_x))
        self.q_y = _readonly(np.atleast_1d(self.q_y))
        self.d = _readonly(np.atleast_2d(self.d))

    @property
    def x_size(self) -> int:
        return self.p_x.shape[0]

    @property
    def y_size(self) -> int:
        return self.q_y.shape[0]

    @cached_property
    def d_max(self) -> float:
        """Largest distortion over the supports of p_x and q_y."""
        sub = self.d[np.ix_(self.p_x > 0, self.q_y > 0)]
        return float(sub.max()) if sub.size else 0.0

    @cached_property
    def row_order(self) -> np.ndarray:
        """Stable argsort of each row of d, ascending distortion."""
        order = np.argsort(self.d, axis=1, kind="stable")
        order.setflags(write=False)
        return order

    @cached_property
    def levels(self) -> LevelTable:
        """Each row of d in ascending order, split into its distinct levels.

        Entry (x, k) is the letter row_order[x, k]: ds is its distortion,
        head is True where a level starts, and below and mass are the prior
        masses strictly below and at its level, from one sum per row.
        """
        nx, ny = self.d.shape
        ds = self.d[np.arange(nx)[:, None], self.row_order]
        edge = np.ones(ds.size + 1, dtype=bool)  # head, and one more True past the end
        head = edge[:-1].reshape(nx, ny)
        head[:, 1:] = ds[:, 1:] != ds[:, :-1]
        cum = np.zeros((nx, ny + 1))
        self.q_y[self.row_order].cumsum(axis=1, out=cum[:, 1:])
        # cum's flat index of (x, k) is x * ny + k + x; a level ends at the
        # next edge, so a row's last one at (x + 1) * ny + x, the row's end
        edges = edge.nonzero()[0]
        rows = edges[:-1] // ny
        below = cum.ravel()[edges[:-1] + rows]
        mass = cum.ravel()[edges[1:] + rows] - below
        level = head.cumsum().reshape(nx, ny) - 1
        table = LevelTable(ds, head, below[level], mass[level])
        for a in table:
            a.setflags(write=False)
        return table


def validate(problem: Problem) -> None:
    """Check every Problem invariant, raising on the first violation."""
    p, q, d = problem.p_x, problem.q_y, problem.d
    # a vector's min and max both carry a NaN, and an inf shows at one end, so
    # two reductions per array give every check in order, messages included
    for name, v in (("p_x", p), ("q_y", q)):
        if v.ndim != 1 or v.size == 0:
            raise InvariantViolation(f"{name} must be a nonempty vector")
        lo, hi = v.min(), v.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvariantViolation(f"{name} has non-finite entries")
        if lo < 0:
            raise InvariantViolation(f"{name} has negative entries")
        s = float(np.sum(v))
        if abs(s - 1.0) > PROB_ATOL:
            raise InvariantViolation(f"{name} sums to {s:.12g}")
    # build_dtilde1 merges a subnormal mass (see BREAKPOINT_MERGE_TOL) and
    # the fill does not
    if np.any((q > 0) & (q < np.finfo(float).tiny)):
        raise InvariantViolation("q_y has subnormal entries")
    if d.shape != (p.size, q.size):
        raise InvariantViolation(
            f"distortion matrix has shape {d.shape}, expected {(p.size, q.size)}"
        )
    lo, hi = d.min(), d.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvariantViolation("non-finite distortion")
    if lo < 0:
        raise InvariantViolation("negative distortion")


def scaled_tol(problem: Problem, tol: float) -> float:
    """tol in the scale of d: times the largest d over the rows of p_x's support and every y
    (a code may use letters outside q_y's support), or the smallest normal double if larger."""
    return tol * max(float(problem.d[problem.p_x > 0].max(initial=0.0)), np.finfo(float).tiny)


_ALLOWED_KEYS = {"p_x", "q_y", "d", "x_labels", "y_labels"}


def _array(raw, name: str, ndim: int) -> np.ndarray:
    try:
        a = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{name} is not a numeric array") from exc
    if a.ndim != ndim:
        raise ProblemFormatError(f"{name} must be a {ndim}-dimensional array")
    return a


def _rescaled(v: np.ndarray) -> np.ndarray:
    # sums within RESCALE_ATOL are rescaled; sums already within PROB_ATOL
    # are kept bit-identical, and anything else is left for validate()
    s = float(np.sum(v))
    return v / s if PROB_ATOL < abs(s - 1.0) <= RESCALE_ATOL else v


def load_problem(path: str | Path) -> Problem:
    """Read and validate a problem-spec JSON file.

    Keys: "p_x", "q_y", "d" (rows indexed by the source letter), optional
    "x_labels"/"y_labels". Any other key is rejected. Probability vectors
    whose sums deviate from 1 by at most 1e-9 are rescaled exactly. Every
    failure, including a violated Problem invariant, is a ProblemFormatError.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ProblemFormatError(f"{path}: top level must be an object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ProblemFormatError(f"{path}: unknown key {sorted(unknown)[0]!r}")
    for key in ("p_x", "q_y", "d"):
        if key not in raw:
            raise ProblemFormatError(f"{path}: missing key {key!r}")

    p_x = _rescaled(_array(raw["p_x"], "p_x", 1))
    q_y = _rescaled(_array(raw["q_y"], "q_y", 1))
    d = _array(raw["d"], "d", 2)

    labels = {}
    for key, size in (("x_labels", p_x.size), ("y_labels", q_y.size)):
        if key in raw:
            lab = raw[key]
            if (not isinstance(lab, list)
                    or len(lab) != size
                    or not all(isinstance(s, str) for s in lab)):
                raise ProblemFormatError(
                    f"{key} must be a list of {size} strings"
                )
            labels[key] = list(lab)

    problem = Problem(p_x, q_y, d, **labels)
    try:
        validate(problem)
    except InvariantViolation as exc:
        raise ProblemFormatError(str(exc)) from exc
    return problem


def save_problem(problem: Problem, path: str | Path) -> None:
    """Write a Problem back to the JSON problem-spec format."""
    doc: dict = {
        "p_x": problem.p_x.tolist(),
        "q_y": problem.q_y.tolist(),
        "d": problem.d.tolist(),
    }
    if problem.x_labels is not None:
        doc["x_labels"] = list(problem.x_labels)
    if problem.y_labels is not None:
        doc["y_labels"] = list(problem.y_labels)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
