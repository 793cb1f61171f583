"""The seeded random-code simulator: the Monte Carlo check of the exact average.

All sampling runs on counter-based Philox streams keyed by (seed, stream).
A trial's draws live at a fixed, 4-aligned counter offset, so results are
bit-identical no matter how trials are chunked or distributed; the block
size is a memory knob, not a semantic one.

Codewords are drawn through the prior's inverse CDF, looked up in a table of
_BINS equal bins of [0, 1) and searched only in the few bins that a
cumulative sum splits, so the draws are exactly those of a search. A
codebook's distortion for source letter x is that of the first letter, in
x's sorted row of d, that the codebook holds: the minimum is exact, so the
values equal a gather of d over the codewords and a min, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Problem

_MASK64 = (1 << 64) - 1
# a block holds at most CHUNK trials, and its largest temporary at most
# BUDGET elements unless a single trial needs more
CHUNK = 16384
BUDGET = 1 << 22
# bins of the inverse-CDF table; a power of two, so that u * _BINS is exact
_BINS = 4096


@dataclass(eq=False)
class MCEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int


def _uniform_block(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Doubles [start, start + count) of the (seed, stream) Philox sequence.

    start must be a multiple of 4: the Philox counter advances in blocks of
    four 64-bit outputs and each double consumes one output.
    """
    if start % 4:
        raise ValueError("stream offsets must be 4-aligned")
    bg = np.random.Philox(key=np.array([seed & _MASK64, stream], dtype=np.uint64))
    if start:
        bg.advance(start // 4)
    return np.random.Generator(bg).random(count)


def _stride(per_trial: int) -> int:
    return ((per_trial + 3) // 4) * 4


def _trial_uniforms(seed, stream, per_trial, t0, t1):
    stride = _stride(per_trial)
    block = _uniform_block(seed, stream, t0 * stride, (t1 - t0) * stride)
    return block.reshape(t1 - t0, stride)[:, :per_trial]


def _blocks(trials: int, per_trial: int, chunk: int):
    """Trial ranges [t0, t1) of at most chunk trials and BUDGET elements."""
    block = min(chunk, max(1, BUDGET // per_trial))
    for t0 in range(0, trials, block):
        yield t0, min(t0 + block, trials)


def _inverse_cdf(q: np.ndarray):
    """The prior's inverse CDF, as a function of an array of draws in [0, 1).

    A draw u maps to the letter y with cum_q[y-1] <= u < cum_q[y], and to the
    last letter with positive mass where u >= cum_q[-1] (which may round
    below 1), so no zero-mass letter is ever drawn. _BINS is a power of two,
    so u * _BINS and the bin edges are exact: a bin that no cumulative sum
    splits stores its letter, and only the draws in the at most ny - 1 split
    bins are searched.
    """
    cum_q = np.cumsum(q)
    last = int(np.flatnonzero(q)[-1])

    def search(u):
        return np.minimum(np.searchsorted(cum_q, u, side="right"), last)

    edges = np.arange(_BINS + 1) / _BINS
    table = search(edges[:-1])
    split = table != np.minimum(np.searchsorted(cum_q, edges[1:], side="left"), last)
    table[split] = -1

    def draw(u: np.ndarray) -> np.ndarray:
        # numpy casts float64 to int32 in vector code, and to int64 one by one
        codes = table[(u * _BINS).astype(np.int32).astype(np.intp)]
        miss = codes < 0
        if miss.any():
            codes[miss] = search(u[miss])
        return codes

    return draw


def simulate_random_code(
    problem: Problem, M: int, trials: int, seed: int, chunk: int = CHUNK
) -> MCEstimate:
    """Sample codebooks of M prior draws; average the exact per-source minimum.

    The expectation over the source is a finite sum and is computed exactly
    per trial, so the only sampling noise comes from the codewords. Trials
    run in blocks of at most chunk, fewer when M is large, so that the
    largest temporary stays near BUDGET elements.

    A trial's minimum for letter x is dsorted[x, k], where k is the lowest
    rank, in x's sort order of d, of any codeword. With fewer codewords than
    letters k is a min over the codewords' ranks; otherwise it is the first
    held letter of a presence mask, read in each row's order.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    nx, ny = problem.d.shape
    draw = _inverse_cdf(problem.q_y)
    order = problem.row_order
    cols = np.arange(nx)
    dsorted = problem.levels.ds
    if M < ny:
        # rank[y, x]: the place of letter y in row x's sort order
        rank = np.empty((ny, nx), dtype=np.min_scalar_type(ny - 1))
        rank[order, cols[:, None]] = np.arange(ny)
    values = np.empty(trials)
    for t0, t1 in _blocks(trials, nx * M, chunk):
        codes = draw(_trial_uniforms(seed, 0, M, t0, t1))
        if M < ny:
            k = rank[codes].min(axis=1)
        else:
            held = np.zeros((t1 - t0, ny), dtype=bool)
            held.ravel()[codes + ny * np.arange(t1 - t0)[:, None]] = True
            k = np.take(held, order, axis=1).argmax(axis=2)
        # best is (block, nx) and C-ordered, so numpy sums each trial's row
        # pairwise along contiguous memory, as it sums the trial-major
        # (nx, block) minimum of a plain gather over the codewords
        best = dsorted[cols, k]
        values[t0:t1] = np.sum(best * problem.p_x, axis=1)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MCEstimate(mean, stderr, trials, seed)
