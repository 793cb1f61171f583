"""The seeded random-code simulator: the Monte Carlo check of the exact average.

All sampling reads counter-based Philox streams keyed by (seed, stream) as
raw 64-bit words, at a fixed, 4-aligned offset per trial, so results are
bit-identical however trials are chunked; the block size is a memory knob.

numpy's double from a word w is (w >> 11) * 2^-53, so w >> 52 is its bin in
the prior's inverse-CDF table; only words in bins that a cumulative sum
splits become doubles and are searched. A codebook's distortion for letter x
is d at the least rank, in x's sorted row, that it holds: a running minimum
over fewer codewords than letters, else a byte-wise table lookup of its
presence mask, so the values equal a gather-and-min over the codewords, bit
for bit. With M >= ny, a trial reads its codewords in slices that double
from 4 and stops once it holds every row's first drawable letter.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import Problem

# a block holds at most CHUNK trials, and its largest temporary at most
# BUDGET elements unless a single trial needs more
CHUNK = 16384
BUDGET = 1 << 22
# the largest codebook simulated: a trial whose draws never hold the best
# letter of every row draws all of them, 2^36 at about 15 ns each
MAX_M = 1 << 36
# bins of the inverse-CDF table, indexed by the top 12 bits of a word
_BINS = 4096


@dataclass(eq=False)
class MCEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int


def _word_block(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Words [start, start + count) of the (seed, stream) Philox sequence.

    start must be a multiple of 4: the Philox counter advances in blocks of
    four 64-bit words.
    """
    if start % 4:
        raise ValueError("stream offsets must be 4-aligned")
    bg = np.random.Philox(key=np.array([seed % 2**64, stream], dtype=np.uint64))
    bg.advance(start // 4)
    return bg.random_raw(count)


def _stride(per_trial: int) -> int:
    return ((per_trial + 3) // 4) * 4


def _trial_words(seed, stream, per_trial, t0, t1):
    stride = _stride(per_trial)
    block = _word_block(seed, stream, t0 * stride, (t1 - t0) * stride)
    return block.reshape(t1 - t0, stride)[:, :per_trial]


def _blocks(trials: int, per_trial: int, chunk: int):
    """Trial ranges [t0, t1) of at most chunk trials and BUDGET elements."""
    block = min(chunk, max(1, BUDGET // per_trial))
    for t0 in range(0, trials, block):
        yield t0, min(t0 + block, trials)


def _inverse_cdf(q: np.ndarray):
    """The prior's inverse CDF, as a function of an array of words, and the
    mask of the letters it can return.

    Letter y owns the draws u with upper[y-1] <= u < upper[y], where upper
    is the cumulative sum of q, capped at 1 and set to 1 from the last
    letter of positive mass on, so a sum that rounds below 1 still ends in
    that letter and no zero-mass letter is ever drawn. A letter can be
    returned only where its interval holds a draw, a multiple of 2^-53.
    Only the draws in the at most ny - 1 split bins are searched. The table
    is int8 up to 128 letters.
    """
    upper = np.minimum(np.cumsum(q), 1.0)
    upper[np.flatnonzero(q)[-1]:] = 1.0
    # the least draw at or above each interval's start
    start = np.ceil(np.append(0.0, upper[:-1]) * 2.0**53) * 2.0**-53
    edges = np.arange(_BINS + 1) / _BINS
    table = np.searchsorted(upper, edges[:-1], side="right")
    table[table != np.searchsorted(upper, edges[1:], side="left")] = -1
    table = table.astype(np.min_scalar_type(-q.size))

    def draw(w: np.ndarray) -> np.ndarray:
        # the bins are below 2^12, so a signed view indexes without a cast
        codes = table.take((w >> 52).view(np.int64))
        miss = codes < 0
        codes[miss] = np.searchsorted(upper, (w[miss] >> 11) * 2.0**-53, side="right")
        return codes

    return draw, start < upper


def _ranks(order: np.ndarray):
    """rank[y, x], letter y's place in row x's order, padded to whole bytes by
    rows of ny, and least: each row's least rank held in a (trials, ny) mask
    that holds some letter, a min over the packed mask's bytes b of
    table[b, v, x], the least rank in row x of the letters 8b + i with bit i
    of v set (ny for v = 0), built by eight doublings on the first call."""
    nx, ny = order.shape
    nbytes = -(-ny // 8)
    rank = np.full((8 * nbytes, nx), ny, dtype=np.min_scalar_type(ny))
    rank[order, np.arange(nx)[:, None]] = np.arange(ny)
    table = None

    def least(held: np.ndarray) -> np.ndarray:
        nonlocal table
        if table is None:
            table = np.full((nbytes, 256, nx), ny, dtype=rank.dtype)
            for i, r in enumerate(rank.reshape(nbytes, 8, 1, nx).swapaxes(0, 1)):
                np.minimum(table[:, :1 << i], r, out=table[:, 1 << i:2 << i])
        packed = np.packbits(held, axis=1, bitorder="little")
        k = table[0].take(packed[:, 0], axis=0)
        for b in range(1, nbytes):
            np.minimum(k, table[b].take(packed[:, b], axis=0), out=k)
        return k

    return rank, least


def simulate_random_code(
    problem: Problem, M: int, trials: int, seed: int, chunk: int = CHUNK
) -> MCEstimate:
    """Sample codebooks of M prior draws; average the exact per-source minimum.

    The expectation over the source is a finite sum and is computed exactly
    per trial, so the only sampling noise comes from the codewords. Trials
    run in blocks of at most chunk, fewer when M is large, so that the
    largest temporary stays near BUDGET elements; a trial of more than
    BUDGET codewords runs alone and draws slice by slice. The per-trial
    values are kept whole, 8 bytes a trial. M (at most MAX_M), trials, seed
    and chunk may be of any integer type.

    A trial's minimum for letter x is dsorted[x, k], k the lowest rank, in
    x's sort order of d, of any codeword: for M < ny a running minimum, one
    (block, nx) gather per codeword; else the least rank in a presence mask
    (see _ranks), filled in slices that double from 4 up to half a budget
    until it holds each row's first drawable letter.
    """
    for name, value in (("M", M), ("trials", trials), ("seed", seed), ("chunk", chunk)):
        if not hasattr(type(value), "__index__"):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    M, trials, seed, chunk = map(operator.index, (M, trials, seed, chunk))
    if not 1 <= M <= MAX_M:
        raise ValueError(f"M must be between 1 and {MAX_M}, got {M}")
    if min(trials, chunk) < 1:
        raise ValueError(f"trials and chunk must be at least 1, got {trials} and {chunk}")
    nx, ny = problem.d.shape
    draw, drawable = _inverse_cdf(problem.q_y)
    order = problem.row_order
    cols = np.arange(nx)
    rank, least = _ranks(order)
    if M >= ny:
        # a trial holding each row's first drawable letter is final
        first = drawable[order].argmax(axis=1)
        final = np.unique(order[cols, first])
    pds = problem.p_x[:, None] * problem.levels.ds
    values = np.empty(trials)
    for t0, t1 in _blocks(trials, nx * M, chunk):
        if M < ny:
            codes = draw(_trial_words(seed, 0, M, t0, t1))
            k = rank.take(codes[:, 0], axis=0)
            for j in range(1, M):
                np.minimum(k, rank.take(codes[:, j], axis=0), out=k)
        else:
            # a trial that stops early has k = first; the rest read the mask
            k = np.tile(first, (t1 - t0, 1))
            held = np.zeros((t1 - t0, ny), dtype=bool)
            active = np.arange(t1 - t0)
            words = _trial_words(seed, 0, M, t0, t1) if M <= BUDGET else None
            j, step = 0, 4
            while j < M and active.size:
                s = min(step, M - j)
                if words is None:
                    w = _word_block(seed, 0, t0 * _stride(M) + j, s)[None]
                else:
                    w = words[:, j:j + s] if active.size == t1 - t0 else words[active, j:j + s]
                held.ravel()[draw(w) + ny * active[:, None]] = True
                active = np.flatnonzero(~held[:, final].all(axis=1))
                j, step = j + s, min(2 * step, _stride(BUDGET // 2))
            if active.size:
                k[active] = least(held[active])
        # pds[cols, k] is C-ordered (block, nx): numpy sums each row pairwise,
        # as the trial-major gather-and-min; p_x d and d p_x are equal doubles
        values[t0:t1] = np.sum(pds[cols, k], axis=1)
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MCEstimate(float(np.mean(values)), stderr, trials, seed)
