"""The seeded random-code simulator: the Monte Carlo check of the exact average.

All sampling reads counter-based Philox streams keyed by (seed, stream) as
raw 64-bit words, at a fixed, 4-aligned offset per trial, so results are
bit-identical however trials are chunked; the block size is a memory knob.

numpy's double from a word w is (w >> 11) * 2^-53, so w >> 52 is its bin in
the prior's inverse-CDF table; only words in bins that a cumulative sum
splits become doubles and are searched. A codebook's distortion for letter x
is d at the least rank, in x's sorted row, that it holds: past 8 letters a
running minimum over fewer codewords than letters, else a table lookup of its
presence mask's bytes; up to 8, of its one byte's value. The mask fills in
slices that double from 4 until it holds every row's first drawable letter or
READ * ny codewords, when M >= 2 * READ * ny, then one multinomial draw over
the letters it lacks. Below that M, values are a gather-and-min's, bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import InvariantViolation, Problem

# a block holds at most CHUNK trials, and its largest temporary at most
# BUDGET elements unless a single trial needs more
CHUNK = 16384
BUDGET = 1 << 22
# a trial reads at most READ * ny codewords once M >= 2 * READ * ny
READ = 4
# the largest codebook simulated: numpy's largest multinomial count
MAX_M = 2**63 - 1
# bins of the inverse-CDF table, indexed by the top 12 bits of a word, and their edges
_BINS = 4096
_EDGES = np.arange(_BINS + 1) / _BINS


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


def _trial_words(seed, stream, per_trial, t0, t1):
    stride = (per_trial + 3) // 4 * 4
    block = _word_block(seed, stream, t0 * stride, (t1 - t0) * stride)
    return block.reshape(t1 - t0, stride)[:, :per_trial]


def _blocks(trials: int, per_trial: int, chunk: int):
    """Trial ranges [t0, t1) of at most chunk trials and BUDGET elements."""
    block = min(chunk, max(1, BUDGET // per_trial))
    for t0 in range(0, trials, block):
        yield t0, min(t0 + block, trials)


def _inverse_cdf(q: np.ndarray):
    """The prior's inverse CDF, as a function of an array of words, and the
    law of the letters it returns.

    Letter y owns the draws u with upper[y-1] <= u < upper[y], where upper
    is the cumulative sum of q, capped at 1 and set to 1 from the last
    letter of positive mass on, so a sum that rounds below 1 still ends in
    that letter and no zero-mass letter is ever drawn. A letter's mass is
    its interval's share of the draws, the multiples of 2^-53 in [0, 1):
    exact, as is their sum, 1. Only the draws in the at most ny - 1 split
    bins are searched. The table is int8 up to 128 letters.
    """
    upper = np.minimum(np.cumsum(q), 1.0)
    upper[np.flatnonzero(q)[-1]:] = 1.0
    mass = np.ceil(upper * 2.0**53) * 2.0**-53  # the least draw at or above each end,
    mass[1:] -= mass[:-1]  # less that at its start; numpy reads an overlapping operand first
    table = np.searchsorted(upper, _EDGES[:-1], side="right")
    table[table != np.searchsorted(upper, _EDGES[1:], side="left")] = -1
    table = table.astype(np.min_scalar_type(-q.size))

    def draw(w: np.ndarray) -> np.ndarray:
        # the bins are below 2^12, so a signed view indexes without a cast
        codes = table.take((w >> 52).view(np.int64))
        miss = codes < 0
        codes[miss] = np.searchsorted(upper, (w[miss] >> 11) * 2.0**-53, side="right")
        return codes

    return draw, mass


def _pack(held: np.ndarray) -> np.ndarray:
    """np.packbits(held, axis=1, bitorder="little") of a (trials, 8n) mask, as
    int64, by one multiply per 8 letters: byte i lands on bit 56 + i, carry-free."""
    return ((held.view("<u8") * 0x0102040810204080) >> 56).view(np.int64)


def _ranks(order: np.ndarray):
    """rank[y, x], letter y's place in row x's order, padded to whole bytes by
    rows of ny, and least: each row's least rank in the packed masks
    (see _pack) of trials that hold some letter, a min over bytes b of
    table[b, v, x], the least rank in row x of the letters 8b + i with bit i
    of v set (ny for v = 0), built by eight doublings on the first call."""
    nx, ny = order.shape
    nbytes = -(-ny // 8)
    rank = np.full((8 * nbytes, nx), ny, dtype=np.min_scalar_type(ny))
    rank[order, np.arange(nx)[:, None]] = np.arange(ny)
    table = None

    def least(packed: np.ndarray) -> np.ndarray:
        nonlocal table
        if table is None:
            table = np.full((nbytes, 256, nx), ny, dtype=rank.dtype)
            for i, r in enumerate(rank.reshape(nbytes, 8, 1, nx).swapaxes(0, 1)):
                np.minimum(table[:, :1 << i], r, out=table[:, 1 << i:2 << i])
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
    run in blocks of at most chunk, fewer when a trial reads many words, so
    that the largest temporary stays near BUDGET elements. The per-trial
    values are kept whole, 8 bytes a trial. M (at most MAX_M), trials, seed
    and chunk may be of any integer type.

    A trial's minimum for letter x is dsorted[x, k], k the lowest rank, in
    x's sort order of d, of any codeword: past 8 letters, for M < ny a running
    minimum, else the least rank in a presence mask (see _ranks); up to 8 the
    mask is one byte, indexing a table of trial values. It fills in slices that
    double from 4 until it holds each row's first drawable letter. From M = 2c
    on, c = READ * ny, a trial has c words, not M; one still open after them
    adds the letters it lacks of one Multinomial(M - c, mass) draw from a
    (seed, 1) Philox stream, in trial order.
    """
    for name, value in (("M", M), ("trials", trials), ("seed", seed), ("chunk", chunk)):
        if not hasattr(type(value), "__index__"):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    M, trials, seed, chunk = map(operator.index, (M, trials, seed, chunk))
    if not 1 <= M <= MAX_M:
        raise ValueError(f"M must be between 1 and {MAX_M}, got {M}")
    if min(trials, chunk) < 1:
        raise ValueError(f"trials and chunk must be at least 1, got {trials} and {chunk}")
    if not problem.q_y.any():
        raise InvariantViolation("q_y has empty support")
    nx, ny = problem.d.shape
    draw, mass = _inverse_cdf(problem.q_y)
    order = problem.row_order
    cols = np.arange(nx)
    rank, least = _ranks(order)
    width = rank.shape[0]  # the mask's letters, whole bytes
    bytewise = ny <= 8  # a trial's value is a function of its one mask byte
    read = M if M < 2 * READ * ny else READ * ny  # the words a trial reads
    if read < M:
        tail = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 1], np.uint64)))
    # pds[k + at[x]] is p_x d (= d p_x) at rank k of row x; a take of (trials, nx)
    # is C-ordered, so numpy sums each row pairwise, as the trial-major gather-and-min
    pds, at = (problem.p_x[:, None] * problem.levels.ds).ravel(), cols * ny
    if bytewise:  # a byte that holds no letter is no trial's, and clips
        byte_value = np.sum(pds.take(least(np.arange(256)[:, None]) + at, mode="clip"), axis=1)
    if M >= ny or bytewise:
        # a trial holding each row's first drawable letter is final
        first = (mass > 0)[order].argmax(axis=1)
        final = np.unique(order[cols, first])
    values = np.empty(trials)
    for t0, t1 in _blocks(trials, nx * read, chunk):
        words = _trial_words(seed, 0, read, t0, t1)
        if M < ny and not bytewise:
            codes = draw(words)
            k = rank.take(codes[:, 0], axis=0)
            for j in range(1, M):
                np.minimum(k, rank.take(codes[:, j], axis=0), out=k)
        else:
            held = np.zeros((t1 - t0, width), dtype=bool)
            active = np.arange(t1 - t0)
            j, step = 0, 4
            while j < read and active.size:
                w = words[:, j:j + step] if active.size == t1 - t0 else words[active, j:j + step]
                held.ravel()[draw(w) + width * active[:, None]] = True
                active = np.flatnonzero(~held[:, final].all(axis=1))
                j, step = j + step, 2 * step
            if active.size and read < M:
                # the held letters' mass goes to a last column: numpy fills it with the rest
                lack = np.where(held[active, :ny], 0.0, mass)
                counts = tail.multinomial(M - read, np.column_stack([lack, np.zeros(active.size)]))
                held[active, :ny] |= counts[:, :-1] > 0
            if bytewise:
                values[t0:t1] = byte_value.take(_pack(held)[:, 0])
            else:
                # a trial that stops early has k = first; the rest read the mask
                k = np.tile(first, (t1 - t0, 1))
                if active.size:
                    k[active] = least(_pack(held)[active])
        if not bytewise:
            values[t0:t1] = np.sum(pds.take(k + at), axis=1)
        del words  # before the next block draws its own
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MCEstimate(float(np.mean(values)), stderr, trials, seed)
