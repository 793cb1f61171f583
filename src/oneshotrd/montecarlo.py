"""The seeded random-code simulator: the Monte Carlo check of the exact average.

All sampling reads counter-based Philox streams keyed by (seed, stream) as
raw 64-bit words, at a fixed, 4-aligned offset per trial, so results are
bit-identical however trials are chunked; the block size is a memory knob.

numpy's double from a word w is (w >> 11) * 2^-53, so w >> 52 is its bin in
the prior's inverse-CDF table; only words in bins that a cumulative sum
splits become doubles and are searched. A codebook's distortion for letter x
is d at the least rank, in x's sorted row, that it holds, read off its presence
mask: past 8 letters by a table lookup of the mask's bytes, at every M; up to 8,
as its one byte's value. The mask fills from codes drawn in one pass, or, where
the rarest of the rows' first drawable letters is due at least once in a
trial's words, in slices that double from 4 until it holds them all. At
READ * ny codewords, when M >= 2 * READ * ny, it takes one multinomial draw
over the letters it lacks. Below that M, values are a gather-and-min's, bit for
bit. Several M share one sample, each read off a prefix of the largest M's
words, each word drawn once.
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
    """rank[y, x], letter y's place in row x's order, padded to the mask's
    whole bytes by rows of ny, and least: each row's least rank in the packed
    masks (see _pack) of trials that hold some letter, a min over bytes b of
    table[b, v, x], the least rank in row x of the letters 8b + i with bit i
    of v set (ny for v = 0), built from rank by eight doublings on first call."""
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


def simulate_random_codes(
    problem: Problem, Ms, trials: int, seed: int, chunk: int = CHUNK
) -> list[MCEstimate]:
    """Sample codebooks of prior draws and average the exact per-source minimum,
    for every M of Ms from one sample: an MCEstimate per entry of Ms, in order.

    The source's expectation is exact per trial, so the only noise is the
    codewords'. Blocks hold at most chunk trials and about BUDGET elements; the
    values are kept whole, 8 bytes a trial and M, and reduced in place. Ms (each
    at most MAX_M), trials, seed and chunk may be of any integer type.

    A trial draws the largest M's words once, M or, from M = 2c on, c = READ * ny,
    and each M reads their prefix: the mask stops at each M, where its values
    are read. Only where mass * (words drawn) >= 1 for each letter a final trial
    must hold does the mask read in slices and drop the final trials; else a
    block's codes are drawn in one pass and every trial is open until, before a
    tail, one final test at c. For each M above the words drawn, a trial still open
    after them adds the letters it lacks of one Multinomial(M - c, mass) draw
    from Philox stream (seed, i), in trial order: i = 1 for the largest M, 2 for
    the next, and so on. So the estimates are correlated across M, each valid
    alone, and the largest M's is that of its own call.
    """
    Ms = list(Ms)
    for name, value in (*[("M", M) for M in Ms], ("trials", trials), ("seed", seed),
                        ("chunk", chunk)):
        if not hasattr(type(value), "__index__"):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    Ms = [operator.index(M) for M in Ms]
    trials, seed, chunk = map(operator.index, (trials, seed, chunk))
    for M in Ms or [0]:  # no M at all fails as M = 0 does
        if not 1 <= M <= MAX_M:
            raise ValueError(f"M must be between 1 and {MAX_M}, got {M}")
    if min(trials, chunk) < 1:
        raise ValueError(f"trials and chunk must be at least 1, got {trials} and {chunk}")
    if not problem.q_y.any():
        raise InvariantViolation("q_y has empty support")
    nx, ny = problem.d.shape
    draw, mass = _inverse_cdf(problem.q_y)
    order = problem.row_order
    rank, least = _ranks(order)
    width = rank.shape[0]  # the mask's letters, whole bytes
    bytewise = ny <= 8  # a trial's value is a function of its one mask byte
    sizes = sorted(set(Ms))
    read = sizes[-1] if sizes[-1] < 2 * READ * ny else READ * ny  # the words a trial reads
    stops = sorted({min(M, read) for M in sizes})  # where the mask's values are read
    tails = {M: np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, i], np.uint64)))
             for i, M in enumerate(sizes[::-1], 1) if M > read}
    # pds[k + at[x]] is p_x d (= d p_x) at rank k of row x; a take of (trials, nx)
    # is C-ordered, so numpy sums each row pairwise, as the trial-major gather-and-min
    pds, at = (problem.p_x[:, None] * problem.levels.ds).ravel(), np.arange(nx) * ny
    if bytewise:  # a byte that holds no letter is no trial's, and clips
        byte_value = np.sum(pds.take(least(np.arange(256)[:, None]) + at, mode="clip"), axis=1)
    first = (mass > 0)[order].argmax(axis=1)
    final = np.unique(order[np.arange(nx), first])  # a trial holding all of these is final
    # slice only if the rarest final letter is due at least once in a trial's
    # words: at x = mass * read < 1 a trial reads at least (1 - e^-x) / x > 63%
    # of them, which does not pay for the slices' narrow draws and final tests
    sliced = mass[final].min() * read >= 1

    def value(held):  # a block's values from its presence mask
        # a final trial's least is first: no letter ranked before it has mass
        if bytewise:
            return byte_value.take(_pack(held)[:, 0])
        return np.sum(pds.take(least(_pack(held)) + at), axis=1)

    def fill(t0, t1):  # its temporaries die with it, before the next block draws its words
        words, code = _trial_words(seed, 0, read, t0, t1), draw
        if not sliced:  # one pass: every word's code at once, at 1/8 of the words' size
            words, code = draw(words), np.asarray
        held = np.zeros((t1 - t0, width), dtype=bool)
        active, j = np.arange(t1 - t0), 0
        for stop in stops:
            while j < stop and active.size:  # words up to 4, 12, 28, ... and stop
                end = min(4 * (2 ** (j // 4 + 1).bit_length() - 1), stop) if sliced else stop
                w = words[:, j:end] if active.size == t1 - t0 else words[active, j:end]
                held.ravel()[code(w) + width * active[:, None]] = True
                if sliced or (end == read and tails):  # one pass tests once, before the tail
                    active = np.flatnonzero(~held[:, final].all(axis=1))
                j = end
            if stop in values:
                values[stop][t0:t1] = value(held)
        if active.size and tails:
            # the held letters' mass goes to a last column: numpy fills it with the rest
            lack = np.column_stack([np.where(held[active, :ny], 0.0, mass), np.zeros(active.size)])
        for M, tail in tails.items():  # the largest first; the smallest ORs into held itself
            mask = held if M == min(tails) else held.copy()
            if active.size:
                mask[active, :ny] |= tail.multinomial(M - read, lack)[:, :-1] > 0
            values[M][t0:t1] = value(mask)

    values = {M: np.empty(trials) for M in sizes}
    for t0, t1 in _blocks(trials, nx * read, chunk):
        fill(t0, t1)
    for M, v in values.items():  # np.std(v, ddof=1)'s steps, in place of its copy of v
        mean = np.mean(v)
        v -= mean
        var = np.sum(np.square(v, out=v)) / (trials - 1) if trials > 1 else 0.0
        values[M] = float(mean), math.sqrt(var) / math.sqrt(trials)
    return [MCEstimate(*values[M], trials, seed) for M in Ms]


def simulate_random_code(problem: Problem, M: int, trials: int, seed: int,
                         chunk: int = CHUNK) -> MCEstimate:
    """simulate_random_codes at one M."""
    return simulate_random_codes(problem, [M], trials, seed, chunk)[0]
