"""The seeded random-code simulator: the Monte Carlo check of the exact average.

All sampling runs on counter-based Philox streams keyed by (seed, stream).
A trial's draws live at a fixed, 4-aligned counter offset, so results are
bit-identical no matter how trials are chunked or distributed; the block
size is a memory knob, not a semantic one.
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


def _inverse_cdf(cum_q: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(cum_q, u, side="right"), cum_q.size - 1)


def simulate_random_code(
    problem: Problem, M: int, trials: int, seed: int, chunk: int = CHUNK
) -> MCEstimate:
    """Sample codebooks of M prior draws; average the exact per-source minimum.

    The expectation over the source is a finite sum and is computed exactly
    per trial, so the only sampling noise comes from the codewords. Trials
    run in blocks of at most chunk, fewer when M is large, so that the
    distortion temporary stays near BUDGET elements.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cum_q = np.cumsum(problem.q_y)
    values = np.empty(trials)
    for t0, t1 in _blocks(trials, problem.x_size * M, chunk):
        u = _trial_uniforms(seed, 0, M, t0, t1)
        codes = _inverse_cdf(cum_q, u)
        best = problem.d[:, codes].min(axis=2)
        values[t0:t1] = np.sum(problem.p_x[:, None] * best, axis=0)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MCEstimate(mean, stderr, trials, seed)
