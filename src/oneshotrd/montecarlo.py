"""Seeded Monte Carlo oracles for the exact formulas.

All sampling runs on counter-based Philox streams keyed by (seed, stream).
A trial's draws live at a fixed, 4-aligned counter offset, so results are
bit-identical no matter how trials are chunked or distributed; the block
size is a memory knob, not a semantic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .model import Problem
from .pairwise import _level_masses

_MASK64 = (1 << 64) - 1
KS_SIGNIFICANCE = 1e-3
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


@dataclass(eq=False)
class KSSummary:
    """Kolmogorov-Smirnov comparison of a sample against a reference CDF."""

    trials: int
    statistic: float
    pvalue: float
    critical_value: float  # asymptotic threshold at the 1e-3 level
    passed: bool
    sample_mean: float
    sample_stderr: float
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


def _ks_summary(sample: np.ndarray, cdf, seed: int) -> KSSummary:
    result = stats.kstest(sample, cdf)
    n = sample.size
    critical = float(stats.kstwobign.isf(KS_SIGNIFICANCE) / math.sqrt(n))
    return KSSummary(
        trials=n,
        statistic=float(result.statistic),
        pvalue=float(result.pvalue),
        critical_value=critical,
        passed=bool(result.pvalue > KS_SIGNIFICANCE),
        sample_mean=float(np.mean(sample)),
        sample_stderr=float(np.std(sample, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        seed=seed,
    )


def sample_min_uniform(M: int, trials: int, seed: int) -> KSSummary:
    """Empirical law of the minimum of M uniforms against 1 - (1-w)^M."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    mins = np.empty(trials)
    for t0, t1 in _blocks(trials, _stride(M), CHUNK):
        mins[t0:t1] = _trial_uniforms(seed, 1, M, t0, t1).min(axis=1)
    with np.errstate(divide="ignore"):
        cdf = lambda w: -np.expm1(M * np.log1p(-np.minimum(w, 1.0)))
    return _ks_summary(mins, cdf, seed)


def sample_pc_uniformity(problem: Problem, x: int, trials: int, seed: int) -> KSSummary:
    """Sampled pairwise-correct values for letter x against the uniform CDF."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    below, tie = _level_masses(problem, x)
    cum_q = np.cumsum(problem.q_y)
    pc = np.empty(trials)
    for t0, t1 in _blocks(trials, _stride(2), CHUNK):
        u = _trial_uniforms(seed, 2, 2, t0, t1)
        y = _inverse_cdf(cum_q, u[:, 0])
        pc[t0:t1] = below[y] + u[:, 1] * tie[y]
    return _ks_summary(pc, "uniform", seed)
