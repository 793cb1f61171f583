import tracemalloc

import numpy as np
import pytest

import oneshotrd.montecarlo as montecarlo_mod
from conftest import make_random_problem
from oneshotrd import (
    Problem,
    exact_expected_distortion,
    simulate_random_code,
)
from oneshotrd.montecarlo import _uniform_block
from oracles import sample_min_uniform, sample_pc_uniformity


def test_uniform_block_counter_semantics():
    full = _uniform_block(123, 0, 0, 64)
    np.testing.assert_array_equal(full[16:40], _uniform_block(123, 0, 16, 24))
    with pytest.raises(ValueError):
        _uniform_block(123, 0, 2, 4)


def test_streams_differ_by_seed_and_stream():
    a = _uniform_block(1, 0, 0, 16)
    b = _uniform_block(2, 0, 0, 16)
    c = _uniform_block(1, 1, 0, 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_deterministic_and_chunk_invariant(binary_hamming):
    a = simulate_random_code(binary_hamming, 3, 5000, seed=7)
    b = simulate_random_code(binary_hamming, 3, 5000, seed=7)
    c = simulate_random_code(binary_hamming, 3, 5000, seed=7, chunk=613)
    assert a.mean == b.mean == c.mean
    assert a.stderr == b.stderr == c.stderr
    d = simulate_random_code(binary_hamming, 3, 5000, seed=8)
    assert d.mean != a.mean


def test_simulate_memory_does_not_grow_with_trials(monkeypatch):
    # a small element budget keeps the test light; the blocks then hold
    # 2^16 / (4 * 256) = 64 trials
    monkeypatch.setattr(montecarlo_mod, "BUDGET", 1 << 16)
    p = Problem(np.full(4, 0.25), np.full(8, 0.125), np.arange(32.0).reshape(4, 8))
    peaks, means = [], []
    for trials in (256, 4096):
        tracemalloc.start()
        means.append(simulate_random_code(p, 256, trials, seed=3).mean)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 3 * 8 * montecarlo_mod.BUDGET
    monkeypatch.undo()
    assert simulate_random_code(p, 256, 4096, seed=3).mean == means[1]


def test_min_uniform_memory_does_not_grow_with_m(monkeypatch):
    # at a budget of 2^16 elements the blocks hold 256 trials at M = 256
    # and 32 at M = 2048; unbounded, the second would hold 16 MiB
    monkeypatch.setattr(montecarlo_mod, "BUDGET", 1 << 16)
    peaks, stats = [], []
    for m in (256, 2048):
        tracemalloc.start()
        stats.append(sample_min_uniform(m, 1024, seed=4).statistic)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 3 * 8 * montecarlo_mod.BUDGET
    monkeypatch.undo()
    assert sample_min_uniform(2048, 1024, seed=4).statistic == stats[1]


def test_simulate_binary_hamming_matches_exact(binary_hamming):
    mc = simulate_random_code(binary_hamming, 2, 100000, seed=5)
    assert abs(mc.mean - 0.25) <= 3 * mc.stderr
    assert mc.trials == 100000 and mc.seed == 5


def test_simulate_m1_matches_full_average(rng):
    p = make_random_problem(rng)
    expect = float(np.sum(p.p_x[:, None] * p.q_y[None, :] * p.d))
    mc = simulate_random_code(p, 1, 50000, seed=3)
    assert abs(mc.mean - expect) <= 3 * mc.stderr


def test_simulate_point_mass_prior_has_no_noise():
    p = Problem([0.25, 0.75], [0.0, 1.0], [[0.2, 0.9], [0.4, 0.1]])
    mc = simulate_random_code(p, 4, 1000, seed=0)
    assert mc.stderr <= 1e-12
    assert mc.mean == pytest.approx(0.25 * 0.9 + 0.75 * 0.1, abs=1e-12)


def test_simulate_validates_inputs(binary_hamming):
    with pytest.raises(ValueError):
        simulate_random_code(binary_hamming, 0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_random_code(binary_hamming, 2, 0, seed=0)


def test_min_uniform_ks_passes():
    for m in (1, 3):
        summary = sample_min_uniform(m, 100000, seed=11)
        assert summary.passed
        assert summary.statistic < summary.critical_value


def test_min_uniform_mean_of_two():
    summary = sample_min_uniform(2, 100000, seed=12)
    assert abs(summary.sample_mean - 1.0 / 3.0) <= 3 * summary.sample_stderr


def test_pc_uniformity_ks_passes(binary_hamming, rng):
    summary = sample_pc_uniformity(binary_hamming, 0, 100000, seed=13)
    assert summary.passed
    assert abs(summary.sample_mean - 0.5) <= 3 * summary.sample_stderr
    p = make_random_problem(rng)
    summary = sample_pc_uniformity(p, 0, 50000, seed=14)
    assert summary.passed


def test_pc_uniformity_point_mass_prior():
    p = Problem([1.0], [0.0, 1.0], [[0.3, 0.8]])
    summary = sample_pc_uniformity(p, 0, 50000, seed=15)
    assert summary.passed  # p_c reduces to the raw uniform draw


def test_oracle_agreement_panel():
    rng = np.random.default_rng(2)
    hits = 0
    for i in range(20):
        p = make_random_problem(rng, nx=int(rng.integers(2, 9)),
                                ny=int(rng.integers(2, 9)))
        m = (2, 3, 5, 10)[i % 4]
        exact = exact_expected_distortion(p, m).exact_distortion
        mc = simulate_random_code(p, m, 20000, seed=1000 + i)
        if abs(mc.mean - exact) <= 3 * mc.stderr:
            hits += 1
    assert hits >= 19
