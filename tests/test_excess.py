import math

import numpy as np
import pytest

from conftest import make_random_problem, priors_beating_log_m
from oneshotrd import (
    EqualityCheckError,
    Problem,
    bound_gap_comparison,
    dtilde,
    dtilde1,
    excess_dtilde,
    excess_problem,
    excess_rate,
    lemma4_check,
    m_functional,
)


def random_joint(rng, nx=None, ny=None, product=False, sparsity=0.25):
    nx = int(nx if nx is not None else rng.integers(2, 6))
    ny = int(ny if ny is not None else rng.integers(2, 6))
    if product:
        j = np.outer(rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny)))
    else:
        j = rng.random((nx, ny))
        j[rng.random((nx, ny)) < sparsity] = 0.0
        if j.sum() == 0:
            j[0, 0] = 1.0
        j = j / j.sum()
    return j


def test_excess_problem_hamming_unchanged(binary_hamming):
    ep = excess_problem(binary_hamming, 0.0)
    np.testing.assert_array_equal(ep.d, binary_hamming.d)


def test_excess_problem_thresholds():
    p = Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 2.0], [3.0, 1.0]])
    ep = excess_problem(p, 1.5)
    np.testing.assert_array_equal(ep.d, [[0.0, 1.0], [1.0, 0.0]])
    all_zero = excess_problem(p, 3.0)
    np.testing.assert_array_equal(all_zero.d, np.zeros((2, 2)))


def test_excess_dtilde_hand_values(binary_hamming):
    assert excess_dtilde(binary_hamming, math.log(4.0 / 3.0), 0.0) == pytest.approx(
        0.25, abs=1e-12
    )
    assert excess_dtilde(binary_hamming, 0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert excess_dtilde(binary_hamming, 1.0, 2.0) == 0.0


def test_excess_dtilde_compositional_identity(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        d_th = float(rng.uniform(0.0, p.d.max()))
        rate = float(rng.uniform(0.0, 2.0))
        ep = excess_problem(p, d_th)
        assert excess_dtilde(p, rate, d_th) == dtilde1(ep, math.exp(-rate))
        w = math.exp(-rate)
        assert dtilde(ep, w) == pytest.approx(excess_dtilde(p, rate, d_th) / w, abs=1e-15)


def test_excess_rate_hand_values(binary_hamming):
    assert excess_rate(binary_hamming, 1.0 / 3.0, 0.0) == pytest.approx(
        math.log(4.0 / 3.0), abs=1e-10
    )
    assert excess_rate(binary_hamming, 0.5, 0.0) == 0.0
    assert excess_rate(binary_hamming, 0.0, 0.0) == math.inf


def test_excess_rate_monotone(rng):
    for _ in range(10):
        p = make_random_problem(rng)
        d_th = float(np.quantile(p.d, 0.5))
        ceil = excess_dtilde(p, 0.0, d_th)
        deltas = np.linspace(0.0, ceil, 25)
        rates = [excess_rate(p, float(dl), d_th) for dl in deltas]
        finite = [r for r in rates if math.isfinite(r)]
        assert all(a >= b - 1e-12 for a, b in zip(rates[:-1], rates[1:]))
        assert all(r >= 0 for r in finite)


def test_excess_rate_infinite_below_floor():
    # the second source letter always exceeds the threshold on the support,
    # so no channel reaches an excess probability below 0.5
    p = Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 1.0]])
    assert excess_rate(p, 0.2, 0.5) == math.inf
    assert excess_rate(p, 0.4999, 0.5) == math.inf
    assert math.isfinite(excess_rate(p, 0.6, 0.5))


def test_excess_rate_rejects_above_ceiling(binary_hamming):
    with pytest.raises(ValueError):
        excess_rate(binary_hamming, 0.6, 0.0)
    with pytest.raises(ValueError):
        excess_rate(binary_hamming, -0.1, 0.0)


def test_m_functional_hand_values():
    assert m_functional(np.eye(2) * 0.5) == pytest.approx(2.0, abs=1e-15)
    assert m_functional(np.array([[0.45, 0.05], [0.05, 0.45]])) == pytest.approx(1.8)
    prod = np.outer([0.3, 0.7], [0.25, 0.5, 0.25])
    assert m_functional(prod) == pytest.approx(1.0, abs=1e-12)


def test_m_functional_rejects_bad_input():
    with pytest.raises(ValueError):
        m_functional(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        m_functional(np.array([[1.5, -0.5]]))


def test_m_functional_one_iff_product(rng):
    for _ in range(20):
        j = random_joint(rng, product=True)
        assert m_functional(j) == pytest.approx(1.0, abs=1e-9)
    for _ in range(20):
        j = random_joint(rng)
        m = m_functional(j)
        assert m >= 1.0 - 1e-12
        if abs(m - 1.0) <= 1e-9:
            p_x = j.sum(axis=1)
            q_y = j.sum(axis=0)
            np.testing.assert_allclose(j, np.outer(p_x, q_y), atol=1e-8)


def test_lemma4_hand_cases():
    j = np.eye(2) * 0.5
    res = lemma4_check(j)
    assert res.lhs == pytest.approx(math.log(2.0), abs=1e-15)
    assert res.gap <= 1e-15
    assert priors_beating_log_m(j, res.rhs, seed=0) == 0
    j = np.outer([0.4, 0.6], [0.5, 0.5])
    res = lemma4_check(j)
    assert res.rhs == pytest.approx(0.0, abs=1e-12)
    assert priors_beating_log_m(j, res.rhs, seed=0) == 0


def test_lemma4_random_stress(rng):
    for i in range(50):
        j = random_joint(rng)
        res = lemma4_check(j)
        assert res.gap <= 1e-10
        assert priors_beating_log_m(j, res.rhs, seed=i) == 0


def test_gap_comparison_values():
    res = bound_gap_comparison(math.exp(math.e))
    expect = math.log(2.0 / 3.0) + math.log(1.0 + math.sqrt(1.0 + 9.0 / (2.0 * math.e)))
    assert res.diff == pytest.approx(expect, abs=1e-14)
    assert res.diff == pytest.approx(0.5614, abs=1e-4)
    with pytest.raises(ValueError):
        bound_gap_comparison(0.9)


def test_gap_comparison_sweep_below_one_nat():
    for x in np.geomspace(2.0, 1e6, 300):
        res = bound_gap_comparison(float(x))
        assert 0.0 < res.diff < 1.0
    # the crossover below which the gap exceeds one nat sits near x = 1.70
    assert bound_gap_comparison(1.6).diff > 1.0
    assert bound_gap_comparison(1.8).diff < 1.0


def test_gap_comparison_takes_an_array():
    # the CLI's sweep: one array call, each entry the scalar call's bits
    xs = np.geomspace(2.0, 1e6, 200)
    res = bound_gap_comparison(xs)
    for i, x in enumerate(xs.tolist()):
        one = bound_gap_comparison(x)
        assert all(type(v) is float for v in one)
        assert one == (res.ours[i], res.theirs[i], res.diff[i])
    with pytest.raises(ValueError, match="x must be greater than 1, got 1.0"):
        bound_gap_comparison(np.array([2.0, 1.0]))


def test_excess_dtilde_rejects_a_negative_rate(binary_hamming):
    with pytest.raises(ValueError, match="rate must be nonnegative"):
        excess_dtilde(binary_hamming, -0.1, 0.0)


@pytest.mark.parametrize("bad", [math.nan, -0.1, -math.inf])
def test_excess_rejects_a_nan_or_negative_threshold_and_rate(binary_hamming, bad):
    with pytest.raises(ValueError, match="d_th must be nonnegative"):
        excess_problem(binary_hamming, bad)
    with pytest.raises(ValueError, match="d_th must be nonnegative"):
        excess_rate(binary_hamming, 0.1, bad)
    with pytest.raises(ValueError, match="rate must be nonnegative"):
        excess_dtilde(binary_hamming, bad, 0.0)
