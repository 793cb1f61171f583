import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_problem, problems
from oneshotrd import (
    InvariantViolation,
    Problem,
    find_level,
    pairwise_correct,
    profile,
)
from oneshotrd.pairwise import accept_probability
from oracles import dtilde_of_u, pc_cdf


def pairwise_direct(problem, x, y, u):
    """Independent evaluation by explicit summation over the prior."""
    less = equal = 0.0
    for yp in range(problem.y_size):
        if problem.d[x, yp] < problem.d[x, y]:
            less += problem.q_y[yp]
        elif problem.d[x, yp] == problem.d[x, y]:
            equal += problem.q_y[yp]
    return less + u * equal


def test_profile_binary_hamming(binary_hamming):
    prof = profile(binary_hamming, 0)
    np.testing.assert_array_equal(prof.levels, [0.0, 1.0])
    np.testing.assert_array_equal(prof.masses, [0.5, 0.5])
    np.testing.assert_array_equal(prof.cumulative, [0.0, 0.5, 1.0])


def test_profile_single_support_letter():
    p = Problem([1.0], [1.0, 0.0], [[0.0, 1.0]])
    prof = profile(p, 0)
    np.testing.assert_array_equal(prof.levels, [0.0])
    np.testing.assert_array_equal(prof.masses, [1.0])


def test_profile_constant_row():
    p = Problem([1.0], [0.25, 0.75], [[0.7, 0.7]])
    prof = profile(p, 0)
    np.testing.assert_array_equal(prof.levels, [0.7])
    np.testing.assert_array_equal(prof.masses, [1.0])


def test_profile_requires_prior_support():
    p = Problem([1.0], [0.0, 0.0], [[0.0, 1.0]])
    with pytest.raises(InvariantViolation, match="support"):
        profile(p, 0)


def test_profile_invariants_random(rng):
    for _ in range(30):
        p = make_random_problem(rng)
        for x in range(p.x_size):
            prof = profile(p, x)
            assert np.all(np.diff(prof.levels) > 0)
            assert np.all(prof.masses > 0)
            assert abs(prof.cumulative[-1] - 1.0) <= 1e-12
            assert np.all(np.diff(prof.cumulative) >= 0)


def test_pairwise_correct_hand_values(binary_hamming):
    assert pairwise_correct(binary_hamming, 0, 0, 0.5) == 0.25
    assert pairwise_correct(binary_hamming, 0, 1, 0.0) == 0.5
    assert pairwise_correct(binary_hamming, 1, 0, 1.0) == 1.0


def test_pairwise_correct_rejects_bad_u(binary_hamming):
    with pytest.raises(ValueError):
        pairwise_correct(binary_hamming, 0, 0, 1.5)


def test_pairwise_correct_matches_direct_sum(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        for _ in range(10):
            x = int(rng.integers(p.x_size))
            y = int(rng.integers(p.y_size))
            u = float(rng.random())
            assert pairwise_correct(p, x, y, u) == pytest.approx(
                pairwise_direct(p, x, y, u), abs=1e-14
            )


def test_find_level_hand_case(binary_hamming):
    assert find_level(binary_hamming, 0, 0.75) == (1, 0.5)


def test_find_level_extremes(binary_hamming):
    y0, tau0 = find_level(binary_hamming, 0, 0.0)
    assert (y0, tau0) == (0, 0.0)
    y1, tau1 = find_level(binary_hamming, 0, 1.0)
    assert binary_hamming.d[0, y1] == 1.0 and tau1 == 1.0


def test_find_level_prefers_smallest_index_on_ties():
    p = Problem([1.0], [0.25, 0.25, 0.5], [[1.0, 1.0, 0.0]])
    y, _ = find_level(p, 0, 0.9)
    assert y == 0  # both y=0 and y=1 sit at distortion 1; smallest index wins


def test_find_level_inverts_pairwise_correct(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        for w in rng.random(10):
            x = int(rng.integers(p.x_size))
            y, tau = find_level(p, x, float(w))
            assert p.q_y[y] > 0
            assert pairwise_correct(p, x, y, tau) == pytest.approx(w, abs=1e-12)


def test_dtilde_of_u_hand_values(binary_hamming):
    assert dtilde_of_u(binary_hamming, 0, 0.25) == 0.0
    assert dtilde_of_u(binary_hamming, 0, 0.75) == 1.0
    # exact breakpoint resolves to the lower level
    assert dtilde_of_u(binary_hamming, 0, 0.5) == 0.0


def test_dtilde_of_u_constant_row():
    p = Problem([1.0], [0.3, 0.7], [[0.4, 0.4]])
    for u in (0.0, 0.3, 1.0):
        assert dtilde_of_u(p, 0, u) == 0.4


def test_dtilde_of_u_consistent_with_pairwise(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        for _ in range(10):
            x = int(rng.integers(p.x_size))
            y = int(rng.integers(p.y_size))
            if p.q_y[y] == 0:
                continue
            u = float(rng.uniform(0.01, 0.99))
            assert dtilde_of_u(p, x, pairwise_correct(p, x, y, u)) == p.d[x, y]


def test_order_preservation_intervals(rng):
    # supports of p_c for distinct distortion values may touch but not overlap
    for _ in range(20):
        p = make_random_problem(rng)
        for x in range(p.x_size):
            sup = np.flatnonzero(p.q_y > 0)
            lo = np.array([pairwise_correct(p, x, int(y), 0.0) for y in sup])
            hi = np.array([pairwise_correct(p, x, int(y), 1.0) for y in sup])
            order = np.argsort(p.d[x, sup], kind="stable")
            for a, b in zip(order[:-1], order[1:]):
                if p.d[x, sup[a]] == p.d[x, sup[b]]:
                    assert lo[a] == lo[b] and hi[a] == hi[b]
                else:
                    assert hi[a] <= lo[b] + 1e-15


def test_pc_cdf_is_identity(rng, binary_hamming):
    assert pc_cdf(binary_hamming, 0, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert pc_cdf(binary_hamming, 0, 0.0) == 0.0
    assert pc_cdf(binary_hamming, 1, 1.0) == pytest.approx(1.0, abs=1e-15)
    for _ in range(20):
        p = make_random_problem(rng)
        for x in range(p.x_size):
            for w in np.linspace(0.0, 1.0, 101):
                assert abs(pc_cdf(p, x, float(w)) - w) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(problem=problems(), drawn=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_pc_uniformity_through_the_exact_cdf(problem, drawn):
    # p_c(x, Y, U) is uniform: its CDF is w at every cumulative mass of the
    # profile, on either side of it and between
    for x in range(problem.x_size):
        cum = profile(problem, x).cumulative
        points = np.concatenate([cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0),
                                 drawn])
        for w in np.clip(points, 0.0, 1.0):
            assert abs(pc_cdf(problem, x, float(w)) - w) <= 1e-12


def test_accept_probability_rows(binary_hamming):
    a = accept_probability(binary_hamming, 0.75)
    np.testing.assert_allclose(a, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_accept_probability_step_for_zero_tie_mass():
    # y=1 has no prior mass and a distortion value shared by no supported letter
    p = Problem([1.0], [1.0, 0.0], [[0.0, 0.5]])
    a = accept_probability(p, 0.4)
    assert a[0, 0] == pytest.approx(0.4)
    assert a[0, 1] == 0.0  # strict-below mass is 1 > w, step rejects
    assert accept_probability(p, 1.0)[0, 1] == 1.0
