import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LEVEL_CASES, make_random_problem, nonbreakpoint_w, problems, quarter_problems
from oneshotrd import (
    Problem,
    build_dtilde1,
    dtilde,
    dtilde1,
    dtilde1_for_prior,
    dtilde_for_prior,
    dtilde_inverse,
    rtilde,
    test_channel as packing_channel,
)
from oneshotrd.dtilde import fill_thresholds
from oracles import build_dtilde1_by_rows, dtilde_of_u, validate_channel


def dtilde1_direct(problem, w):
    """Independent oracle: E[d * Pr_U{p_c <= w}] summed entry by entry."""
    total = 0.0
    for x in range(problem.x_size):
        for y in range(problem.y_size):
            if problem.q_y[y] == 0:
                continue
            less = sum(problem.q_y[yp] for yp in range(problem.y_size)
                       if problem.d[x, yp] < problem.d[x, y])
            tie = sum(problem.q_y[yp] for yp in range(problem.y_size)
                      if problem.d[x, yp] == problem.d[x, y])
            accept = min(max((w - less) / tie, 0.0), 1.0)
            total += problem.p_x[x] * problem.q_y[y] * problem.d[x, y] * accept
    return total


def test_build_binary_hamming(binary_hamming):
    pw = build_dtilde1(binary_hamming)
    np.testing.assert_array_equal(pw.breakpoints, [0.0, 0.5, 1.0])
    assert pw.value(0.25) == 0.0
    assert pw.value(0.75) == pytest.approx(0.25, abs=1e-15)
    assert pw.value(1.0) == pytest.approx(0.5, abs=1e-15)


def test_build_constant_distortion():
    p = Problem([0.4, 0.6], [0.5, 0.5], [[0.7, 0.7], [0.7, 0.7]])
    pw = build_dtilde1(p)
    for w in (0.0, 0.3, 1.0):
        assert pw.value(w) == pytest.approx(0.7 * w, abs=1e-15)


def test_build_point_mass_prior():
    p = Problem([0.25, 0.75], [0.0, 1.0], [[0.2, 0.9], [0.4, 0.1]])
    expect = 0.25 * 0.9 + 0.75 * 0.1
    for w in (0.1, 0.6, 1.0):
        assert dtilde1(p, w) == pytest.approx(expect * w, abs=1e-14)


def test_pwl_invariants_random(rng):
    for _ in range(30):
        p = make_random_problem(rng)
        pw = build_dtilde1(p)
        assert pw.breakpoints[0] == 0.0 and pw.breakpoints[-1] == 1.0
        assert np.all(np.diff(pw.breakpoints) > 0)
        assert pw.value(0.0) == 0.0
        assert np.all(np.diff(pw.slopes) >= -1e-12)
        assert np.all(pw.intercepts <= 1e-12)
        inner = pw.breakpoints[1:-1]
        left = pw.intercepts[:-1] + pw.slopes[:-1] * inner
        right = pw.intercepts[1:] + pw.slopes[1:] * inner
        assert np.max(np.abs(left - right), initial=0.0) <= 1e-12


def test_dtilde1_matches_direct_sum(rng):
    for _ in range(25):
        p = make_random_problem(rng)
        for w in rng.random(4):
            w = float(w)
            assert dtilde1(p, w) == pytest.approx(dtilde1_direct(p, w), abs=1e-12)
            assert dtilde1_for_prior(p, w, p.q_y) == pytest.approx(
                dtilde1_direct(p, w), abs=1e-12
            )


def test_dtilde_hand_values(binary_hamming):
    assert dtilde(binary_hamming, 0.75) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert dtilde(binary_hamming, 1.0) == 0.5
    assert dtilde(binary_hamming, 0.5) == 0.0
    assert dtilde(binary_hamming, 0.0) == 0.0  # right limit


def test_dtilde_right_limit_is_expected_min():
    p = Problem([0.5, 0.5], [0.5, 0.5], [[0.2, 0.8], [0.6, 0.4]])
    assert dtilde(p, 0.0) == pytest.approx(0.5 * 0.2 + 0.5 * 0.4)


def test_dtilde_rejects_out_of_range(binary_hamming):
    with pytest.raises(ValueError):
        dtilde(binary_hamming, -0.1)
    with pytest.raises(ValueError):
        dtilde(binary_hamming, 1.1)


def test_dtilde_monotone_and_continuous(rng):
    for _ in range(15):
        p = make_random_problem(rng)
        grid = np.linspace(1e-9, 1.0, 400)
        vals = np.array([dtilde(p, float(w)) for w in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.max(np.abs(np.diff(vals))) < p.d_max * 0.15  # no jumps


def test_w_times_dtilde_is_dtilde1(rng):
    for _ in range(15):
        p = make_random_problem(rng)
        for w in rng.uniform(0.01, 1.0, 5):
            w = float(w)
            assert w * dtilde(p, w) == pytest.approx(dtilde1(p, w), abs=1e-15)


def test_convexity_in_prior(rng):
    for _ in range(40):
        p = make_random_problem(rng)
        q0 = rng.dirichlet(np.ones(p.y_size))
        q1 = rng.dirichlet(np.ones(p.y_size))
        lam = float(rng.random())
        w = float(rng.uniform(0.05, 1.0))
        mix = lam * q0 + (1 - lam) * q1
        assert dtilde_for_prior(p, w, mix) <= (
            lam * dtilde_for_prior(p, w, q0)
            + (1 - lam) * dtilde_for_prior(p, w, q1)
            + 1e-10
        )


def test_for_prior_agrees_with_profile_route(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        w = float(rng.uniform(0.01, 1.0))
        assert dtilde_for_prior(p, w, p.q_y) == pytest.approx(dtilde(p, w), abs=1e-13)


def test_inverse_hand_values(binary_hamming):
    assert dtilde_inverse(binary_hamming, 1.0 / 3.0) == pytest.approx(0.75, abs=1e-12)
    assert dtilde_inverse(binary_hamming, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert dtilde_inverse(binary_hamming, 0.0) == 0.0


def test_inverse_flat_top():
    # prior mass only on the best column: dtilde is flat, inverse returns 0
    p = Problem([1.0], [1.0, 0.0], [[0.3, 0.9]])
    assert dtilde(p, 1.0) == pytest.approx(0.3)
    assert dtilde_inverse(p, 0.3) == 0.0


def test_inverse_rejects_out_of_range(binary_hamming):
    with pytest.raises(ValueError):
        dtilde_inverse(binary_hamming, 0.6)
    with pytest.raises(ValueError):
        dtilde_inverse(binary_hamming, -0.1)


def test_inverse_is_right_inverse(rng):
    for _ in range(25):
        p = make_random_problem(rng)
        lo, hi = dtilde(p, 0.0), dtilde(p, 1.0)
        if hi - lo < 1e-6:
            continue
        for z in rng.uniform(lo, hi, 6):
            z = float(z)
            w = dtilde_inverse(p, z)
            assert dtilde(p, max(w, 1e-300)) >= z - 1e-12
            for wp in np.linspace(1e-9, w - 1e-9, 7):
                assert dtilde(p, float(wp)) < z + 1e-12


def test_rtilde_values(binary_hamming):
    assert rtilde(binary_hamming, 1.0 / 3.0) == pytest.approx(np.log(4.0 / 3.0), abs=1e-10)
    assert rtilde(binary_hamming, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert rtilde(binary_hamming, 0.0) == np.inf


def test_rtilde_infinite_below_dtilde_zero():
    # every source letter pays at least 0.5 on the support: dtilde(0) = 0.5
    p = Problem([0.5, 0.5], [0.5, 0.5], [[0.5, 1.0], [1.0, 0.5]])
    assert dtilde(p, 0.0) == 0.5
    assert rtilde(p, 0.2) == np.inf
    assert rtilde(p, 0.5 - 1e-9) == np.inf
    assert np.isfinite(rtilde(p, 0.6))


def test_rtilde_finite_one_rounding_step_above_dtilde_zero():
    # the first segment is flat at dtilde(0) = 0.1 up to w = 0.1, where
    # dtilde1(w) / w rounds one step above 0.1; that z lies on the next
    # segment, at its left edge, so the rate is finite
    p = Problem([0.1, 0.9], [0.1, 0.9], [[0.1, 1.3], [1.3, 0.1]])
    pw = build_dtilde1(p)
    z = float(pw.value(pw.breakpoints[1]) / pw.breakpoints[1])
    assert z > dtilde(p, 0.0)
    assert dtilde_inverse(p, z) == pytest.approx(0.1, abs=1e-15)
    assert rtilde(p, z) == -math.log(0.1)


def _levels_above_floor(problem, data):
    """z values in (dtilde(0), dtilde(1)]: every breakpoint value, the next
    float above dtilde(0), dtilde(1) and a drawn point between."""
    pw = build_dtilde1(problem)
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    zs = [float(z) for z in pw.value(pw.breakpoints[1:]) / pw.breakpoints[1:]]
    zs += [math.nextafter(lo, math.inf), hi,
           lo + data.draw(st.floats(0.0, 1.0)) * (hi - lo)]
    return [z for z in zs if lo < z <= hi]


@settings(max_examples=300, deadline=None)
@given(problem=problems(), data=st.data())
def test_inverse_round_trips_with_finite_rate_above_dtilde_zero(problem, data):
    for z in _levels_above_floor(problem, data):
        w = dtilde_inverse(problem, z)
        assert 0.0 < w <= 1.0
        assert abs(dtilde(problem, w) - z) <= 1e-12, z
        assert math.isfinite(rtilde(problem, z)), z


def test_test_channel_hand_case(binary_hamming):
    ch = packing_channel(binary_hamming, 0.75)
    np.testing.assert_allclose(ch.w, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)
    ch1 = packing_channel(binary_hamming, 1.0)
    np.testing.assert_allclose(ch1.w, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_test_channel_saturates_at_common_breakpoint(binary_hamming):
    ch = packing_channel(binary_hamming, 0.5)
    np.testing.assert_allclose(ch.w, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_test_channel_rows_and_average(rng):
    for _ in range(25):
        p = make_random_problem(rng)
        w = float(rng.uniform(0.05, 1.0))
        ch = packing_channel(p, w)
        validate_channel(ch)
        avg = float(np.sum(p.p_x[:, None] * ch.w * p.d))
        assert avg == pytest.approx(dtilde(p, w), abs=1e-12)


def test_fill_thresholds_match_quantile_levels(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        w = nonbreakpoint_w(p, rng)
        theta = fill_thresholds(p, w, p.q_y)
        for x in range(p.x_size):
            assert theta[x] == dtilde_of_u(p, x, w)


def _assert_sweep_matches_rows(problem):
    new, old = build_dtilde1(problem), build_dtilde1_by_rows(problem)
    assert new.breakpoints.size == old.breakpoints.size
    for name in ("breakpoints", "slopes", "intercepts"):
        np.testing.assert_allclose(getattr(new, name), getattr(old, name),
                                   rtol=0.0, atol=1e-13, err_msg=name)
    assert np.all(np.diff(new.slopes) >= 0.0)


@settings(max_examples=150, deadline=None)
@given(problem=problems() | quarter_problems())
def test_sweep_matches_the_per_row_build(problem):
    _assert_sweep_matches_rows(problem)


@pytest.mark.parametrize("case", sorted(LEVEL_CASES))
def test_sweep_matches_the_per_row_build_on_named_cases(case):
    _assert_sweep_matches_rows(Problem(*LEVEL_CASES[case]))


def test_sweep_on_a_zero_mass_head():
    # row 0 sits at 0.1 up to w = 0.5, row 1 at 0.3; both then rise
    pw = build_dtilde1(Problem(*LEVEL_CASES["zero_mass_head"]))
    np.testing.assert_array_equal(pw.breakpoints, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(pw.slopes, [0.4 * 0.1 + 0.6 * 0.3, 0.4 * 0.8 + 0.6 * 0.5],
                               rtol=0.0, atol=1e-15)
