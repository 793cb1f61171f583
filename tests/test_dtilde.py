import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LEVEL_CASES, make_random_problem, nonbreakpoint_w, problems, quarter_problems
from oneshotrd import (
    InvariantViolation,
    Problem,
    build_dtilde1,
    dtilde,
    dtilde1,
    dtilde_for_prior,
    dtilde_inverse,
    dtilde_subgradient,
    exact_expected_distortion,
    load_problem,
    rtilde,
    test_channel as packing_channel,
)
from oneshotrd.model import scaled_tol
from oracles import (
    build_dtilde1_by_rows, dtilde_exact, dtilde_of_u, exact_merge_shift, validate_channel,
)


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


def test_pieces_returns_the_segment_index(binary_hamming):
    # a breakpoint belongs to the segment it opens, and w = 1 to the last one
    pw = build_dtilde1(binary_hamming)
    assert pw.pieces(np.array([0.0, 0.25, 0.5, 0.75, 1.0])).tolist() == [0, 0, 1, 1, 1]


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
        # convex through the origin: each segment's slope is at least
        # dtilde1(b) / b at its left end b
        assert np.all(pw.values[:-1] <= pw.slopes * pw.breakpoints[:-1] + 1e-12)
        # each segment ends at the value the next one opens with
        left = pw.values[:-1] + pw.slopes * np.diff(pw.breakpoints)
        assert np.max(np.abs(left - pw.values[1:]), initial=0.0) <= 1e-12


def test_dtilde1_matches_direct_sum(rng):
    for _ in range(25):
        p = make_random_problem(rng)
        for w in rng.random(4):
            w = float(w)
            assert dtilde1(p, w) == pytest.approx(dtilde1_direct(p, w), abs=1e-12)
            assert w * dtilde_for_prior(p, w, p.q_y) == pytest.approx(
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
    np.testing.assert_allclose(ch, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)
    ch1 = packing_channel(binary_hamming, 1.0)
    np.testing.assert_allclose(ch1, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_test_channel_saturates_at_common_breakpoint(binary_hamming):
    ch = packing_channel(binary_hamming, 0.5)
    np.testing.assert_allclose(ch, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_test_channel_rows_and_average(rng):
    for _ in range(25):
        p = make_random_problem(rng)
        w = float(rng.uniform(0.05, 1.0))
        ch = packing_channel(p, w)
        validate_channel(ch)
        avg = float(np.sum(p.p_x[:, None] * ch * p.d))
        assert avg == pytest.approx(dtilde(p, w), abs=1e-12)


def test_fill_thresholds_match_quantile_levels(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        w = nonbreakpoint_w(p, rng)
        # the subgradient whose fill stops at each row's level-w quantile
        theta = np.array([dtilde_of_u(p, x, w) for x in range(p.x_size)])
        gain = np.maximum(theta[:, None] - p.d, 0.0)
        assert np.array_equal(dtilde_subgradient(p, w, p.q_y),
                              -np.sum(p.p_x[:, None] * gain, axis=0) / w)


def _assert_sweep_matches_rows(problem):
    new, old = build_dtilde1(problem), build_dtilde1_by_rows(problem)
    assert new.breakpoints.size == old.breakpoints.size
    for name in ("breakpoints", "slopes", "values"):
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


def _quantile_grid(problem, drawn):
    """Sorted quantiles: 0, subnormals, a point inside the first segment,
    every breakpoint with its neighbours, drawn points and 1."""
    bp = build_dtilde1(problem).breakpoints
    ws = [0.0, 5e-324, 1e-310, sys.float_info.min, bp[1] / 2, 1.0]
    ws += [v for b in bp for v in (math.nextafter(b, 0.0), b, math.nextafter(b, 1.0))]
    return np.unique(np.clip(ws + drawn, 0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(problem=problems() | quarter_problems(),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=8))
# a mass of exactly the smallest normal double, the least validate() admits,
# opens a segment as the fill sees it: dtilde(0) is 0, not 0.25
@example(problem=Problem([1], [0, sys.float_info.min, 1], [[0, 0, 0.25]]), drawn=[1e-300])
def test_one_evaluation_route_for_dtilde(problem, drawn):
    ws = _quantile_grid(problem, drawn)
    vals, vals1 = dtilde(problem, ws), dtilde1(problem, ws)
    # the array call is the scalar call, entry by entry, bit for bit
    assert [dtilde(problem, float(w)) for w in ws] == vals.tolist()
    assert [dtilde1(problem, float(w)) for w in ws] == vals1.tolist()
    # the right limit is exact at 0, at subnormal w and inside the first segment
    pw = build_dtilde1(problem)
    for w in (0.0, 5e-324, 1e-310, float(pw.breakpoints[1] / 2)):
        assert dtilde(problem, w) == pw.slopes[0], w
    # nondecreasing up to rounding: the first segment reads its slope s, and
    # the next one opens at fl(fl(s b) / b), which can be an ulp below s;
    # inside a segment each value is a few roundings of nonnegative terms
    assert np.all(np.diff(vals) >= -1e-13 * problem.d.max())
    # the fill for q_y is the same function, w = 0 included, for priors
    # without subnormal masses, which build_dtilde1 merges (see
    # BREAKPOINT_MERGE_TOL) and the fill does not
    if np.all((problem.q_y == 0.0) | (problem.q_y >= sys.float_info.min)):
        fill = [dtilde_for_prior(problem, float(w), problem.q_y) for w in ws]
        np.testing.assert_allclose(fill, vals, rtol=0.0, atol=1e-12)


_HEX = float.fromhex
_Q1 = _HEX("0x1.dfc6f5250e350p-3")


@settings(max_examples=150, deadline=None)
@given(problem=problems() | quarter_problems(), scale=st.floats(-3.0, 3.0),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=4))
# at its breakpoint 0x1.14e902073f4ccp-2 the intercept form c / w + s read
# -8.67e-19, where the exact fill gives +3.89e-19
@example(problem=Problem(
    [_HEX("0x1.83d664bb07e83p-1"), 0, _HEX("0x1.da6a2ee52645dp-4"), _HEX("0x1.037155a14d3c1p-3")],
    [_HEX(h) for h in ("0x1.3221995d67986p-5", "0x1.dd499db724b36p-3", "0x1.c184dacc3bbebp-4",
                       "0x1.2f8315e0d482ap-2", "0x1.4b32b164dd40fp-2")],
    [[0, 0, .04, .03, .01], [0, .02, .03, .02, .02], [.01, .03, .02, .04, 0],
     [.01, 0, .02, 0, .03]]), scale=0.0, drawn=[])
# dtilde(q1) is 0.5625; the intercept form read 0.5624999999999996
@example(problem=Problem([1, 0], [0, 1 - _Q1, _Q1], [[0, 2.375, 0.5625], [0, 0, 0]]),
         scale=0.0, drawn=[])
# at b = 23/39, in the intercept form, the segment that closes there read
# 0.021739130434782532 and the one that opens there 0.021739130434782483
@example(problem=Problem([1, 0, 0, 0], np.array([0, 0, 0.4375, 1, 1]) / 2.4375,
                         [[0, 0, 0, 1, 0.03125]] + [[0] * 5] * 3), scale=0.0, drawn=[])
def test_dtilde_is_nonnegative_and_continuous_and_near_the_exact_fill(problem, scale, drawn):
    problem = Problem(problem.p_x, problem.q_y, problem.d * 10.0**scale)
    ws = _quantile_grid(problem, drawn)
    vals = dtilde(problem, ws)
    assert np.all(vals >= 0.0), ws[vals < 0.0]
    # the segment that closes at each inner breakpoint b gives dtilde(b), bit for bit
    pw = build_dtilde1(problem)
    inner = pw.breakpoints[1:-1]
    closing = (pw.values[:-2] + pw.slopes[:-1] * np.diff(pw.breakpoints[:-1])) / inner
    assert closing.tolist() == dtilde(problem, inner).tolist()
    # within 8 roundings in the scale of d of the exact fill, for the priors
    # that validate() admits (build_dtilde1 merges a subnormal mass), plus
    # the shift of breakpoints that build_dtilde1 merges, exact ones within
    # about y_size roundings of each other.
    # Not of dtilde(1): with p = [1], q = [1, 128] / 129 and d = [[0.5, 0]]
    # the float masses sum to 1 - 2^-56 but the last segment runs to 1, so
    # dtilde(1) reads 6.9e-18, 16 roundings of itself, above the exact fill
    if np.all((problem.q_y == 0.0) | (problem.q_y >= sys.float_info.min)):
        err = np.abs(vals - np.array(dtilde_exact(problem, ws), dtype=float))
        tol = scaled_tol(problem, 8 * 2.0**-53 + exact_merge_shift(problem))
        # and the standard model's underflow term, the smallest subnormal per
        # rounding, divided by w where dtilde divides
        tol += problem.d.size * 2.0**-1074 / np.where(ws < pw.breakpoints[1], 1.0, ws)
        assert np.all(err <= tol), (ws[np.argmax(err)], err.max())


def test_a_real_mass_at_the_top_of_a_row_opens_its_segment():
    # the level at 0.25 starts at 1 - 1e-14 and ends at 1: a real mass, not the
    # rounding of a row's sum, so neither dtilde(1) nor the average of a
    # one-word code reads 0 where the exact value sum p q d is 2.5e-15
    problem = Problem([1.0], np.array([1e-14, 1.0]) / (1 + 1e-14), [[0.25, 0.0]])
    assert build_dtilde1(problem).breakpoints.size == 3
    exact = float(dtilde_exact(problem, [1.0])[0])
    assert dtilde(problem, 1.0) == pytest.approx(exact, rel=1e-12)
    assert exact_expected_distortion(problem, 1) == pytest.approx(exact, rel=1e-12)


def test_dtilde_reads_the_right_limit_at_a_subnormal_w():
    # dtilde1(w) = s w is subnormal at w = 4.2e-322 and has lost digits;
    # the first segment reads its slope s instead
    problem = load_problem(Path(__file__).parent / "golden" / "integer_6x5.json")
    assert dtilde(problem, 4.2e-322) == dtilde(problem, 0.0) == 0.6224780106231073


def test_for_prior_checks_w_and_support(binary_hamming):
    with pytest.raises(ValueError, match=r"w must be in \[0, 1\]"):
        dtilde_for_prior(binary_hamming, -1e-300, binary_hamming.q_y)
    for w in (0.0, 0.5):
        with pytest.raises(InvariantViolation):
            dtilde_for_prior(binary_hamming, w, np.zeros(2))


@pytest.mark.parametrize("w", [2.0, math.inf, math.nan])
def test_for_prior_rejects_w_outside_the_unit_interval(w):
    # the fill read 1.1513 at w = 2 and 0 at w = inf on this instance
    problem = load_problem(Path(__file__).parent / "golden" / "integer_6x5.json")
    for evaluate in (dtilde, lambda p, v: dtilde_for_prior(p, v, p.q_y)):
        with pytest.raises(ValueError, match=rf"w must be in \[0, 1\], got {w}"):
            evaluate(problem, w)


def test_for_prior_right_limit_is_the_min_over_its_support():
    p = Problem([0.5, 0.5], [0.5, 0.5], [[0.2, 0.8], [0.6, 0.4]])
    assert dtilde_for_prior(p, 0.0, [0.0, 2.0]) == 0.5 * 0.8 + 0.5 * 0.4
    assert dtilde_for_prior(p, 0.0, p.q_y) == dtilde(p, 0.0)


def test_build_rejects_a_prior_without_support():
    with pytest.raises(InvariantViolation, match="empty support"):
        build_dtilde1(Problem([1.0], [0.0, 0.0], [[0.1, 0.2]]))
