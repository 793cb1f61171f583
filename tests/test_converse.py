import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oneshotrd.converse as converse_mod
from conftest import dense_prior_lp, make_random_problem, nonbreakpoint_w, simplex_grid
from oneshotrd import (
    Code,
    Problem,
    code_distortion,
    code_prior,
    converse_equality_check,
    dhat_sandwich,
    dtilde_for_prior,
    dtilde_subgradient,
    exact_expected_distortion,
    f_of,
    optimal_encoder,
    optimize_prior,
    test_channel as packing_channel,
)
from oneshotrd.converse import SANDWICH_SLACKS, _dual_bound, _lp_size


def random_code(rng, problem, max_m=6):
    m = int(rng.integers(1, max_m + 1))
    return Code(tuple(int(y) for y in rng.integers(0, problem.y_size, m)))


def test_code_prior_counts_multiplicity(binary_hamming):
    np.testing.assert_array_equal(code_prior(binary_hamming, Code((0, 1))), [0.5, 0.5])
    np.testing.assert_allclose(
        code_prior(binary_hamming, Code((0, 0, 1))), [2 / 3, 1 / 3]
    )
    np.testing.assert_array_equal(code_prior(binary_hamming, Code((1,))), [0.0, 1.0])


def test_code_prior_rejects_bad_codes(binary_hamming):
    with pytest.raises(ValueError):
        code_prior(binary_hamming, Code(()))
    with pytest.raises(ValueError):
        code_prior(binary_hamming, Code((2,)))


@pytest.mark.parametrize("fn", [code_prior, code_distortion, optimal_encoder])
@pytest.mark.parametrize("members", [(), (-1,), (2,), (0, 2)])
def test_code_members_checked_by_every_code_function(binary_hamming, fn, members):
    # a negative index would otherwise wrap to the last column
    with pytest.raises(ValueError):
        fn(binary_hamming, Code(members))


def test_optimal_encoder_unique_minimizer(binary_hamming):
    enc = optimal_encoder(binary_hamming, Code((0, 1)))
    np.testing.assert_array_equal(enc.w, [[1.0, 0.0], [0.0, 1.0]])


def test_optimal_encoder_full_tie():
    p = Problem([0.5, 0.5], [0.5, 0.5], [[0.3, 0.3], [0.3, 0.3]])
    enc = optimal_encoder(p, Code((0, 1)))
    np.testing.assert_array_equal(enc.w, [[0.5, 0.5], [0.5, 0.5]])


def test_optimal_encoder_weights_repeats():
    p = Problem([1.0], [0.5, 0.5], [[0.2, 0.2]])
    enc = optimal_encoder(p, Code((0, 0, 1)))
    np.testing.assert_allclose(enc.w, [[2 / 3, 1 / 3]])


def test_optimal_encoder_equals_packing_channel(rng):
    for _ in range(30):
        p = make_random_problem(rng)
        code = random_code(rng, p)
        enc = optimal_encoder(p, code)
        prior = code_prior(p, code)
        chan = packing_channel(Problem(p.p_x, prior, p.d), 1.0 / code.M)
        np.testing.assert_allclose(enc.w, chan.w, atol=1e-12)


def test_code_distortion_hand_values(binary_hamming):
    assert code_distortion(binary_hamming, Code((0, 1))) == 0.0
    assert code_distortion(binary_hamming, Code((0,))) == 0.5


def test_code_distortion_matches_encoder_average(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        code = random_code(rng, p)
        enc = optimal_encoder(p, code)
        avg = float(np.sum(p.p_x[:, None] * enc.w * p.d))
        assert code_distortion(p, code) == pytest.approx(avg, abs=1e-12)


def test_converse_equality_hand_cases(binary_hamming):
    res = converse_equality_check(binary_hamming, Code((0, 1)))
    assert res == (0.0, 0.0, 0.0)
    res = converse_equality_check(binary_hamming, Code((0,)))
    assert res.lhs == pytest.approx(0.5) and res.gap <= 1e-12


def test_converse_equality_random_stress(rng):
    for _ in range(100):
        p = make_random_problem(rng)
        res = converse_equality_check(p, random_code(rng, p))
        assert res.gap <= 1e-10


def test_subgradient_matches_finite_differences(rng):
    checked = 0
    while checked < 20:
        p = make_random_problem(rng)
        q = rng.dirichlet(np.ones(p.y_size) * 3.0)
        prob_q = Problem(p.p_x, q, p.d)
        w = nonbreakpoint_w(prob_q, rng, lo=0.05, hi=0.95, margin=1e-3)
        g = dtilde_subgradient(p, w, q)
        h = 1e-6
        for y in range(p.y_size):
            e = np.zeros(p.y_size)
            e[y] = h
            fd = (dtilde_for_prior(p, w, q + e) - dtilde_for_prior(p, w, q - e)) / (2 * h)
            assert abs(fd - g[y]) <= 1e-4
        checked += 1


def test_subgradient_is_nonpositive(rng):
    # more prior mass anywhere can only improve the fill
    for _ in range(10):
        p = make_random_problem(rng)
        g = dtilde_subgradient(p, float(rng.uniform(0.05, 0.95)), p.q_y)
        assert np.all(g <= 1e-15)


def test_optimize_prior_binary_hamming(binary_hamming):
    res = optimize_prior(binary_hamming, math.log(2.0))
    assert res.value <= 1e-9
    np.testing.assert_allclose(res.q_star, [0.5, 0.5], atol=1e-6)
    assert res.dual_bound <= res.value
    assert res.certificate_gap <= 1e-9


def test_optimize_prior_zero_rate_picks_best_column(rng):
    for _ in range(5):
        p = make_random_problem(rng)
        res = optimize_prior(p, 0.0)
        best_col = float(np.min(p.p_x @ p.d))
        assert res.value == pytest.approx(best_col, abs=1e-8)
        assert res.dual_bound == pytest.approx(best_col, abs=1e-8)
        assert res.certificate_gap <= 1e-9


def test_optimize_prior_beats_grid(rng):
    for _ in range(8):
        p = make_random_problem(rng, ny=3)
        rate = float(rng.uniform(0.2, 2.0))
        res = optimize_prior(p, rate)
        grid_best = min(
            dtilde_for_prior(p, math.exp(-rate), q) for q in simplex_grid(3, 0.01)
        )
        assert res.value <= grid_best + 1e-9
        assert res.dual_bound <= grid_best + 1e-12
        assert res.certificate_gap == res.value - res.dual_bound
        assert res.certificate_gap <= 1e-9


def test_optimize_prior_large_rate_is_the_floor(rng):
    # e^60 and e^1000 exceed every alphabet (the latter overflows a float)
    for _ in range(5):
        p = make_random_problem(rng)
        floor = float(np.sum(p.p_x * p.d.min(axis=1)))
        for rate in (60.0, 1000.0):
            res = optimize_prior(p, rate)
            assert res.value == pytest.approx(floor, abs=1e-12)
            assert res.dual_bound == pytest.approx(floor, abs=1e-12)
            assert res.certificate_gap <= 1e-12


def test_optimize_prior_rejects_negative_rate(binary_hamming):
    with pytest.raises(ValueError):
        optimize_prior(binary_hamming, -0.5)
    for fn in (optimize_prior, dhat_sandwich):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(binary_hamming, math.nan)


def test_dhat_sandwich_is_the_floor_where_every_slack_rounds_away(rng):
    # 1e17 - t rounds back to 1e17 for every slack t, so the LP at the rate,
    # clamped at the floor sum_x p_x min_y d_xy, gives both bounds
    base = make_random_problem(rng, nx=4, ny=5)
    p = Problem(base.p_x, base.q_y, base.d + 0.5)
    floor = float(np.sum(p.p_x * p.d.min(axis=1)))
    res = optimize_prior(p, 1e17)
    assert res.value == pytest.approx(floor, abs=1e-12) and floor >= 0.5
    for rate in (1e17, math.inf):
        bounds = dhat_sandwich(p, rate)
        assert bounds.upper == res.value and bounds.slack is None
        assert bounds.lower == pytest.approx(res.value, abs=1e-12)


def test_dhat_sandwich_solves_each_lp_size_once(rng, monkeypatch):
    calls = []
    real = converse_mod.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(converse_mod, "linprog", counting)
    for rate in (0.0, 0.25, 0.5, 1.0, 1.5, 2.3, 3.0, 5.0):
        p = make_random_problem(rng)
        calls.clear()
        bounds = dhat_sandwich(p, rate)
        sizes = {_lp_size(p, rate)} | {_lp_size(p, rate - (rate - s)) for s in SANDWICH_SLACKS}
        assert len(calls) == len(sizes)
        # the bounds of one LP per slack, as solved before the dedup
        cands = {s: optimize_prior(p, rate - (rate - s)).value + p.d_max * f_of(rate - s)
                 for s in SANDWICH_SLACKS}
        assert bounds.upper == min(cands.values()) == cands[bounds.slack]
        assert bounds.lower == optimize_prior(p, rate).dual_bound


def test_converse_dominance_exhaustive(rng):
    for _ in range(8):
        p = make_random_problem(rng, nx=int(rng.integers(2, 5)), ny=int(rng.integers(2, 5)))
        for m in (2, 3):
            best = min(
                code_distortion(p, Code(c))
                for c in itertools.product(range(p.y_size), repeat=m)
            )
            res = optimize_prior(p, math.log(m))
            assert best >= res.value - 1e-9
            assert best >= res.dual_bound - 1e-12
            assert res.certificate_gap <= 1e-9


def test_dhat_sandwich_binary(binary_hamming):
    bounds = dhat_sandwich(binary_hamming, math.log(2.0))
    assert bounds.lower == pytest.approx(0.0, abs=1e-8)
    assert bounds.lower <= bounds.upper


def test_dhat_sandwich_zero_rate(binary_hamming):
    bounds = dhat_sandwich(binary_hamming, 0.0)
    assert bounds.lower <= bounds.upper + 1e-9


def test_dhat_sandwich_random(rng):
    for _ in range(4):
        p = make_random_problem(rng, nx=3, ny=3)
        for rate in (0.5, 1.0, 2.0):
            bounds = dhat_sandwich(p, rate)
            assert bounds.lower <= bounds.upper + 1e-9
            oracle = dense_prior_lp(p, math.exp(-rate))
            assert abs(bounds.lower - oracle) <= 1e-9


@pytest.mark.parametrize("seed, expected", [(0, 0.216), (1, 0.245), (2, 0.273)])
def test_dhat_sandwich_lower_is_the_lp_minimum_45x50(seed, expected):
    # above 2000 channel entries the lower bound once came from a heuristic
    # alone and overstated the minimum by about 0.1
    rng = np.random.default_rng(seed)
    p = Problem(rng.dirichlet(np.ones(45)), rng.dirichlet(np.ones(50)),
                rng.integers(0, 5, (45, 50)).astype(float))
    oracle = dense_prior_lp(p, math.exp(-1.0))
    lower = dhat_sandwich(p, 1.0).lower
    assert lower <= oracle + 1e-9
    assert abs(lower - oracle) <= 1e-9
    assert oracle == pytest.approx(expected, abs=5e-4)
    assert optimize_prior(p, 1.0).certificate_gap <= 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dual_bound_below_every_code(data):
    nx, ny, m = (data.draw(st.integers(1, hi)) for hi in (4, 4, 3))

    def vec(n, lo, hi):
        return np.array(data.draw(st.lists(
            st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)))

    p, q = vec(nx, 0.0, 1.0), vec(ny, 0.0, 1.0)
    assume(p.sum() > 0.01 and q.sum() > 0.01)
    d = vec(nx * ny, 0.0, 4.0).reshape(nx, ny)
    problem = Problem(p / p.sum(), q / q.sum(), d)
    best = min(code_distortion(problem, Code(c))
               for c in itertools.product(range(ny), repeat=m))
    rate = math.log(m)
    alpha = vec(nx, -4.0, 4.0)
    assert _dual_bound(problem, _lp_size(problem, rate), alpha) <= best + 1e-12
    res = optimize_prior(problem, rate)
    assert res.dual_bound <= best + 1e-12
    assert res.value <= best + 1e-9
    assert res.certificate_gap <= 1e-9
    assert best <= exact_expected_distortion(problem, m).exact_distortion + 1e-12
