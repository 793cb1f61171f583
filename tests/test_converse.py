import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oneshotrd.converse as converse_mod
from conftest import (
    dense_prior_lp, make_random_problem, nonbreakpoint_w, problems, quarter_problems,
    simplex_grid,
)
from oneshotrd import (
    Problem,
    code_distortion,
    code_prior,
    converse_equality_check,
    dhat_sandwich,
    dtilde_for_prior,
    dtilde_subgradient,
    exact_expected_distortion,
    inf_form_value,
    load_problem,
    optimal_encoder,
    optimize_prior,
    test_channel as packing_channel,
)
from oneshotrd.converse import (
    EQUALITY_TOL, _dual_bound, _lp_size, product_prior_experiment,
)
from oracles import (
    best_code_distortion, kmedian_lp_by_levels_linprog, kmedian_lp_per_letter,
    product_prior_three_stage,
)


def instance_45x50(seed=0):
    """A 45x50 instance with integer d; at seed 0, the converse-sandwich
    benchmark's fixed one."""
    g = np.random.default_rng(seed)
    return Problem(g.dirichlet(np.ones(45)), g.dirichlet(np.ones(50)),
                   g.integers(0, 5, (45, 50)).astype(float))


def random_code(rng, problem, max_m=6):
    m = int(rng.integers(1, max_m + 1))
    return rng.integers(0, problem.y_size, m)


def test_code_prior_counts_multiplicity(binary_hamming):
    np.testing.assert_array_equal(code_prior(binary_hamming, (0, 1)), [0.5, 0.5])
    np.testing.assert_allclose(
        code_prior(binary_hamming, (0, 0, 1)), [2 / 3, 1 / 3]
    )
    np.testing.assert_array_equal(code_prior(binary_hamming, (1,)), [0.0, 1.0])


def test_code_prior_rejects_bad_codes(binary_hamming):
    with pytest.raises(ValueError):
        code_prior(binary_hamming, ())
    with pytest.raises(ValueError):
        code_prior(binary_hamming, (2,))
    # a letter that is not an integer is rejected, not truncated
    for fn in (code_prior, code_distortion):
        for code in ((0.7, 1.9), [0.7], [np.nan], [np.inf]):
            with pytest.raises(ValueError, match="integers"):
                fn(binary_hamming, code)
    np.testing.assert_array_equal(code_prior(binary_hamming, [1.0, 0.0]), [0.5, 0.5])


def test_returned_channels_are_read_only(binary_hamming):
    for chan in (packing_channel(binary_hamming, 0.75),
                 optimal_encoder(binary_hamming, [0, 1]),
                 inf_form_value(binary_hamming, 0.5).channel):
        assert chan.shape == (2, 2) and chan.dtype == float
        assert not chan.flags.writeable
        with pytest.raises(ValueError):
            chan[0, 0] = 1.0


@pytest.mark.parametrize("fn", [code_prior, code_distortion, optimal_encoder])
@pytest.mark.parametrize("members", [(), (-1,), (2,), (0, 2), [[0, 1]]])
def test_code_members_checked_by_every_code_function(binary_hamming, fn, members):
    # a negative index would otherwise wrap to the last column, and
    # code_distortion would read the 2-D code [[0, 1]] as 1.0
    with pytest.raises(ValueError):
        fn(binary_hamming, members)


def test_optimal_encoder_unique_minimizer(binary_hamming):
    enc = optimal_encoder(binary_hamming, (0, 1))
    np.testing.assert_array_equal(enc, [[1.0, 0.0], [0.0, 1.0]])


def test_optimal_encoder_full_tie():
    p = Problem([0.5, 0.5], [0.5, 0.5], [[0.3, 0.3], [0.3, 0.3]])
    enc = optimal_encoder(p, (0, 1))
    np.testing.assert_array_equal(enc, [[0.5, 0.5], [0.5, 0.5]])


def test_optimal_encoder_weights_repeats():
    p = Problem([1.0], [0.5, 0.5], [[0.2, 0.2]])
    enc = optimal_encoder(p, (0, 0, 1))
    np.testing.assert_allclose(enc, [[2 / 3, 1 / 3]])


def test_optimal_encoder_equals_packing_channel(rng):
    for _ in range(30):
        p = make_random_problem(rng)
        code = random_code(rng, p)
        enc = optimal_encoder(p, code)
        prior = code_prior(p, code)
        chan = packing_channel(Problem(p.p_x, prior, p.d), 1.0 / len(code))
        np.testing.assert_allclose(enc, chan, atol=1e-12)


def test_code_distortion_hand_values(binary_hamming):
    assert code_distortion(binary_hamming, (0, 1)) == 0.0
    assert code_distortion(binary_hamming, (0,)) == 0.5


def test_code_distortion_matches_encoder_average(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        code = random_code(rng, p)
        enc = optimal_encoder(p, code)
        avg = float(np.sum(p.p_x[:, None] * enc * p.d))
        assert code_distortion(p, code) == pytest.approx(avg, abs=1e-12)


def test_converse_equality_hand_cases(binary_hamming):
    res = converse_equality_check(binary_hamming, (0, 1))
    assert res == (0.0, 0.0, 0.0)
    res = converse_equality_check(binary_hamming, (0,))
    assert res.lhs == pytest.approx(0.5) and res.gap <= 1e-12


def test_converse_equality_random_stress(rng):
    for _ in range(100):
        p = make_random_problem(rng)
        res = converse_equality_check(p, random_code(rng, p))
        assert res.gap <= 1e-10



@settings(max_examples=150, deadline=None)
@given(problem=problems(), data=st.data())
def test_converse_equality_with_repeated_codewords(problem, data):
    # M from 1 to 6; every code with M >= 2 repeats its first codeword
    letter = st.integers(0, problem.y_size - 1)
    first = data.draw(letter)
    rest = data.draw(st.lists(letter, max_size=5))
    if rest:
        rest[data.draw(st.integers(0, len(rest) - 1))] = first
    res = converse_equality_check(problem, (first, *rest))
    assert res.gap <= EQUALITY_TOL

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


@pytest.mark.parametrize("w", [0.0, math.nan, -0.5, 2.0, 5e-324])
def test_subgradient_rejects_w_outside_the_normal_doubles_of_the_unit_interval(binary_hamming, w):
    # w = 0 divided by zero, nan gave nans, -0.5 zeros and 2 a finite vector
    with pytest.raises(ValueError, match=r"w must be a normal double in \(0, 1\], got "):
        dtilde_subgradient(binary_hamming, w, binary_hamming.q_y)
    assert dtilde_subgradient(binary_hamming, 1.0, binary_hamming.q_y).shape == (2,)


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
    # e^1e17 overflows, so M is None: the LP at the rate is clamped at the
    # floor sum_x p_x min_y d_xy, and upper is the limit of the random-code
    # average, the floor over the prior's support
    base = make_random_problem(rng, nx=4, ny=5)
    p = Problem(base.p_x, base.q_y, base.d + 0.5)
    floor = float(np.sum(p.p_x * p.d.min(axis=1)))
    res = optimize_prior(p, 1e17)
    assert res.value == pytest.approx(floor, abs=1e-12) and floor >= 0.5
    for rate in (1e16, 1e17, math.inf):
        bounds = dhat_sandwich(p, rate)
        assert bounds.M is None
        assert bounds.upper == dtilde_for_prior(p, 0.0, bounds.prior)
        assert bounds.upper == pytest.approx(floor, abs=1e-12)
        assert bounds.lower == pytest.approx(res.value, abs=1e-12)


def test_dhat_sandwich_solves_each_lp_size_once(rng, monkeypatch):
    # one LP per call, the one at the rate
    sizes = []
    real = converse_mod.linprog

    def recording(cost, start, index, coef, lower, upper):
        sizes.append(upper[-1])  # the last row is sum_y r_y = t
        return real(cost, start, index, coef, lower, upper)

    monkeypatch.setattr(converse_mod, "linprog", recording)
    for rate in (0.0, 0.25, 0.5, 1.0, 1.5, 2.3, 3.0, 5.0, 1e17):
        p = make_random_problem(rng)
        sizes.clear()
        bounds = dhat_sandwich(p, rate)
        assert sizes == [_lp_size(p, rate)]
        assert bounds.lower == optimize_prior(p, rate).dual_bound
    # the 45x50 instance of test_dhat_sandwich_lower_is_the_lp_minimum_45x50
    p = instance_45x50()
    sizes.clear()
    bounds = dhat_sandwich(p, 1.0)
    assert sizes == [math.exp(1.0)]
    assert bounds.M == 2


# d_max over supp(p_x) x supp(q_y) is 1, but reproduction letter 2, outside
# supp(q_y), costs 100 from source letters 0 and 1; the LP's prior puts mass
# on it
OFF_SUPPORT = Problem([0.45, 0.45, 0.10], [0.5, 0.5, 0.0],
                      [[0.0, 1.0, 100.0], [1.0, 0.0, 100.0], [1.0, 1.0, 0.0]])


@pytest.mark.parametrize("rate, upper, q_star_average", [(1.0, 0.325, 6.6350),
                                                         (2.0, 0.0993, 0.0993)])
def test_sandwich_upper_holds_for_the_prior_that_gives_it(rate, upper, q_star_average):
    # at rate 1 (M = 2) a code drawn from the LP's prior averages 6.635, so
    # q_y's 0.325 gives upper; at rate 2 (M = 7) the LP's prior wins
    bounds = dhat_sandwich(OFF_SUPPORT, rate)
    q_star_problem = Problem(OFF_SUPPORT.p_x, bounds.q_star, OFF_SUPPORT.d)
    averages = [exact_expected_distortion(q_star_problem, bounds.M),
                exact_expected_distortion(OFF_SUPPORT, bounds.M)]
    assert averages[0] == pytest.approx(q_star_average, abs=1e-4)
    assert bounds.upper == pytest.approx(upper, abs=1e-4)
    assert bounds.upper == min(averages)
    assert bounds.lower <= best_code_distortion(OFF_SUPPORT, bounds.M) <= bounds.upper


SANDWICH_RATES = (st.sampled_from(["log ny", 0.0, 1e16, 1e17, math.inf])
                  | st.floats(0.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(problem=problems(), rate=SANDWICH_RATES)
def test_sandwich_upper_bounds_its_priors_random_code(problem, rate):
    # upper is the random-code average of the prior it reports, bit for bit,
    # and no more than that of q_y or of the LP's prior
    if rate == "log ny":
        rate = math.log(problem.y_size)
    bounds = dhat_sandwich(problem, rate)
    q = np.where(bounds.q_star < np.finfo(float).tiny, 0.0, bounds.q_star)
    assert (np.array_equal(bounds.prior, q)
            or np.array_equal(bounds.prior, problem.q_y))
    assert not bounds.prior.flags.writeable
    if bounds.M is None:
        assert rate > 709.0  # math.exp overflows past about 709.78

        def average(prior):
            return dtilde_for_prior(problem, 0.0, prior)
    else:
        assert bounds.M == math.floor(math.exp(rate))

        def average(prior):
            return exact_expected_distortion(Problem(problem.p_x, prior, problem.d),
                                             bounds.M)
    assert bounds.upper.hex() == average(bounds.prior).hex()
    assert bounds.upper <= min(average(q), average(problem.q_y))


@settings(max_examples=150, deadline=None)
@given(problem=problems(), rate=SANDWICH_RATES)
def test_dhat_sandwich_brackets_the_best_code(problem, rate):
    # lower <= V(M) <= D*(M) <= upper at M = floor(e^rate), D* by exhaustive
    # search; M = None is the limit, where D* is the floor over every letter
    if rate == "log ny":
        rate = math.log(problem.y_size)
    bounds = dhat_sandwich(problem, rate)
    best = best_code_distortion(problem, bounds.M)
    assert bounds.lower <= best + 1e-12 * max(1.0, best)
    assert best <= bounds.upper + 1e-12 * max(1.0, bounds.upper)


@settings(max_examples=150, deadline=None)
@given(problem=problems() | quarter_problems(),
       rate=st.sampled_from(["log ny", 0.0, 1e16, 1e17, math.inf]) | st.floats(0.0, 10.0))
def test_dual_bound_is_read_from_alpha(problem, rate):
    if rate == "log ny":
        rate = math.log(problem.y_size)
    res = optimize_prior(problem, rate)
    assert res.alpha.shape == (problem.x_size,) and not res.alpha.flags.writeable
    bound = _dual_bound(problem, _lp_size(problem, rate), res.alpha)
    assert bound.hex() == res.dual_bound.hex()


def _distinct_levels(problem):
    return sum(np.unique(row).size for row in problem.d)


@settings(max_examples=200, deadline=None)
@given(problem=problems() | quarter_problems(),
       rate=st.floats(0.0, 10.0) | st.sampled_from([math.log(m) for m in range(1, 9)]))
def test_level_lp_matches_the_per_letter_lp(problem, rate):
    res, ref = optimize_prior(problem, rate), kmedian_lp_per_letter(problem, rate)
    # HiGHS stops within 1e-10 of a cost, so where costs differ by about
    # that much either LP may end on a vertex up to its certified gap above
    # the other's; both certified intervals hold the minimum, so they meet
    tol = 1e-12 + max(res.certificate_gap, ref.certificate_gap)
    assert abs(res.value - ref.value) <= tol
    assert abs(res.dual_bound - ref.dual_bound) <= tol
    assert res.dual_bound <= res.value + 1e-12
    assert res.certificate_gap <= 1e-9
    if _distinct_levels(problem) == problem.d.size:
        # without ties the two LPs are the same LP, column for column
        assert res.value == ref.value and res.dual_bound == ref.dual_bound
        np.testing.assert_array_equal(res.q_star, ref.q_star)


def test_level_lp_has_one_column_per_distinct_level(monkeypatch):
    shapes = []
    real = converse_mod.linprog

    def recording(cost, start, index, coef, lower, upper):
        # columns, and the inequality rows (the ones with no lower end)
        shapes.append((cost.size, (int(np.sum(lower == -np.inf)), start.size - 1)))
        return real(cost, start, index, coef, lower, upper)

    monkeypatch.setattr(converse_mod, "linprog", recording)
    p = instance_45x50()
    res = optimize_prior(p, 1.0)
    g = _distinct_levels(p)
    assert shapes == [(g + 50, (g, g + 50))]
    assert g + 50 <= 275
    assert res.certificate_gap <= 1e-9


def _same_bits(res, ref):
    return (res.q_star.tobytes() == ref.q_star.tobytes()
            and res.alpha.tobytes() == ref.alpha.tobytes()
            and res.value.hex() == ref.value.hex()
            and res.dual_bound.hex() == ref.dual_bound.hex())


# the examples pin a tie with zero masses on both sides, both one-letter
# alphabets and 1x1, and t clamped at y_size by rate log(ny), 1e17 and inf
@settings(max_examples=200, deadline=None)
@given(problem=problems() | quarter_problems(),
       rate=st.floats(0.0, 10.0) | st.sampled_from(["log ny", 0.0, 1e17, math.inf]))
@example(problem=Problem([0.0, 0.4, 0.6], [0.5, 0.0, 0.5],
                         [[1.0, 1.0, 0.5], [0.5, 0.0, 0.5], [2.0, 1.0, 1.0]]), rate=0.7)
@example(problem=Problem([1.0], [0.3, 0.0, 0.7], [[1.0, 0.0, 1.0]]), rate=0.5)
@example(problem=Problem([0.25, 0.75], [1.0], [[2.0], [0.5]]), rate=0.5)
@example(problem=Problem([1.0], [1.0], [[0.5]]), rate=0.0)
@example(problem=Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.5]]), rate="log ny")
@example(problem=Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.5]]), rate=1e17)
@example(problem=Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.5]]), rate=math.inf)
def test_optimize_prior_is_the_linprog_route_bit_for_bit(problem, rate):
    # the same LP, column for column and row for row, with linprog's options
    if rate == "log ny":
        rate = math.log(problem.y_size)
    assert _same_bits(optimize_prior(problem, rate), kmedian_lp_by_levels_linprog(problem, rate))


def test_optimize_prior_is_the_linprog_route_bit_for_bit_at_scale():
    # the benchmark's 45x50 instance, and a tie-free 60x60 one
    g = np.random.default_rng(0)
    tie_free = Problem(g.dirichlet(np.ones(60)), g.dirichlet(np.ones(60)), g.random((60, 60)))
    for problem in (instance_45x50(), tie_free):
        assert _same_bits(optimize_prior(problem, 1.0),
                          kmedian_lp_by_levels_linprog(problem, 1.0))


def test_optimize_prior_names_the_largest_cost_where_highs_fails():
    # with the 45x50 instance's d scaled up to 1e18, HiGHS's run ends in
    # error; with costs p_x d_xy of 5e20, HiGHS ends without a status; on
    # the same LP linprog fails too
    big = instance_45x50()
    for problem, rate, tail in (
            (Problem(big.p_x, big.q_y, big.d * 2.5e17), 1.0,
             "1.2e+17): HiGHS model status Solve error"),
            (Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1e21], [1e21, 0.0]]), 0.3,
             "5e+20): HiGHS model status Unknown")):
        with pytest.raises(ValueError) as info:
            optimize_prior(problem, rate)
        assert str(info.value) == "k-median LP failed (largest cost p_x d_xy = " + tail
        with pytest.raises(RuntimeError, match="k-median LP failed"):
            kmedian_lp_by_levels_linprog(problem, rate)


def test_converse_dominance_exhaustive(rng):
    for _ in range(8):
        p = make_random_problem(rng, nx=int(rng.integers(2, 5)), ny=int(rng.integers(2, 5)))
        for m in (2, 3):
            best = min(
                code_distortion(p, c)
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
    p = instance_45x50(seed)
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
    best = min(code_distortion(problem, c)
               for c in itertools.product(range(ny), repeat=m))
    rate = math.log(m)
    alpha = vec(nx, -4.0, 4.0)
    assert _dual_bound(problem, _lp_size(problem, rate), alpha) <= best + 1e-12
    res = optimize_prior(problem, rate)
    assert res.dual_bound <= best + 1e-12
    assert res.value <= best + 1e-9
    assert res.certificate_gap <= 1e-9
    assert best <= exact_expected_distortion(problem, m) + 1e-12


def test_equality_check_reads_the_code_prior_through_the_fill(binary_hamming, problems_built):
    before = len(problems_built)
    check = converse_equality_check(binary_hamming, (0, 1, 1))
    assert len(problems_built) == before
    assert check.rhs == dtilde_for_prior(binary_hamming, 1.0 / 3.0, [1 / 3, 2 / 3])
    assert check.lhs == check.rhs == 0.0


def gate_base(seed: int, index: int) -> tuple[Problem, float]:
    """Base `index` of the product-prior gate recipe: 1-7 x 2-7 letters,
    Dirichlet(1) p and q, d uniform on [0, 1) and rounded to quarters half
    the time, rate uniform on [0.1, 1.5)."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        nx, ny = int(rng.integers(1, 8)), int(rng.integers(2, 8))
        p, q = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
        d = rng.uniform(0.0, 1.0, (nx, ny))
        if rng.random() < 0.5:
            d = np.round(d * 4.0) / 4.0
        rate = float(rng.uniform(0.1, 1.5))
    return Problem(p, q, d), rate


def test_product_prior_search_never_loses_to_three_stages():
    rng = np.random.default_rng(2024)
    for nx, ny, rate in ((2, 2, 0.3), (3, 3, 0.9), (1, 4, 0.5), (2, 5, 0.4),
                         (3, 6, 1.2), (2, 7, 0.7)):
        base = make_random_problem(rng, nx=nx, ny=ny)
        got = product_prior_experiment(base, 2, rate)
        want = product_prior_three_stage(base, 2, rate)
        assert got.product_value <= want.product_value + 1e-12
        assert got.full_value == want.full_value


def test_product_prior_search_reaches_a_face():
    # the 2x5 continuous base 265 of the seed-12345 gate: the best memoryless
    # prior drops three letters, which the three stages only approach
    base, rate = gate_base(12345, 265)
    assert base.d.shape == (2, 5) and rate == 0.37089533227245797
    rep = product_prior_experiment(base, 2, rate)
    assert rep.product_value < 0.2984328898486249 - 1e-6
    assert np.count_nonzero(rep.product_prior) < 5
    assert rep.product_value == dtilde_for_prior(
        converse_mod.product_problem(base, 2), math.exp(-2 * rate),
        np.kron(rep.product_prior, rep.product_prior))


def test_product_prior_search_tries_each_face_once(monkeypatch):
    # base 103 of the seed-12345 gate (2x3): one Nelder-Mead run per start
    # and at most one per letter of the support; rescanning after each
    # improvement took 9 runs here
    base, rate = gate_base(12345, 103)
    runs = []
    nelder_mead = converse_mod._nelder_mead

    def counted(*args):
        runs.append(args)
        return nelder_mead(*args)

    monkeypatch.setattr(converse_mod, "_nelder_mead", counted)
    product_prior_experiment(base, 2, rate)
    assert len(runs) <= converse_mod.PRODUCT_RANDOM_STARTS + 1 + base.y_size


@pytest.mark.parametrize("rate", [-0.5, -1e-300, math.nan])
def test_product_prior_rejects_a_bad_rate_before_searching(monkeypatch, rate):
    # the whole search ran before optimize_prior raised: 0.25 s on this 6x5
    base = load_problem(Path(__file__).parent / "golden" / "integer_6x5.json")
    runs = []
    monkeypatch.setattr(converse_mod, "_nelder_mead", lambda *args: runs.append(args))
    for n in (1, 2):
        with pytest.raises(ValueError, match="rate must be nonnegative"):
            product_prior_experiment(base, n, rate)
    assert runs == []


def test_product_prior_search_is_deterministic_per_seed(rng):
    base = make_random_problem(rng, nx=3, ny=5)
    a = product_prior_experiment(base, 2, 0.6, seed=11)
    b = product_prior_experiment(base, 2, 0.6, seed=11)
    assert a.product_value == b.product_value
    np.testing.assert_array_equal(a.product_prior, b.product_prior)
