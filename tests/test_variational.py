import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LEVEL_CASES, make_random_problem, nonbreakpoint_w, problems, quarter_problems
from oneshotrd import (
    Problem,
    d_inf,
    distortion_measure,
    dtilde,
    dtilde1,
    dtilde_for_prior,
    inf_form_value,
    info_spectrum_check,
    np_beta,
    sup_form_value,
    test_channel as packing_channel,
    witness_qx,
)
from oracles import inf_form_by_rows, profile_unique, validate_channel, witness_qx_by_rows


def feasible_channel(rng, problem, rate):
    """Random channel within max-divergence `rate` of the prior (waterfilled)."""
    cap = math.exp(rate) * problem.q_y
    rows = np.empty((problem.x_size, problem.y_size))
    for x in range(problem.x_size):
        row = np.minimum(rng.dirichlet(np.ones(problem.y_size)), cap)
        for _ in range(200):
            deficit = 1.0 - row.sum()
            if deficit <= 1e-15:
                break
            room = cap - row
            mask = room > 0
            add = np.zeros_like(row)
            add[mask] = room[mask] / room[mask].sum() * deficit
            row = np.minimum(row + add, cap)
        rows[x] = row / row.sum()
    return rows


def test_np_beta_rejects_a_negative_or_nonfinite_measure():
    p = np.full((1, 2), 0.5)
    for mu in ([[-0.1, 0.2]], [[math.nan, 0.2]], [[math.inf, 0.2]]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            np_beta(0.5, p, mu)


def test_np_beta_trivial_levels(binary_hamming):
    mu = distortion_measure(binary_hamming)
    p = np.outer([0.5, 0.5], binary_hamming.q_y)
    beta0, test0 = np_beta(0.0, p, mu)
    assert beta0 == 0.0 and np.all(test0.accept == 0)
    beta1, test1 = np_beta(1.0, p, mu)
    assert beta1 == pytest.approx(mu.sum(), abs=1e-15)
    assert test1.achieved_alpha == pytest.approx(1.0, abs=1e-12)


def test_np_beta_binary_hand_case(binary_hamming):
    p = np.outer([0.5, 0.5], binary_hamming.q_y)
    beta, test = np_beta(0.75, p, distortion_measure(binary_hamming))
    assert beta == pytest.approx(0.25, abs=1e-15)
    assert test.achieved_alpha == pytest.approx(0.75, abs=1e-12)
    assert test.threshold == pytest.approx(1.0)


def test_np_beta_monotone_convex_in_alpha(rng):
    for _ in range(10):
        prob = make_random_problem(rng)
        q_x = rng.dirichlet(np.ones(prob.x_size))
        p = np.outer(q_x, prob.q_y)
        mu = distortion_measure(prob)
        alphas = np.linspace(0.0, 1.0, 41)
        betas = np.array([np_beta(float(a), p, mu)[0] for a in alphas])
        assert np.all(np.diff(betas) >= -1e-12)
        mid = 0.5 * (betas[:-2] + betas[2:])
        assert np.all(betas[1:-1] <= mid + 1e-10)


def test_np_beta_is_a_lower_bound_over_random_tests(rng):
    for _ in range(10):
        prob = make_random_problem(rng)
        q_x = rng.dirichlet(np.ones(prob.x_size))
        p = np.outer(q_x, prob.q_y)
        mu = distortion_measure(prob)
        alpha = float(rng.uniform(0.1, 0.9))
        beta, _ = np_beta(alpha, p, mu)
        for _ in range(20):
            accept = rng.random(p.shape)
            mass = float(np.sum(p * accept))
            if mass < alpha:
                continue
            assert float(np.sum(mu * accept)) >= beta - 1e-12


def test_np_beta_ranks_unreachable_entries_last():
    p = np.array([[0.5, 0.5], [0.0, 0.0]])
    mu = np.array([[0.1, 0.2], [5.0, 5.0]])
    beta, _ = np_beta(1.0, p, mu)
    assert beta == pytest.approx(0.3, abs=1e-15)  # infinite-ratio rows unused


def test_np_beta_accepts_nothing_where_p_has_no_mass():
    # alpha lies within the 1e-9 allowance above p's total of 0, and every
    # entry ranks last, so the test accepts nothing
    beta, test = np_beta(1e-10, np.zeros(3), np.zeros(3))
    assert beta == 0.0 and test.achieved_alpha == 0.0
    np.testing.assert_array_equal(test.accept, np.zeros(3))


def test_np_beta_survives_a_threshold_group_whose_measure_overflows():
    # each tied group's measure sums to 2e308, past the largest double
    beta, test = np_beta(0.5, [0.5, 0.5], [1e308, 1e308])
    assert beta == 1e308 and test.achieved_alpha == 0.5
    beta, test = np_beta(1e-10, np.zeros(2), [1e308, 1e308])
    assert beta == 0.0 and test.achieved_alpha == 0.0


def test_witness_binary_hand_case(binary_hamming):
    q_x, lam = witness_qx(binary_hamming, 0.75)
    assert lam == pytest.approx(1.0)
    np.testing.assert_allclose(q_x, [0.5, 0.5])


def test_witness_constant_distortion():
    p = Problem([0.3, 0.7], [0.5, 0.5], [[0.6, 0.6], [0.6, 0.6]])
    q_x, lam = witness_qx(p, 0.4)
    assert lam == pytest.approx(0.6)
    np.testing.assert_allclose(q_x, p.p_x)


def test_witness_degenerate_zero_level(binary_hamming):
    q_x, lam = witness_qx(binary_hamming, 0.3)
    assert q_x is None and lam == 0.0
    assert sup_form_value(binary_hamming, 0.3) == 0.0
    assert dtilde1(binary_hamming, 0.3) == 0.0


def test_sup_form_binary(binary_hamming):
    assert sup_form_value(binary_hamming, 0.75) == pytest.approx(0.25, abs=1e-12)
    full = sup_form_value(binary_hamming, 1.0)
    assert full == pytest.approx(dtilde1(binary_hamming, 1.0), abs=1e-12)


def test_sup_form_equals_dtilde1(rng):
    for _ in range(50):
        p = make_random_problem(rng)
        w = nonbreakpoint_w(p, rng)
        assert sup_form_value(p, w) == pytest.approx(dtilde1(p, w), abs=1e-10)


def test_random_source_distributions_never_beat_witness(rng):
    for _ in range(10):
        p = make_random_problem(rng)
        w = nonbreakpoint_w(p, rng)
        target = sup_form_value(p, w)
        mu = distortion_measure(p)
        for _ in range(20):
            q_x = rng.dirichlet(np.ones(p.x_size))
            beta, _ = np_beta(w, np.outer(q_x, p.q_y), mu)
            assert beta <= target + 1e-10


def test_d_inf_values(binary_hamming):
    q = np.full((2, 2), 0.25)
    assert d_inf(q, q) == 0.0
    assert d_inf(np.eye(2) * 0.5, q) == pytest.approx(math.log(2.0))
    assert d_inf(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])) == math.inf
    assert d_inf(np.zeros((2, 2)), q) == -math.inf


def test_inf_form_hand_case(binary_hamming):
    res = inf_form_value(binary_hamming, math.log(4.0 / 3.0))
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(res.channel, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)


def test_inf_form_zero_rate_returns_prior(rng):
    p = make_random_problem(rng)
    res = inf_form_value(p, 0.0)
    np.testing.assert_allclose(res.channel, np.tile(p.q_y, (p.x_size, 1)), atol=1e-12)
    expect = float(np.sum(p.p_x[:, None] * p.q_y[None, :] * p.d))
    assert res.value == pytest.approx(expect, abs=1e-12)


def test_inf_form_saturates_at_high_rate(rng):
    p = make_random_problem(rng)
    res = inf_form_value(p, 30.0)
    assert res.value == pytest.approx(dtilde(p, 0.0), abs=1e-9)


def test_inf_form_matches_functional_and_channel(rng):
    for _ in range(50):
        p = make_random_problem(rng)
        w = nonbreakpoint_w(p, rng)
        rate = -math.log(w)
        res = inf_form_value(p, rate)
        validate_channel(res.channel)
        assert res.value == pytest.approx(dtilde(p, w), abs=1e-9)
        np.testing.assert_allclose(res.channel, packing_channel(p, w), atol=1e-12)


def test_inf_form_channel_is_feasible(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        rate = float(rng.uniform(0.05, 2.0))
        res = inf_form_value(p, rate)
        joint = p.p_x[:, None] * res.channel
        ref = p.p_x[:, None] * p.q_y[None, :]
        assert d_inf(joint, ref) <= rate + 1e-12


def test_feasible_channels_dominate_inf_form(rng):
    for _ in range(10):
        p = make_random_problem(rng, zero_mass_prob=0.0)
        rate = float(rng.uniform(0.1, 1.5))
        res = inf_form_value(p, rate)
        for _ in range(5):
            chan = feasible_channel(rng, p, rate)
            joint = p.p_x[:, None] * chan
            assert d_inf(joint, p.p_x[:, None] * p.q_y[None, :]) <= rate + 1e-9
            value = float(np.sum(joint * p.d))
            assert value >= res.value - 1e-10


def test_info_spectrum_bsc_hand_case(binary_hamming):
    chan = np.array([[0.9, 0.1], [0.1, 0.9]])
    res = info_spectrum_check(binary_hamming, chan, math.log(1.9), 0.0)
    assert res.lhs == pytest.approx(0.05, abs=1e-12)
    assert res.rhs == pytest.approx(0.1, abs=1e-15)
    assert res.holds


def test_info_spectrum_vacuous_case(binary_hamming):
    chan = np.array([[0.9, 0.1], [0.1, 0.9]])
    res = info_spectrum_check(binary_hamming, chan, math.log(0.1), 0.0)
    assert res.holds and res.rhs == math.inf


def test_info_spectrum_random_stress(rng):
    for _ in range(40):
        p = make_random_problem(rng)
        rows = np.stack([rng.dirichlet(np.ones(p.y_size)) for _ in range(p.x_size)])
        chan = rows
        joint = p.p_x[:, None] * rows
        q = joint.sum(axis=0)
        with np.errstate(divide="ignore"):
            dens = np.where(joint > 0, np.log(rows / np.where(q > 0, q, 1.0)), -np.inf)
        finite = dens[np.isfinite(dens)]
        thresh = float(rng.uniform(finite.min(), finite.max() + 0.5))
        delta = float(rng.uniform(0.0, 0.3))
        res = info_spectrum_check(p, chan, thresh + delta, delta)
        assert res.holds


def test_info_spectrum_holds_on_the_average_form_counterexample():
    # with lam = -log P(i <= R - delta) the average form read lhs 0.35188 > rhs
    # 0.34444; row 0 never meets the event, so the row-minimum form is vacuous
    problem = Problem([0.1, 0.9], [0.5, 0.5], [[1.0, 0.4], [0.3, 0.7]])
    res = info_spectrum_check(problem, np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, 0.0)
    assert res.holds and res.rhs == math.inf
    assert res.lhs == dtilde_for_prior(problem, 0.0, [0.9, 0.1])


@st.composite
def spectrum_channels(draw, problem):
    """A Dirichlet channel with zeros, a deterministic one or a packing channel."""
    nx, ny = problem.x_size, problem.y_size
    kind = draw(st.sampled_from(["dirichlet", "deterministic", "packing"]))
    if kind == "packing":
        return packing_channel(problem, draw(st.floats(sys.float_info.min, 1.0)))
    if kind == "deterministic":
        rows = np.zeros((nx, ny))
        rows[np.arange(nx), draw(st.lists(st.integers(0, ny - 1), min_size=nx, max_size=nx))] = 1.0
        return rows
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = g.dirichlet(np.ones(ny), nx) * (g.random((nx, ny)) < 0.7)
    rows[np.arange(nx), g.integers(0, ny, nx)] += 0.1  # no row left empty
    return rows / rows.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), problem=problems() | quarter_problems(), k=st.integers(-40, 40),
       rate=st.floats(0.0, 3.0), delta=st.floats(0.0, 0.5))
def test_info_spectrum_holds_on_every_channel_at_any_scale(data, problem, k, rate, delta):
    problem = Problem(problem.p_x, problem.q_y, np.ldexp(problem.d, k))
    channel = data.draw(spectrum_channels(problem))
    assert info_spectrum_check(problem, channel, rate, delta).holds


def _assert_level_routes_match_rows(problem, w):
    new, old = inf_form_value(problem, -math.log(w)), inf_form_by_rows(problem, -math.log(w))
    np.testing.assert_allclose(new.channel, old.channel, rtol=0.0, atol=1e-14)
    # at a level boundary the two routes may round the cumulative mass apart
    cums = np.concatenate([profile_unique(problem, x).cumulative
                           for x in range(problem.x_size)])
    if np.min(np.abs(cums - w)) > 1e-12:
        (q_new, lam_new), (q_old, lam_old) = witness_qx(problem, w), witness_qx_by_rows(problem, w)
        assert lam_new == lam_old
        assert (q_new is None and q_old is None) or q_new.tobytes() == q_old.tobytes()


@settings(max_examples=150, deadline=None)
@given(problem=problems() | quarter_problems(), w=st.floats(sys.float_info.min, 1.0))
def test_witness_and_capped_channel_match_the_per_row_oracles(problem, w):
    _assert_level_routes_match_rows(problem, w)


@pytest.mark.parametrize("case", sorted(LEVEL_CASES))
def test_witness_and_capped_channel_on_named_cases(case):
    for w in (1e-300, 0.2, 0.5, 0.7, 1.0):
        _assert_level_routes_match_rows(Problem(*LEVEL_CASES[case]), w)


def test_inf_form_rejects_rates_it_cannot_evaluate(binary_hamming):
    for rate in (-1.0, 709.8, 1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="rate"):
            inf_form_value(binary_hamming, rate)
    assert inf_form_value(binary_hamming, 709.78).value == 0.0


def test_subnormal_w_is_rejected(binary_hamming):
    for w in (1e-310, 5e-324):
        for fn in (witness_qx, sup_form_value, packing_channel):
            with pytest.raises(ValueError, match="normal double"):
                fn(binary_hamming, w)
    witness_qx(binary_hamming, sys.float_info.min)
    packing_channel(binary_hamming, sys.float_info.min)


def test_info_spectrum_reads_the_marginal_through_the_fill(binary_hamming, problems_built):
    before = len(problems_built)
    chan = np.array([[0.9, 0.1], [0.3, 0.7]])
    q = 0.5 * (chan[0] + chan[1])
    for rate, w in ((math.log(1.9), None), (math.log(0.1), 0.0)):
        res = info_spectrum_check(binary_hamming, chan, rate, 0.0)
        assert res.holds
        if w is not None:
            assert res.lhs == dtilde_for_prior(binary_hamming, w, q)
    assert len(problems_built) == before


def test_np_beta_rejects_bad_inputs(binary_hamming):
    mu = distortion_measure(binary_hamming)
    p = np.full((2, 2), 0.25)
    with pytest.raises(ValueError, match="shape mismatch"):
        np_beta(0.5, np.ones(3), mu)
    with pytest.raises(ValueError, match="alpha must be in"):
        np_beta(1.5, p, mu)
    with pytest.raises(ValueError, match="exceeds the total p mass"):
        np_beta(0.9, 0.5 * p, mu)


@pytest.mark.parametrize("p", [[-0.5, 1.5], [math.nan, 1.0], [math.inf, 1.0]])
def test_np_beta_rejects_a_negative_or_non_finite_p(p):
    # [-0.5, 1.5] gave beta = 1/3, [nan, 1] a nan achieved_alpha, [inf, 1] an invalid multiply
    with pytest.raises(ValueError, match="p must be finite and nonnegative"):
        np_beta(0.5, p, [1.0, 1.0])


def test_d_inf_of_all_zero_arrays():
    assert d_inf(np.zeros((2, 3)), np.zeros((2, 3))) == -math.inf
