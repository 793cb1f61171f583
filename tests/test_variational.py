import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LEVEL_CASES, make_random_problem, nonbreakpoint_w, problems, quarter_problems
from oneshotrd import (
    Channel,
    Problem,
    WeightedMeasure,
    d_inf,
    distortion_measure,
    dtilde,
    dtilde1,
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
    return Channel(rows)


def test_weighted_measure_total():
    m = WeightedMeasure.from_weights([[0.1, 0.2], [0.3, 0.4]])
    assert m.total_mass == pytest.approx(1.0)
    with pytest.raises(ValueError):
        WeightedMeasure.from_weights([[-0.1, 0.2]])


def test_np_beta_trivial_levels(binary_hamming):
    mu = distortion_measure(binary_hamming)
    p = np.outer([0.5, 0.5], binary_hamming.q_y)
    beta0, test0 = np_beta(0.0, p, mu)
    assert beta0 == 0.0 and np.all(test0.accept == 0)
    beta1, test1 = np_beta(1.0, p, mu)
    assert beta1 == pytest.approx(mu.total_mass, abs=1e-15)
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
            assert float(np.sum(mu.weights * accept)) >= beta - 1e-12


def test_np_beta_ranks_unreachable_entries_last():
    p = np.array([[0.5, 0.5], [0.0, 0.0]])
    mu = WeightedMeasure.from_weights([[0.1, 0.2], [5.0, 5.0]])
    beta, _ = np_beta(1.0, p, mu)
    assert beta == pytest.approx(0.3, abs=1e-15)  # infinite-ratio rows unused


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
    np.testing.assert_allclose(res.channel.w, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)


def test_inf_form_zero_rate_returns_prior(rng):
    p = make_random_problem(rng)
    res = inf_form_value(p, 0.0)
    np.testing.assert_allclose(res.channel.w, np.tile(p.q_y, (p.x_size, 1)), atol=1e-12)
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
        np.testing.assert_allclose(res.channel.w, packing_channel(p, w).w, atol=1e-12)


def test_inf_form_channel_is_feasible(rng):
    for _ in range(20):
        p = make_random_problem(rng)
        rate = float(rng.uniform(0.05, 2.0))
        res = inf_form_value(p, rate)
        joint = p.p_x[:, None] * res.channel.w
        ref = p.p_x[:, None] * p.q_y[None, :]
        assert d_inf(joint, ref) <= rate + 1e-12


def test_feasible_channels_dominate_inf_form(rng):
    for _ in range(10):
        p = make_random_problem(rng, zero_mass_prob=0.0)
        rate = float(rng.uniform(0.1, 1.5))
        res = inf_form_value(p, rate)
        for _ in range(5):
            chan = feasible_channel(rng, p, rate)
            joint = p.p_x[:, None] * chan.w
            assert d_inf(joint, p.p_x[:, None] * p.q_y[None, :]) <= rate + 1e-9
            value = float(np.sum(joint * p.d))
            assert value >= res.value - 1e-10


def test_info_spectrum_bsc_hand_case(binary_hamming):
    chan = Channel([[0.9, 0.1], [0.1, 0.9]])
    res = info_spectrum_check(binary_hamming, chan, math.log(1.9), 0.0)
    assert res.lhs == pytest.approx(0.05, abs=1e-12)
    assert res.rhs == pytest.approx(0.1, abs=1e-15)
    assert res.holds


def test_info_spectrum_vacuous_case(binary_hamming):
    chan = Channel([[0.9, 0.1], [0.1, 0.9]])
    res = info_spectrum_check(binary_hamming, chan, math.log(0.1), 0.0)
    assert res.holds and res.rhs == math.inf


def test_info_spectrum_random_stress(rng):
    for _ in range(40):
        p = make_random_problem(rng)
        rows = np.stack([rng.dirichlet(np.ones(p.y_size)) for _ in range(p.x_size)])
        chan = Channel(rows)
        joint = p.p_x[:, None] * rows
        q = joint.sum(axis=0)
        with np.errstate(divide="ignore"):
            dens = np.where(joint > 0, np.log(rows / np.where(q > 0, q, 1.0)), -np.inf)
        finite = dens[np.isfinite(dens)]
        thresh = float(rng.uniform(finite.min(), finite.max() + 0.5))
        delta = float(rng.uniform(0.0, 0.3))
        res = info_spectrum_check(p, chan, thresh + delta, delta)
        assert res.holds


def _assert_level_routes_match_rows(problem, w):
    new, old = inf_form_value(problem, -math.log(w)), inf_form_by_rows(problem, -math.log(w))
    np.testing.assert_allclose(new.channel.w, old.channel.w, rtol=0.0, atol=1e-14)
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
