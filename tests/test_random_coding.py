import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import make_random_problem, problems
from oneshotrd import (
    Code,
    Problem,
    achievability_bound,
    code_distortion,
    dtilde,
    dtilde_inverse,
    exact_expected_distortion,
    f_inverse,
    f_of,
    g_of,
    rate_for_distortion,
    rtilde,
)
from oneshotrd.dtilde import build_dtilde1
from oneshotrd.random_coding import _segment_integral
from oracles import g_m, min_uniform_cdf, min_uniform_pdf


def brute_force_random_code(problem, M):
    """Exact expectation by enumerating every codebook of M prior draws."""
    total = 0.0
    for combo in itertools.product(range(problem.y_size), repeat=M):
        prob = float(np.prod(problem.q_y[list(combo)]))
        if prob == 0.0:
            continue
        total += prob * code_distortion(problem, Code(combo))
    return total


def test_g_m_hand_values():
    assert g_m(0.5, 2) == pytest.approx(-0.75, abs=1e-15)
    for M in (1, 2, 7, 100):
        assert g_m(0.0, M) == -1.0
        assert g_m(1.0, M) == 0.0


def test_g_m_large_m_stable():
    assert g_m(0.5, 10**6) == 0.0
    assert math.isfinite(g_m(1e-9, 10**6))


def test_exact_binary_hamming(binary_hamming):
    assert exact_expected_distortion(binary_hamming, 2).exact_distortion == pytest.approx(0.25, abs=1e-15)
    assert exact_expected_distortion(binary_hamming, 3).exact_distortion == pytest.approx(0.125, abs=1e-15)


def test_exact_constant_distortion():
    p = Problem([0.3, 0.7], [0.5, 0.5], [[0.42, 0.42], [0.42, 0.42]])
    for M in (1, 2, 5, 40):
        assert exact_expected_distortion(p, M).exact_distortion == pytest.approx(0.42, abs=1e-13)


def test_exact_m1_is_full_average(rng):
    p = make_random_problem(rng)
    expect = float(np.sum(p.p_x[:, None] * p.q_y[None, :] * p.d))
    assert exact_expected_distortion(p, 1).exact_distortion == pytest.approx(expect, abs=1e-14)


def test_exact_matches_brute_force(rng):
    for _ in range(15):
        p = make_random_problem(rng, ny=int(rng.integers(2, 4)))
        for M in (2, 3, 4):
            exact = exact_expected_distortion(p, M).exact_distortion
            assert exact == pytest.approx(brute_force_random_code(p, M), abs=1e-12)


def test_exact_matches_quadrature(rng):
    for _ in range(8):
        p = make_random_problem(rng)
        pw = build_dtilde1(p)
        for M in (2, 5):
            total = 0.0
            for a, b in zip(pw.breakpoints[:-1], pw.breakpoints[1:]):
                val, _ = integrate.quad(
                    lambda w: dtilde(p, w) * M * (M - 1) * w * (1 - w) ** (M - 2),
                    a, b,
                )
                total += val
            exact = exact_expected_distortion(p, M).exact_distortion
            assert exact == pytest.approx(total, abs=1e-8)


def test_exact_segments_sum_to_total(rng):
    p = make_random_problem(rng)
    res = exact_expected_distortion(p, 6)
    assert sum(res.per_segment_contributions) == pytest.approx(res.exact_distortion, abs=1e-10)
    assert 0.0 <= res.exact_distortion <= p.d_max


def test_exact_nonincreasing_in_m(rng):
    for _ in range(10):
        p = make_random_problem(rng)
        vals = [exact_expected_distortion(p, M).exact_distortion for M in range(1, 12)]
        assert np.all(np.diff(vals) <= 1e-12)


@settings(max_examples=200, deadline=None)
@given(problem=problems())
def test_exact_tends_to_dtilde_zero_at_large_m(problem):
    # on [0, w1] dtilde is flat at dtilde(0), and elsewhere at most dtilde(1);
    # the second-smallest of M uniforms exceeds w1 with probability
    # (1 - w1)^(M-1) ((M-1) w1 + 1)
    w1 = float(build_dtilde1(problem).breakpoints[1])
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    values = []
    for M in (2, 3, 10, 10**3, 10**6, 10**9, 10**12, 10**15, 10**18):
        tail = math.exp((M - 1) * math.log1p(-w1)) if w1 < 1.0 else 0.0
        e = exact_expected_distortion(problem, M).exact_distortion
        assert lo - 1e-12 <= e <= lo + (hi - lo) * tail * ((M - 1) * w1 + 1) + 1e-12, M
        values.append(e)
    # rounding can lift E(M) by an ulp where it has reached dtilde(0)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values


def test_exact_dominates_converse_value(rng):
    for _ in range(15):
        p = make_random_problem(rng)
        for M in (2, 3, 5):
            assert dtilde(p, 1.0 / M) <= exact_expected_distortion(p, M).exact_distortion + 1e-12


def test_f_of_values():
    assert f_of(0.0) == pytest.approx(2.0 / math.e, abs=1e-15)
    assert f_of(math.log(2.0)) == pytest.approx(3.0 * math.exp(-2.0), abs=1e-15)
    assert f_of(-50.0) == pytest.approx(1.0, abs=1e-12)
    assert f_of(900.0) == 0.0
    lams = np.linspace(-5, 5, 200)
    assert np.all(np.diff([f_of(t) for t in lams]) < 0)


def test_f_inverse_roundtrip(rng):
    assert f_inverse(2.0 / math.e) == pytest.approx(0.0, abs=1e-10)
    assert f_inverse(3.0 * math.exp(-2.0)) == pytest.approx(math.log(2.0), abs=1e-10)
    for x in rng.uniform(0.001, 0.999, 50):
        assert f_of(f_inverse(float(x))) == pytest.approx(float(x), abs=1e-12)


def test_f_inverse_lemma_bracket():
    x = 0.735759  # value quoted with its bracket [1.132, 1.195]
    shifted = f_inverse(x) - math.log(-math.log(x))
    z = -math.log(x)
    upper = math.log(2.0 / 3.0) + math.log(1.0 + math.sqrt(1.0 + 9.0 / (2.0 * z)))
    lower = -math.log(2.0) + math.log(1.0 + math.sqrt(1.0 + 8.0 / z))
    assert lower == pytest.approx(1.1319, abs=2e-4)
    assert upper == pytest.approx(1.1956, abs=2e-4)
    assert lower - 1e-12 <= shifted <= upper + 1e-12
    # x is within 1.2e-7 of 2/e where the exact shifted value is -log(-log(2/e))
    assert shifted == pytest.approx(1.18139, abs=2e-5)


def test_f_inverse_rejects_out_of_range():
    with pytest.raises(ValueError):
        f_inverse(0.0)
    with pytest.raises(ValueError):
        f_inverse(1.0)
    with pytest.raises(ValueError, match="nan"):
        f_inverse(math.nan)
    with pytest.raises(ValueError, match="nan"):
        f_inverse(np.array([0.5, math.nan]))


def test_f_inverse_round_trips_at_the_extremes():
    for x in (1e-300, 1.0 - 1e-15):
        assert abs(f_of(f_inverse(x)) - x) <= 1e-12
    assert f_of(f_inverse(1e-300)) == pytest.approx(1e-300, rel=1e-12)


def _same_bits(array, scalars):
    return np.asarray(array).tobytes() == np.array(scalars, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(problem=problems(), data=st.data())
def test_array_calls_match_scalar_calls_bit_for_bit(problem, data):
    pw = build_dtilde1(problem)
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)))
    zs = np.concatenate([pw.value(pw.breakpoints[1:]) / pw.breakpoints[1:],
                         [lo, math.nextafter(lo, math.inf), hi], lo + u * (hi - lo)])
    zs = zs[(lo <= zs) & (zs <= hi)]
    assert _same_bits(dtilde_inverse(problem, zs), [dtilde_inverse(problem, z) for z in zs.tolist()])
    below = np.concatenate([zs, lo - u])
    assert _same_bits(rtilde(problem, below), [rtilde(problem, z) for z in below.tolist()])
    assert all(type(f(problem, lo)) is float for f in (dtilde_inverse, rtilde))
    # the splits (d_req - z) / (hi - z) that rate_for_distortion hands to
    # f_inverse, the drawn points and the far ends
    d_req = lo + u[0] * (hi - lo)
    inner = zs[zs < d_req]
    ys = np.concatenate([(d_req - inner) / (hi - inner), u,
                         [5e-324, 1e-300, math.nextafter(1.0, 0.0)]])
    ys = ys[(0.0 < ys) & (ys < 1.0)]
    assert _same_bits(f_inverse(ys), [f_inverse(y) for y in ys.tolist()])
    assert type(f_inverse(0.5)) is float


def test_g_of_values():
    x = math.exp(math.e)
    expect = 1.0 + math.log(2.0 / 3.0) + math.log(1.0 + math.sqrt(1.0 + 9.0 / (2.0 * math.e)))
    assert g_of(x) == pytest.approx(expect, abs=1e-14)
    # the correction term decreases to log(4/3); convergence is ~9/(8 log x)
    tail = g_of(1e120) - math.log(math.log(1e120))
    assert math.log(4.0 / 3.0) < tail < math.log(4.0 / 3.0) + 5e-3
    diffs = [g_of(x) - math.log(math.log(x)) for x in np.geomspace(1.5, 1e9, 40)]
    assert np.all(np.diff(diffs) < 0)
    with pytest.raises(ValueError):
        g_of(1.0)


def test_g_of_dominates_f_inverse():
    # g is the closed-form relaxation of lam -> f_inverse at the same argument
    for x in (0.01, 0.1, 0.4, 0.7, 0.9):
        assert f_inverse(x) <= g_of(1.0 / x) + 1e-12


def test_achievability_hand_case(binary_hamming):
    res = achievability_bound(binary_hamming, math.log(4.0), math.log(2.0))
    assert res.value == pytest.approx(0.5 * 3.0 * math.exp(-2.0), abs=1e-12)
    assert res.dmax_value == pytest.approx(3.0 * math.exp(-2.0), abs=1e-12)
    assert res.w == pytest.approx(0.5, abs=1e-15)


def test_achievability_degenerates_for_very_negative_slack(binary_hamming):
    res = achievability_bound(binary_hamming, 1.0, -40.0)
    assert res.value == pytest.approx(dtilde(binary_hamming, 1.0), abs=1e-6)


def test_achievability_rejects_slack_at_rate(binary_hamming):
    with pytest.raises(ValueError):
        achievability_bound(binary_hamming, 1.0, 1.0)


def test_achievability_dominates_exact(rng):
    for _ in range(40):
        p = make_random_problem(rng)
        rate = float(rng.uniform(0.1, 3.0))
        lam = rate - float(rng.uniform(0.05, 3.0))
        bound = achievability_bound(p, rate, lam).value
        m_floor = int(math.exp(rate)) + 1
        assert bound >= exact_expected_distortion(p, m_floor).exact_distortion - 1e-12
        # continuous-codebook-size version of the same dominance
        real = float(np.sum(_segment_integral(build_dtilde1(p), math.exp(rate) + 1.0)))
        assert bound >= real - 1e-12


def test_rate_for_distortion_binary(binary_hamming):
    res = rate_for_distortion(binary_hamming, 0.25)
    assert math.isfinite(res.rate)
    assert res.rate >= math.log(2.0) - 1.0
    assert res.rate <= res.rate_g + 1e-9
    # plugging the optimizing split back into the bound recovers the target
    z = res.z
    lam = f_inverse((0.25 - z) / (dtilde(binary_hamming, 1.0) - z))
    back = achievability_bound(binary_hamming, res.rate, lam)
    assert back.value == pytest.approx(0.25, abs=1e-6)


def test_rate_for_distortion_near_full_average(binary_hamming):
    res = rate_for_distortion(binary_hamming, 0.499)
    assert 0.0 <= res.rate < 0.2


def test_rate_for_distortion_rejects_outside_range(binary_hamming):
    with pytest.raises(ValueError):
        rate_for_distortion(binary_hamming, 0.5)
    with pytest.raises(ValueError):
        rate_for_distortion(binary_hamming, 0.0)


def test_rate_for_distortion_f_below_g(rng):
    for _ in range(10):
        p = make_random_problem(rng)
        lo, hi = dtilde(p, 0.0), dtilde(p, 1.0)
        if hi - lo < 1e-3:
            continue
        d_req = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.05 * (hi - lo)))
        res = rate_for_distortion(p, d_req)
        assert res.rate <= res.rate_g + 1e-9


def test_rate_for_distortion_beats_a_dense_scan_and_is_achieved(rng):
    checked = 0
    while checked < 6:
        p = make_random_problem(rng)  # ties and zero masses included
        lo, hi = dtilde(p, 0.0), dtilde(p, 1.0)
        if hi - lo < 1e-3:
            continue
        checked += 1
        d_req = float(lo + rng.uniform(0.02, 0.98) * (hi - lo))
        res = rate_for_distortion(p, d_req)
        scan = min(rtilde(p, z) + f_inverse((d_req - z) / (hi - z))
                   for z in np.linspace(lo, d_req, 4002)[1:-1].tolist())
        assert res.rate <= max(scan, 0.0) + 1e-12
        assert res.rate <= res.rate_g + 1e-12
        m = int(math.exp(res.rate)) + 1
        assert exact_expected_distortion(p, m).exact_distortion <= d_req + 1e-9


def test_min_uniform_pdf_cdf():
    assert min_uniform_pdf(0.3, 1) == 1.0
    assert min_uniform_pdf(0.0, 2) == 2.0
    assert min_uniform_cdf(0.5, 3) == pytest.approx(0.875, abs=1e-15)
    for M in (1, 2, 5):
        val, _ = integrate.quad(lambda w: min_uniform_pdf(w, M), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert min_uniform_cdf(1.0, M) == 1.0
        assert min_uniform_cdf(0.0, M) == 0.0
