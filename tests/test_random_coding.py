import contextlib
import io
import itertools
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import make_random_problem, problems, quarter_problems
from oneshotrd import (
    Problem,
    achievability_bound,
    best_achievability,
    code_distortion,
    dtilde,
    dtilde_inverse,
    exact_expected_distortion,
    f_inverse,
    f_of,
    g_of,
    load_problem,
    rate_for_distortion,
    rtilde,
    save_problem,
)
from oneshotrd.cli import run
from oneshotrd.dtilde import build_dtilde1
from oneshotrd.random_coding import _e2, _segment_integral, _sign_changes, _split
from oracles import (
    achievability_bound_scalar,
    exact_split_quantile_bound,
    g_m,
    min_uniform_cdf,
    min_uniform_pdf,
    rate_interior_minima,
    rate_sum,
    segment_integral_by_ends,
    segment_scan_lams,
    segment_scan_splits,
    sign_changes_column_stack,
)

GOLDEN = Path(__file__).parent / "golden"


def brute_force_random_code(problem, M):
    """Exact expectation by enumerating every codebook of M prior draws."""
    total = 0.0
    for combo in itertools.product(range(problem.y_size), repeat=M):
        prob = float(np.prod(problem.q_y[list(combo)]))
        if prob == 0.0:
            continue
        total += prob * code_distortion(problem, combo)
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
    assert exact_expected_distortion(binary_hamming, 2) == pytest.approx(0.25, abs=1e-15)
    assert exact_expected_distortion(binary_hamming, 3) == pytest.approx(0.125, abs=1e-15)


def test_exact_constant_distortion():
    p = Problem([0.3, 0.7], [0.5, 0.5], [[0.42, 0.42], [0.42, 0.42]])
    for M in (1, 2, 5, 40):
        assert exact_expected_distortion(p, M) == pytest.approx(0.42, abs=1e-13)


def test_exact_m1_is_full_average(rng):
    p = make_random_problem(rng)
    expect = float(np.sum(p.p_x[:, None] * p.q_y[None, :] * p.d))
    assert exact_expected_distortion(p, 1) == pytest.approx(expect, abs=1e-14)


def test_exact_matches_brute_force(rng):
    for _ in range(15):
        p = make_random_problem(rng, ny=int(rng.integers(2, 4)))
        for M in (2, 3, 4):
            exact = exact_expected_distortion(p, M)
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
            exact = exact_expected_distortion(p, M)
            assert exact == pytest.approx(total, abs=1e-8)


def test_exact_segments_sum_to_total(rng):
    p = make_random_problem(rng)
    exact = exact_expected_distortion(p, 6)
    assert 0.0 <= exact <= p.d_max


def test_exact_nonincreasing_in_m(rng):
    for _ in range(10):
        p = make_random_problem(rng)
        vals = [exact_expected_distortion(p, M) for M in range(1, 12)]
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
        e = exact_expected_distortion(problem, M)
        assert lo - 1e-12 <= e <= lo + (hi - lo) * tail * ((M - 1) * w1 + 1) + 1e-12, M
        values.append(e)
    # rounding can lift E(M) by an ulp where it has reached dtilde(0)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values


def test_exact_dominates_converse_value(rng):
    for _ in range(15):
        p = make_random_problem(rng)
        for M in (2, 3, 5):
            assert dtilde(p, 1.0 / M) <= exact_expected_distortion(p, M) + 1e-12


def test_f_of_values():
    assert f_of(0.0) == pytest.approx(2.0 / math.e, abs=1e-15)
    assert f_of(math.log(2.0)) == pytest.approx(3.0 * math.exp(-2.0), abs=1e-15)
    assert f_of(-50.0) == pytest.approx(1.0, abs=1e-12)
    assert f_of(900.0) == 0.0
    lams = np.linspace(-5, 5, 200)
    assert np.all(np.diff([f_of(t) for t in lams]) < 0)


@settings(max_examples=200, deadline=None)
@given(lams=st.lists(st.floats(), min_size=1, max_size=20))
@example(lams=[-math.inf, -745.2, 0.0, 709.0, 700.0, 700.5, 1e6, math.inf, math.nan])
def test_f_of_array_entries_equal_the_scalar_calls(lams):
    arr = f_of(np.array(lams))
    assert arr.shape == (len(lams),)
    for k, lam in enumerate(lams):
        one = f_of(lam)
        assert type(one) is float
        assert float(arr[k]).hex() == one.hex(), lam
    assert f_of(np.array(lams)[::-1].reshape(1, -1)).tobytes() == arr[::-1].tobytes()


def test_f_of_at_its_ends_and_along_a_grid():
    assert f_of(-math.inf) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (700.5, 1e6, math.inf):
            assert f_of(lam) == 0.0
        assert f_of(np.array([700.5, 1e6, math.inf])).tolist() == [0.0] * 3
        assert math.isnan(f_of(math.nan))
    assert np.all(np.diff(f_of(np.linspace(-50.0, 710.0, 20001))) <= 0.0)


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


@settings(max_examples=100, deadline=None)
@given(problem=problems(), data=st.data())
def test_achievability_array_matches_scalar_calls(problem, data):
    rate = data.draw(st.floats(0.0, 20.0))
    gaps = data.draw(st.lists(st.floats(1e-3, 800.0), min_size=1, max_size=10))
    # exact's grid, drawn slacks, and lam - rate where exp underflows to w = 0
    lams = np.concatenate([np.linspace(rate - 4.0, rate - 1e-3, 40),
                           rate - np.array(gaps), [rate - 800.0, -math.inf]])
    res = achievability_bound(problem, rate, lams)
    for k, lam in enumerate(lams.tolist()):
        one = achievability_bound(problem, rate, lam)
        old = achievability_bound_scalar(problem, rate, lam)
        for name in ("value", "dmax_value", "w"):
            assert type(getattr(one, name)) is float
            want = getattr(old, name).hex()
            assert getattr(one, name).hex() == want, (name, lam)
            assert float(getattr(res, name)[k]).hex() == want, (name, lam)
    # one lam at or above the rate, or nan, anywhere in the array
    bad = data.draw(st.floats(rate, rate + 5.0) | st.just(math.inf) | st.just(math.nan))
    at = data.draw(st.integers(0, lams.size))
    with pytest.raises(ValueError, match="lam must be below the rate"):
        achievability_bound(problem, rate, np.insert(lams, at, bad))


def test_achievability_bound_takes_a_2d_lam_as_the_flat_call_reshaped(rng):
    problem, rate = make_random_problem(rng, 5, 6), 1.3
    lams = rate - rng.uniform(1e-3, 10.0, (4, 7))
    two = achievability_bound(problem, rate, lams)
    flat = achievability_bound(problem, rate, lams.ravel())
    for name in ("value", "dmax_value", "w"):
        assert getattr(two, name).shape == (4, 7)
        assert getattr(two, name).tobytes() == getattr(flat, name).reshape(4, 7).tobytes()


@settings(max_examples=60, deadline=None)
@given(problem=problems(), ms=st.lists(st.integers(3, 5000), min_size=1, max_size=3))
def test_exact_bound_lies_between_exact_and_the_forty_point_grid(problem, ms):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        save_problem(problem, path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["exact", "--problem", str(path), "--M", ",".join(map(str, ms)),
                        "--trials", "2", "--json"])
        # a file with a subnormal prior mass is refused on load
        if np.any((problem.q_y > 0) & (problem.q_y < np.finfo(float).tiny)):
            assert (code, err.getvalue()) == (1, "error: q_y has subnormal entries\n")
            return
        assert code == 0
        loaded = load_problem(path)
    got = {r["quantity"]: r["value"] for r in json.loads(out.getvalue())["records"]}
    for m in ms:
        bound = got[f"bound[M={m}]"]
        assert bound.hex() == best_achievability(loaded, math.log(m - 1)).value.hex()
        # at a breakpoint b, dtilde's c / b + s cancels to the rounding of s,
        # so the bound may read a few ulps below the exact average it dominates
        assert bound >= got[f"exact[M={m}]"] - 1e-12
        # the old 40-point grid over [rate - 4, rate - 1e-3] stays the reference
        assert bound <= exact_split_quantile_bound(loaded, m) + 1e-15 * max(1.0, bound)


def _exact_bound(path, m):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["exact", "--problem", str(path), "--M", str(m), "--trials", "2",
                    "--json"]) == 0
    return {r["quantity"]: r["value"]
            for r in json.loads(out.getvalue())["records"]}[f"bound[M={m}]"]


def test_exact_bound_at_m3_on_binary_hamming_is_one_over_e():
    # the breakpoint w = 1/2 at lam = 0 gives f(0) / 2 = 1/e; the 40-point
    # grid read 0.37253198647492114
    bound = _exact_bound(GOLDEN / "binary_hamming.json", 3)
    assert abs(bound - math.exp(-1.0)) <= math.ulp(math.exp(-1.0))


def test_exact_bound_at_m4096_reaches_the_best_slack(tmp_path):
    # the best slack, about 4.6 = -log 0.01 below the rate, lies past the
    # old grid's 4: that grid read 0.8128, the exact average is 0.05
    path = tmp_path / "p.json"
    save_problem(Problem([0.11, 0.84, 0.05], [0.01, 0.48, 0.51],
                         [[0.0, 0.0, 3.0], [0.0, 2.0, 2.0], [2.0, 1.0, 3.0]]), path)
    problem = load_problem(path)
    bound = _exact_bound(path, 4096)
    assert exact_split_quantile_bound(problem, 4096) > bound + 0.1
    assert exact_expected_distortion(problem, 4096) <= bound < 0.0501


@settings(max_examples=150, deadline=None)
@given(problem=problems() | quarter_problems(), m=st.integers(3, 5000))
# dtilde is about 1e-233 up to w = 0.83, on a segment that is not exactly flat:
# at its end, np.exp(rate + log b - rate) puts w 3.3e-16 above b, on the next
# segment, of slope 3, where the bound reads 1.2e-15 against the scan's 1.3e-22
@example(problem=Problem([1.0], np.array([0, 19, 0, 64, 28]) / 111,
                         [[0, 3, 0, 1.06655185e-233, 0]]), m=67)
# the one rising segment starts at b = 0.00196; read only at the lam below rate + log b,
# the bound stood 1.05e-15 above the scan's 0.4650658917788041, which rate + log b gives
@example(problem=Problem([1, 0, 0, 0], [0, 0.9980442947851766, 0, 0.0019557052148233395],
                         [[0, 1, 0, 0], [0] * 4, [0] * 4, [0] * 4]), m=916)
def test_best_achievability_returns_the_bound_at_its_lam(problem, m):
    rate = math.log(m - 1)
    best = best_achievability(problem, rate)
    assert best.lam < rate
    assert best.value.hex() == achievability_bound(problem, rate, best.lam).value.hex()
    scan = float(np.min(achievability_bound(problem, rate, segment_scan_lams(problem, rate)).value))
    assert best.value <= scan + 1e-15 * max(1.0, abs(best.value))


def test_best_achievability_reads_the_flat_end_from_below(tmp_path):
    # dtilde(0) = 0 on the flat segment up to b1 = 0.424, and f(lam) underflows
    # there at M = 4096, so the bound is 0 just below b1; at b1 itself the next
    # segment's c / b1 + s cancels to 1.1e-16
    problem = Problem([0.608, 0.392], [0.525, 0.424, 0.051], [[0, 2, 0], [1, 0, 2]])
    rate = math.log(4095)
    b1 = float(build_dtilde1(problem).breakpoints[1])
    assert achievability_bound(problem, rate, rate + math.log(b1)).value > 0.0
    assert best_achievability(problem, rate).value == 0.0
    path = tmp_path / "p.json"
    save_problem(problem, path)
    assert _exact_bound(path, 4096) == 0.0


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_best_achievability_at_extreme_rates_and_scales(scale):
    # the slope's exponentials and products stay finite (a RuntimeWarning
    # fails the test), from a tiny rate to one whose e^rate overflows, with d
    # near the smallest and the largest doubles
    base = load_problem(GOLDEN / "integer_6x5.json")
    problem = Problem(base.p_x, base.q_y, base.d * scale)
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    for rate in (1e-300, 5.0, 709.7, 1e5, 1e17):
        best = best_achievability(problem, rate)
        assert best.value == achievability_bound(problem, rate, best.lam).value
        assert lo * (1 - 1e-12) <= best.value <= hi * (1 + 1e-12), rate


def test_achievability_dominates_exact(rng):
    for _ in range(40):
        p = make_random_problem(rng)
        rate = float(rng.uniform(0.1, 3.0))
        lam = rate - float(rng.uniform(0.05, 3.0))
        bound = achievability_bound(p, rate, lam).value
        m_floor = int(math.exp(rate)) + 1
        assert bound >= exact_expected_distortion(p, m_floor) - 1e-12
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


@settings(max_examples=100, deadline=None)
@given(problem=problems() | quarter_problems(), frac=st.floats(0.02, 0.98))
# the rate is 709.894, past log of the largest double
@example(problem=Problem([1.0], [0, 0, 0, 2.0**-1022, 1], [[0, 0, 0, 0, 1]]), frac=0.0625)
def test_rate_for_distortion_beats_a_dense_scan_and_is_achieved(problem, frac):
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    assume(hi - lo > 1e-9 * max(1.0, hi))
    d_req = lo + frac * (hi - lo)
    res = rate_for_distortion(problem, d_req)
    splits = segment_scan_splits(problem, d_req, 64)
    for value, use_g in ((res.rate, False), (res.rate_g, True)):
        scan = max(float(np.min(rate_sum(problem, d_req, splits, use_g))), 0.0)
        assert value <= scan + 1e-15 * max(1.0, abs(value)), use_g
    # the rate is the sum at its split, as a scalar call gives it
    y = (d_req - res.z) / (hi - res.z)
    assert res.rate == max(rtilde(problem, res.z) + f_inverse(y), 0.0)
    assert res.rate <= res.rate_g
    # floor(e^rate) + 1 codewords, at most the largest double plus one: the
    # exact average does not rise with M, so the cap only makes the check stronger
    big = int(sys.float_info.max) + 1
    m = big if res.rate > math.log(big - 1) else min(int(math.exp(res.rate)) + 1, big)
    assert exact_expected_distortion(problem, m) <= d_req + 1e-9


def _rate_queries_problem(n, seed=0):
    """The rate-queries benchmark's n x n instance, n of 4, 20, 50 and 100, at rng
    seed `seed`: Dirichlet masses and integer d, redrawn until dtilde spans over 0.05."""
    rng = np.random.default_rng(seed)
    for size in (4, 20, 50, 100):
        while True:
            p = Problem(rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size)),
                        rng.integers(0, 5, (size, size)).astype(float))
            if dtilde(p, 1.0) - dtilde(p, 0.0) > 0.05:
                break
        if size == n:
            return p
        rng.uniform(0.5, 2.5)  # the rate of the benchmark's --slack call


# (rate, z, rate_g) as float.hex: the rate-queries benchmark's instances at seed 0,
# each at a quarter, a half and three quarters of (dtilde(0), dtilde(1)), and the
# 6x5 golden at d_req 0.9 and 2.0; in all but the 4-letter cases and bench-50-0.5,
# bench-50-0.75, bench-100-0.25 and bench-100-0.5 at least one form brackets a root
# of its slope, and the root moves the result
PINNED_RATES = {
    "bench-4-0.25": ("0x1.27c130b81fd53p+1", "0x1.0bc8b93e32fc7p+0", "0x1.3041e119bcf30p+1"),
    "bench-4-0.5": ("0x1.b1e78147e13cep+0", "0x1.0bc8b93e32fc7p+0", "0x1.bacab3a6c7187p+0"),
    "bench-4-0.75": ("0x1.0706252a0bb72p+0", "0x1.929c16c92d9a3p+0", "0x1.0d87b79de382ap+0"),
    "bench-20-0.25": ("0x1.6484fe089c3f8p+1", "0x1.5dc20b6abe919p-2", "0x1.6d7c82b9f2c2ap+1"),
    "bench-20-0.5": ("0x1.01b7cf45e53e1p+1", "0x1.5058ca1ce8bf4p-1", "0x1.07b58b78185dfp+1"),
    "bench-20-0.75": ("0x1.33e6dc95dcc4ap+0", "0x1.0404d80e73fefp+0", "0x1.3aedca14a97fap+0"),
    "bench-50-0.25": ("0x1.5345eae1db49cp+1", "0x1.5988652816988p-2", "0x1.5c55d83e7fde2p+1"),
    "bench-50-0.5": ("0x1.d08fe1ae3875ep+0", "0x1.3700111da83b8p-1", "0x1.dc44a8736311cp+0"),
    "bench-50-0.75": ("0x1.0f5de378d80c4p+0", "0x1.c7b5d260dcecap-1", "0x1.15ba76df63054p+0"),
    "bench-100-0.25": ("0x1.46dd2c881225fp+1", "0x1.1a2a44e900aacp-2", "0x1.4f302ae47a455p+1"),
    "bench-100-0.5": ("0x1.cb4f266558432p+0", "0x1.2a3bc633f5318p-1", "0x1.d6e5e0c435f61p+0"),
    "bench-100-0.75": ("0x1.0c85b3320e745p+0", "0x1.c0dfdd9c6aebap-1", "0x1.12ea07586cb3ap+0"),
    "6x5-0.9": ("0x1.2748075aa91b7p+2", "0x1.92a72dce79b62p-1", "0x1.2c137f834039ap+2"),
    "6x5-2.0": ("0x1.2e5fbddc15bdcp+0", "0x1.8ebb1e59c339ep+0", "0x1.341aca45e003ap+0"),
}


@pytest.mark.parametrize("case", PINNED_RATES)
def test_rate_for_distortion_keeps_its_pinned_bits(case):
    where, at = case.rsplit("-", 1)
    if where == "6x5":
        problem, d_req = load_problem(GOLDEN / "integer_6x5.json"), float(at)
    else:
        problem = _rate_queries_problem(int(where.split("-")[1]))
        lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
        d_req = lo + float(at) * (hi - lo)
    res = rate_for_distortion(problem, d_req)
    assert (res.rate.hex(), res.z.hex(), res.rate_g.hex()) == PINNED_RATES[case]


# the slopes of rate_for_distortion's two forms (in u, against rho) and of
# best_achievability's (in lam at rate 0, against a >= 0 and d1 - s)
_SLOPES = {
    "rate": lambda x, rho, _: rho - _split(x, False)[1],
    "rate_g": lambda x, rho, _: rho - _split(x, True)[1],
    "slack": lambda x, a, e: abs(a) - (abs(a) + e * np.exp(x)) / _e2(np.exp(np.minimum(x, 6.5))),
    "line": lambda x, c, _: x - c,
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_SLOPES)),
       rows=st.lists(st.tuples(st.floats(1e-6, 60.0), st.floats(0.0, 60.0),
                               st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), max_size=6))
def test_sign_changes_matches_the_column_stack_grid(kind, rows):
    lo, width, c, e = np.array(rows, dtype=float).reshape(-1, 4).T
    hi = lo + width
    if kind == "slack":
        lo, hi = -lo, -lo + width  # brackets on both sides of the rate, 0
    if kind == "line":
        c = lo + (hi - lo) * (c + 4.0) / 8.0  # a root inside every bracket
    want = sign_changes_column_stack(_SLOPES[kind], lo, hi, c, e)
    got = _sign_changes(_SLOPES[kind], lo, hi, c, e)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(problem=problems() | quarter_problems(), frac=st.floats(0.02, 0.98))
def test_rate_sum_has_at_most_one_minimum_inside_each_segment(problem, frac):
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    assume(hi - lo > 1e-9 * max(1.0, hi))
    d_req = lo + frac * (hi - lo)
    for use_g in (False, True):
        counts = rate_interior_minima(problem, d_req, use_g)
        assert np.all(counts <= 1), (use_g, counts)


def test_min_uniform_pdf_cdf():
    assert min_uniform_pdf(0.3, 1) == 1.0
    assert min_uniform_pdf(0.0, 2) == 2.0
    assert min_uniform_cdf(0.5, 3) == pytest.approx(0.875, abs=1e-15)
    for M in (1, 2, 5):
        val, _ = integrate.quad(lambda w: min_uniform_pdf(w, M), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert min_uniform_cdf(1.0, M) == 1.0
        assert min_uniform_cdf(0.0, M) == 0.0


@settings(max_examples=150, deadline=None)
@given(problem=problems() | quarter_problems(),
       m=st.integers(2, 64) | st.integers(2, 10**18))
def test_one_pass_integral_matches_the_scalar_ends(problem, m):
    pw = build_dtilde1(problem)
    terms = _segment_integral(pw, m)
    oracle = segment_integral_by_ends(pw, m)
    np.testing.assert_allclose(terms, oracle, rtol=0.0, atol=1e-15)
    assert abs(float(np.sum(terms)) - float(np.sum(oracle))) <= 1e-15


def test_exact_reaches_the_largest_m():
    # M - 1 up to the largest double: the survival powers underflow to 0,
    # and c * M, for a segment's intercept c = v - s b, which overflows for
    # |c| beyond 1.8, is not formed, so the average is dtilde(0) and not nan
    base = load_problem(GOLDEN / "integer_6x5.json")
    problem = Problem(base.p_x, base.q_y, base.d * 1e3)
    for m in (10**308, int(sys.float_info.max) + 1):
        assert exact_expected_distortion(problem, m) == pytest.approx(
            dtilde(problem, 0.0), rel=1e-15)


@pytest.mark.parametrize("m", [0, -3, int(sys.float_info.max) + 2, 10**400],
                         ids=["0", "-3", "max+2", "10**400"])
def test_exact_rejects_m_out_of_range(binary_hamming, m):
    with pytest.raises(ValueError, match="M must be at least 1"):
        exact_expected_distortion(binary_hamming, m)


def test_rate_g_is_finite_where_y_is_subnormal(binary_hamming):
    # y = (1e-323 - 5e-324) / (0.5 - 5e-324) is subnormal and 1/y overflows
    res = rate_for_distortion(binary_hamming, 1e-323)
    assert math.isfinite(res.rate) and math.isfinite(res.rate_g)
    assert res.z == 5e-324
    assert res.rate_g == pytest.approx(7.594039265, abs=1e-9)


@pytest.mark.parametrize("golden", ["binary_hamming", "integer_6x5"])
def test_rate_for_distortion_rejects_a_target_with_no_split_inside(golden):
    # the next double above dtilde(0) (5e-324 on binary_hamming) leaves no
    # split strictly between
    problem = load_problem(GOLDEN / f"{golden}.json")
    d_req = math.nextafter(dtilde(problem, 0.0), 1.0)
    with pytest.raises(ValueError, match=f"no distortion split.*{d_req!r}"):
        rate_for_distortion(problem, d_req)


# problems() alone gives a dtilde flat on [0, 1] so often that lo < hi filtered
# out 50 of its first 59 inputs at some seeds; quarter_problems() gives fewer flat ones
@settings(max_examples=100, deadline=None)
@given(problem=problems() | quarter_problems(), data=st.data())
def test_rate_for_distortion_raises_or_is_finite(problem, data):
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    assume(lo < hi)
    ulps = data.draw(st.integers(1, 8))
    near = lo
    for _ in range(ulps):
        near = math.nextafter(near, math.inf)
    across = lo + data.draw(st.floats(0.0, 1.0)) * (hi - lo)
    for d_req in (near, across):
        if not lo < d_req < hi:
            continue
        try:
            res = rate_for_distortion(problem, d_req)
        except ValueError as exc:
            assert "no distortion split" in str(exc)
            continue
        assert math.isfinite(res.rate) and math.isfinite(res.rate_g), d_req
