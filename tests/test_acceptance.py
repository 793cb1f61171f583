"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line. Panels of random instances are fixed
by master seeds so the whole suite is bit-reproducible.
"""

import itertools
import math
import time

import numpy as np

from conftest import make_random_problem, nonbreakpoint_w
from oneshotrd import (
    Channel,
    Code,
    Problem,
    bound_gap_comparison,
    code_distortion,
    converse_equality_check,
    dhat_sandwich,
    dtilde,
    dtilde1,
    dtilde_for_prior,
    dtilde_subgradient,
    exact_expected_distortion,
    f_inverse,
    f_of,
    info_spectrum_check,
    inf_form_value,
    lemma4_check,
    optimize_prior,
    pc_cdf,
    sample_pc_uniformity,
    simulate_random_code,
    sup_form_value,
)


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


BINARY_HAMMING = Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


def test_criterion_01_exact_formula_oracle():
    start = time.time()
    worst = 0.0
    for m in range(2, 11):
        exact = exact_expected_distortion(BINARY_HAMMING, m).exact_distortion
        brute = 0.0
        for combo in itertools.product((0, 1), repeat=m):
            brute += 0.5 ** m * code_distortion(BINARY_HAMMING, Code(combo))
        worst = max(worst, abs(exact - 2.0 ** -m), abs(brute - exact))
    elapsed = time.time() - start
    report(1, "exact formula vs closed form and brute force",
           worst <= 1e-12 and elapsed < 1.0,
           f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_exact_vs_monte_carlo_panel():
    start = time.time()
    rng = np.random.default_rng(2)
    hits = 0
    for i in range(20):
        p = make_random_problem(rng, nx=int(rng.integers(2, 9)),
                                ny=int(rng.integers(2, 9)))
        m = (2, 3, 5, 10)[i % 4]
        exact = exact_expected_distortion(p, m).exact_distortion
        mc = simulate_random_code(p, m, 100000, seed=1000 + i)
        if abs(mc.mean - exact) <= 3.0 * mc.stderr:
            hits += 1
    elapsed = time.time() - start
    report(2, "exact value inside 3 sigma of Monte Carlo",
           hits >= 19 and elapsed < 60.0,
           f"{hits}/20 cells, {elapsed:.1f}s")


def test_criterion_03_converse_equality():
    start = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        p = make_random_problem(rng)
        m = int(rng.integers(1, 7))
        code = Code(tuple(int(y) for y in rng.integers(0, p.y_size, m)))
        res = converse_equality_check(p, code, tol=1e-10)
        worst = max(worst, res.gap)
    elapsed = time.time() - start
    report(3, "code distortion equals dtilde(1/M, code prior)",
           worst <= 1e-10 and elapsed < 5.0,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_converse_dominance():
    start = time.time()
    rng = np.random.default_rng(4)
    worst = worst_gap = -math.inf
    for _ in range(20):
        p = make_random_problem(rng, nx=int(rng.integers(2, 6)),
                                ny=int(rng.integers(2, 6)))
        for m in (2, 3):
            best_code = min(
                code_distortion(p, Code(combo))
                for combo in itertools.product(range(p.y_size), repeat=m)
            )
            opt = optimize_prior(p, math.log(m))
            worst = max(worst, opt.value - best_code)
            worst_gap = max(worst_gap, opt.certificate_gap)
    elapsed = time.time() - start
    report(4, "exhaustive code minimum dominates the prior optimum",
           worst <= 1e-9 and worst_gap <= 1e-9 and elapsed < 120.0,
           f"worst (opt - code) {worst:.2e}, worst dual gap {worst_gap:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_05_variational_equalities():
    start = time.time()
    rng = np.random.default_rng(5)
    worst_sup = worst_inf = 0.0
    for _ in range(50):
        p = make_random_problem(rng)
        for _ in range(10):
            w = nonbreakpoint_w(p, rng)
            worst_sup = max(worst_sup, abs(sup_form_value(p, w) - w * dtilde(p, w)))
            worst_inf = max(
                worst_inf,
                abs(inf_form_value(p, -math.log(w)).value - dtilde(p, w)),
            )
    elapsed = time.time() - start
    report(5, "supremum and infimum forms equal the functional",
           worst_sup <= 1e-9 and worst_inf <= 1e-9 and elapsed < 30.0,
           f"sup gap {worst_sup:.2e}, inf gap {worst_inf:.2e}, {elapsed:.1f}s")


def test_criterion_06_pairwise_correct_uniformity():
    rng = np.random.default_rng(6)
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(50):
        p = make_random_problem(rng)
        for x in range(p.x_size):
            for w in grid:
                worst = max(worst, abs(pc_cdf(p, x, float(w)) - w))
    ks_ok = True
    for i in range(3):
        p = make_random_problem(rng)
        summary = sample_pc_uniformity(p, 0, 100000, seed=600 + i)
        ks_ok = ks_ok and summary.passed
    report(6, "pairwise-correct variable is exactly uniform",
           worst <= 1e-12 and ks_ok,
           f"worst grid gap {worst:.2e}, KS pass {ks_ok}")


def test_criterion_07_convexity_in_prior():
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(200):
        p = make_random_problem(rng)
        q0 = rng.dirichlet(np.ones(p.y_size))
        q1 = rng.dirichlet(np.ones(p.y_size))
        w = float(rng.uniform(0.02, 1.0))
        mid = dtilde_for_prior(p, w, 0.5 * (q0 + q1))
        avg = 0.5 * (dtilde_for_prior(p, w, q0) + dtilde_for_prior(p, w, q1))
        worst = max(worst, mid - avg)
    report(7, "midpoint convexity of the functional in the prior",
           worst <= 1e-10, f"worst violation {worst:.2e}")


def test_criterion_08_subgradient_vs_finite_differences():
    rng = np.random.default_rng(8)
    worst = 0.0
    h = 1e-6
    for _ in range(50):
        p = make_random_problem(rng)
        q = rng.dirichlet(np.ones(p.y_size) * 3.0)
        prob_q = Problem(p.p_x, q, p.d)
        w = nonbreakpoint_w(prob_q, rng, lo=0.05, hi=0.95, margin=1e-3)
        g = dtilde_subgradient(p, w, q)
        for y in range(p.y_size):
            e = np.zeros(p.y_size)
            e[y] = h
            fd = (dtilde_for_prior(p, w, q + e)
                  - dtilde_for_prior(p, w, q - e)) / (2.0 * h)
            worst = max(worst, abs(fd - g[y]))
    report(8, "duality subgradient matches central differences",
           worst <= 1e-4, f"max-norm gap {worst:.2e}")


def test_criterion_09_f_inverse_lemma_bracket():
    rng = np.random.default_rng(9)
    ok = True
    worst_rt = 0.0
    for x in rng.uniform(0.001, 0.999, 200):
        x = float(x)
        lam = f_inverse(x)
        worst_rt = max(worst_rt, abs(f_of(lam) - x))
        z = -math.log(x)
        shifted = lam - math.log(z)
        upper = math.log(2.0 / 3.0) + math.log(1.0 + math.sqrt(1.0 + 9.0 / (2.0 * z)))
        lower = -math.log(2.0) + math.log(1.0 + math.sqrt(1.0 + 8.0 / z))
        ok = ok and (lower - 1e-12 <= shifted <= upper + 1e-12)
    report(9, "f-inverse solves exactly and sits inside the bracket",
           ok and worst_rt <= 1e-10,
           f"bracket ok {ok}, worst roundtrip {worst_rt:.2e}")


def test_criterion_10_information_spectrum_relation():
    rng = np.random.default_rng(10)
    holds = 0
    for _ in range(100):
        p = make_random_problem(rng)
        rows = np.stack([rng.dirichlet(np.ones(p.y_size)) for _ in range(p.x_size)])
        joint = p.p_x[:, None] * rows
        q = joint.sum(axis=0)
        with np.errstate(divide="ignore"):
            dens = np.where(joint > 0, np.log(rows / np.where(q > 0, q, 1.0)), -np.inf)
        finite = dens[np.isfinite(dens)]
        thresh = float(rng.uniform(finite.min(), finite.max() + 0.5))
        delta = float(rng.uniform(0.0, 0.3))
        if info_spectrum_check(p, Channel(rows), thresh + delta, delta).holds:
            holds += 1
    hand = info_spectrum_check(
        BINARY_HAMMING, Channel([[0.9, 0.1], [0.1, 0.9]]), math.log(1.9), 0.0
    )
    hand_ok = (abs(hand.lhs - 0.05) <= 1e-12 and abs(hand.rhs - 0.1) <= 1e-12
               and hand.holds)
    report(10, "information-spectrum inequality",
           holds == 100 and hand_ok,
           f"{holds}/100 random triples, hand case lhs={hand.lhs:.4f} rhs={hand.rhs:.4f}")


def test_criterion_11_minimal_divergence_identity_and_gap_sweep():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(50):
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 6))
        j = rng.random((nx, ny))
        j[rng.random((nx, ny)) < 0.25] = 0.0
        if j.sum() == 0:
            j[0, 0] = 1.0
        j = j / j.sum()
        worst = max(worst, lemma4_check(j, seed=i).gap)
    sweep_ok = all(
        0.0 < bound_gap_comparison(float(x)).diff < 1.0
        for x in np.geomspace(2.0, 1e6, 400)
    )
    report(11, "divergence identity and sub-nat bound gap",
           worst <= 1e-10 and sweep_ok,
           f"worst identity gap {worst:.2e}, sweep in (0,1) {sweep_ok}")


def test_criterion_12_sandwich():
    start = time.time()
    rng = np.random.default_rng(12)
    ok = True
    worst = -math.inf
    for _ in range(20):
        p = make_random_problem(rng, nx=int(rng.integers(2, 6)),
                                ny=int(rng.integers(2, 6)))
        for rate in (0.5, 1.0, 2.0):
            bounds = dhat_sandwich(p, rate)
            opt = optimize_prior(p, rate)
            worst = max(worst, bounds.lower - bounds.upper)
            ok = (ok and bounds.lower <= bounds.upper + 1e-9
                  and bounds.lower == opt.dual_bound
                  and opt.certificate_gap <= 1e-9)
    elapsed = time.time() - start
    report(12, "prior-optimized lower bound below the achievable upper bound",
           ok, f"worst (lower - upper) {worst:.2e}, {elapsed:.1f}s")
