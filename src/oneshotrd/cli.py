"""Command-line toolkit routing every computation in the package.

Each subcommand is a thin adapter around the library: identical numbers to
direct calls. Exit status is 0 on success, 1 on a validation or input
error, and 2 when an exact identity fails its tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .converse import (
    converse_equality_check,
    dhat_sandwich,
    dtilde_subgradient,
    optimize_prior,
)
from .dtilde import build_dtilde1, dtilde, dtilde1, dtilde_for_prior, test_channel
from .excess import bound_gap_comparison, excess_problem, excess_rate, lemma4_check
from .model import (
    Code,
    EqualityCheckError,
    InvariantViolation,
    Problem,
    ProblemFormatError,
    load_problem,
)
from .montecarlo import simulate_random_code
from .random_coding import (
    achievability_bound,
    exact_expected_distortion,
    rate_for_distortion,
)
from .variational import inf_form_value, sup_form_value

FMT = "%.12g"  # 12 significant digits everywhere


class BoundRecord(NamedTuple):
    quantity: str
    value: float
    method: str
    tolerance: float | None


@dataclass
class BoundReport:
    """Named collection of computed quantities, printable as text or JSON."""

    name: str
    records: list[BoundRecord] = field(default_factory=list)

    def add(self, quantity: str, value: float, method: str,
            tolerance: float | None = None) -> None:
        self.records.append(BoundRecord(quantity, float(value), method, tolerance))

    def emit(self, as_json: bool) -> None:
        if as_json:
            doc = {
                "name": self.name,
                "records": [r._asdict() for r in self.records],
            }
            print(json.dumps(doc, indent=2))
        else:
            for r in self.records:
                tol = "" if r.tolerance is None else f"  (tol {FMT % r.tolerance})"
                print(f"{r.quantity} = {FMT % r.value}  [{r.method}]{tol}")


class ProductPriorReport(NamedTuple):
    n: int
    rate: float
    product_value: float
    product_prior: np.ndarray
    full_value: float
    gap: float


def _write_csv(rows, header, out: str | None) -> None:
    handle = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FMT % v if isinstance(v, float) else v for v in row])
    finally:
        if out:
            handle.close()


def _product_power(vec: np.ndarray, n: int) -> np.ndarray:
    return reduce(np.kron, [vec] * n)



def _single_letter_grid(ny: int, step: float):
    """Compositions of 1.0 at resolution `step` over ny letters."""
    n = round(1.0 / step)

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield np.array(prefix + [remaining]) / n
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    yield from rec([], n, ny)


def product_problem(base: Problem, n: int) -> Problem:
    """n-fold memoryless extension with per-letter averaged distortion."""
    nx, ny = base.x_size, base.y_size
    d = np.zeros((nx ** n, ny ** n))
    for i in range(n):
        left = np.ones((nx ** i, ny ** i))
        right = np.ones((nx ** (n - 1 - i), ny ** (n - 1 - i)))
        d += np.kron(np.kron(left, base.d), right)
    return Problem(_product_power(base.p_x, n), _product_power(base.q_y, n), d / n)


def product_prior_experiment(
    base: Problem,
    n: int,
    rate: float,
    *,
    cap: int = 4096,
    iterations: int = 300,
    random_starts: int = 4,
    seed: int = 0,
) -> ProductPriorReport:
    """Best memoryless prior vs the unrestricted prior on the n-fold source.

    Optimizes the single-letter prior through the product map by
    multiplicative weights, then solves the full-simplex LP exactly, so
    full_value <= product_value holds up to solver tolerance. Exploratory:
    the sign and size of the remaining gap are reported, not asserted.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ny_n = base.y_size ** n
    if ny_n > cap:
        raise ValueError(f"|Y|^n = {ny_n} exceeds the cap {cap}")
    if base.x_size ** n * ny_n > 1 << 22:
        raise ValueError("product instance too large")
    prod = product_problem(base, n)
    total_rate = n * rate
    if n == 1:
        # identical search spaces; one optimization answers both questions
        res = optimize_prior(base, total_rate)
        return ProductPriorReport(1, rate, res.value, res.q_star, res.value, 0.0)

    w = math.exp(-total_rate)
    ny = base.y_size
    digits = (np.arange(ny_n)[:, None] // ny ** np.arange(n)[None, :]) % ny
    counts = np.stack([(digits == y).sum(axis=1) for y in range(ny)]).astype(float)

    def single_objective(q: np.ndarray) -> tuple[float, np.ndarray]:
        qn = _product_power(q, n)
        val = dtilde_for_prior(prod, w, qn)
        g_full = dtilde_subgradient(prod, w, qn)
        g = counts @ (g_full * qn) / np.maximum(q, 1e-300)
        return val, g

    rng = np.random.default_rng(seed)
    starts = [np.full(ny, 1.0 / ny)]
    starts += [rng.dirichlet(np.ones(ny)) for _ in range(random_starts)]
    eta0 = 1.0 / (1.0 + prod.d_max / w)
    best_val, best_q = math.inf, starts[0]
    for q0 in starts:
        q = np.clip(q0, 1e-300, None)
        q = q / q.sum()
        for t in range(1, iterations + 1):
            val, g = single_objective(q)
            if val < best_val:
                best_val, best_q = val, q.copy()
            q = q * np.exp(-(eta0 / math.sqrt(t)) * (g - g.min()))
            q = q / q.sum()

    # descent through the product map stalls on kinks; sweep a coarse
    # single-letter grid and polish before trusting the memoryless value
    if ny <= 4:
        step = 0.02 if ny <= 3 else 0.05
        for q in _single_letter_grid(ny, step):
            val = dtilde_for_prior(prod, w, _product_power(q, n))
            if val < best_val:
                best_val, best_q = val, q

    def softmax_objective(theta: np.ndarray) -> float:
        e = np.exp(theta - theta.max())
        return dtilde_for_prior(prod, w, _product_power(e / e.sum(), n))

    theta0 = np.log(np.clip(best_q, 1e-12, None))
    nm = minimize(softmax_objective, theta0, method="Nelder-Mead",
                  options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-13})
    e = np.exp(nm.x - nm.x.max())
    q_nm = e / e.sum()
    val_nm = dtilde_for_prior(prod, w, _product_power(q_nm, n))
    if val_nm < best_val:
        best_val, best_q = val_nm, q_nm

    full = optimize_prior(prod, total_rate)
    gap = full.value - best_val
    if gap > 1e-9:
        raise EqualityCheckError(
            "full-simplex optimum exceeded the product-prior value"
        )
    return ProductPriorReport(n, rate, float(best_val), best_q, full.value, float(gap))


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _cmd_dtilde(args) -> int:
    problem = load_problem(args.problem)
    pwl = build_dtilde1(problem)
    grid = np.union1d(np.linspace(0.0, 1.0, args.grid), pwl.breakpoints)
    rows = [
        (float(w), dtilde1(problem, float(w)), dtilde(problem, float(w)))
        for w in grid
    ]
    _write_csv(rows, ["w", "dtilde1", "dtilde"], args.out)
    return 0


def _cmd_exact(args) -> int:
    problem = load_problem(args.problem)
    ms = [int(m) for m in args.M.split(",")]
    rows = []
    for m in ms:
        res = exact_expected_distortion(problem, m)
        mc = simulate_random_code(problem, m, args.trials, args.seed)
        if m >= 2:
            rate = math.log(m - 1) if m > 1 else 0.0
            lams = np.linspace(rate - 4.0, rate - 1e-3, 40)
            bound = min(
                achievability_bound(problem, rate, lam).value
                for lam in lams
            ) if rate > 0 else res.exact_distortion
        else:
            bound = res.exact_distortion
        rows.append((m, res.exact_distortion, bound, mc.mean, mc.stderr))
    if args.out or args.csv:
        _write_csv(rows, ["M", "exact", "corollary1_bound", "mc_estimate", "mc_stderr"],
                   args.out)
    else:
        report = BoundReport("exact-random-coding")
        for m, exact, bound, mean, stderr in rows:
            report.add(f"exact[M={m}]", exact, "closed-form segment integral")
            report.add(f"bound[M={m}]", bound, "split-quantile upper bound")
            report.add(f"mc[M={m}]", mean, f"monte carlo ({args.trials} trials)")
            report.add(f"mc_stderr[M={m}]", stderr, "sample standard error")
        report.emit(args.json)
    return 0


def _cmd_achieve(args) -> int:
    problem = load_problem(args.problem)
    report = BoundReport("achievability")
    if args.dreq is not None:
        res = rate_for_distortion(problem, args.dreq)
        report.add("rate", res.rate, "exact f-inverse minimization")
        report.add("rate_g", res.rate_g, "closed-form g relaxation")
        report.add("z", res.z, "argmin distortion split")
    else:
        if args.rate is None or args.slack is None:
            raise ValueError("provide either --dreq or both --rate and --slack")
        res = achievability_bound(problem, args.rate, args.slack)
        report.add("bound", res.value, "split-quantile form")
        report.add("bound_dmax", res.dmax_value, "d_max form")
        report.add("w", res.w, "split quantile")
    report.emit(args.json)
    return 0


def _cmd_converse(args) -> int:
    problem = load_problem(args.problem)
    if args.code is not None:
        code = Code(tuple(int(i) for i in args.code.split(",")))
        check = converse_equality_check(problem, code, tol=args.tol)
        report = BoundReport("converse-equality")
        report.add("lhs", check.lhs, "optimal-encoding distortion")
        report.add("rhs", check.rhs, "dtilde at 1/M under the code prior")
        report.add("gap", check.gap, "absolute difference", tolerance=args.tol)
        report.emit(args.json)
        return 0
    if args.rate is None:
        raise ValueError("provide --code or --rate")
    lam_grid = _parse_floats(args.lambdas) if args.lambdas else None
    bounds = dhat_sandwich(problem, args.rate, lam_grid)
    if args.out or args.csv:
        row = (args.rate, bounds.lower, bounds.upper,
               *[float(v) for v in bounds.q_star])
        header = ["R", "dhat_lower", "dhat_upper"] + [
            f"q_star_{y}" for y in range(problem.y_size)
        ]
        _write_csv([row], header, args.out)
    else:
        report = BoundReport("dhat-sandwich")
        report.add("dhat_lower", bounds.lower, "k-median LP dual bound")
        report.add("dhat_upper", bounds.upper, "achievability over the slack grid")
        report.emit(args.json)
    return 0


def _cmd_optimize_prior(args) -> int:
    problem = load_problem(args.problem)
    res = optimize_prior(problem, args.rate)
    report = BoundReport("optimize-prior")
    report.add("value", res.value, "k-median LP, HiGHS")
    report.add("dual_bound", res.dual_bound, "k-median LP dual, recomputed in numpy")
    report.add("certificate_gap", res.certificate_gap, "value minus dual_bound")
    for y, q in enumerate(res.q_star):
        report.add(f"q_star[{y}]", float(q), "optimized prior mass")
    report.emit(args.json)
    return 0


def _cmd_variational(args) -> int:
    problem = load_problem(args.problem)
    w = args.w
    direct1 = dtilde1(problem, w)
    direct = dtilde(problem, w)
    sup_val = sup_form_value(problem, w)
    inf_res = inf_form_value(problem, -math.log(w))
    chan_gap = float(np.max(np.abs(
        inf_res.channel.w - test_channel(problem, w).w
    )))
    report = BoundReport("variational-forms")
    report.add("dtilde1", direct1, "piecewise representation")
    report.add("sup_form", sup_val, "optimal-test power at the witness")
    report.add("dtilde", direct, "piecewise representation")
    report.add("inf_form", inf_res.value, "capacity-capped greedy channel")
    report.add("channel_gap", chan_gap, "max entry difference", tolerance=1e-9)
    report.emit(args.json)
    if abs(sup_val - direct1) > 1e-9 or abs(inf_res.value - direct) > 1e-9:
        raise EqualityCheckError("variational forms disagree beyond 1e-9")
    if chan_gap > 1e-9:
        raise EqualityCheckError("greedy channel disagrees with the packing channel")
    return 0


def _cmd_excess(args) -> int:
    problem = load_problem(args.problem)
    if args.gap_sweep:
        xs = np.geomspace(2.0, 1e6, args.sweep_points)
        rows = []
        for x in xs:
            cmp_ = bound_gap_comparison(float(x))
            rows.append((float(x), cmp_.ours, cmp_.theirs, cmp_.diff))
        _write_csv(rows, ["x", "g", "loglog", "diff"], args.out)
        return 0
    if args.m_functional:
        w = math.exp(-args.rate)
        channel = test_channel(problem, w)
        joint = problem.p_x[:, None] * channel.w
        check = lemma4_check(joint)
        report = BoundReport("m-functional")
        report.add("m", math.exp(check.rhs), "column-max sum")
        report.add("lhs", check.lhs, "max-divergence at the explicit minimizer")
        report.add("rhs", check.rhs, "log column-max sum", tolerance=1e-10)
        report.emit(args.json)
        return 0
    ep = excess_problem(problem, args.dth)
    ceil = dtilde(ep, 1.0)
    deltas = np.linspace(0.0, ceil, args.delta_grid)
    rows = [(float(dl), excess_rate(problem, float(dl), args.dth))
            for dl in deltas]
    _write_csv(rows, ["delta", "excess_rate"], args.out)
    return 0


def _cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    mc = simulate_random_code(problem, args.M, args.trials, args.seed)
    report = BoundReport("simulate")
    report.add("mean", mc.mean, f"monte carlo ({mc.trials} trials, seed {mc.seed})")
    report.add("stderr", mc.stderr, "sample standard error")
    report.emit(args.json)
    return 0


def _cmd_product_prior(args) -> int:
    problem = load_problem(args.problem)
    rep = product_prior_experiment(
        problem, args.n, args.rate, cap=args.cap, seed=args.seed,
    )
    report = BoundReport("product-prior-experiment")
    report.add("product_value", rep.product_value, "best memoryless prior")
    report.add("full_value", rep.full_value, "unrestricted prior")
    report.add("gap", rep.gap, "full minus product (<= 0 expected)")
    report.emit(args.json)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneshotrd",
        description="One-shot lossy source coding: exact values and bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv_out=False):
        p.add_argument("--problem", required=True, help="problem-spec JSON file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if csv_out:
            p.add_argument("--out", default=None, help="CSV output path (default stdout)")
            p.add_argument("--csv", action="store_true", help="emit CSV to stdout")

    p = sub.add_parser("dtilde", help="dump the quantile-distortion curve")
    common(p, csv_out=True)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=_cmd_dtilde)

    p = sub.add_parser("exact", help="exact random-coding distortion plus MC check")
    common(p, csv_out=True)
    p.add_argument("--M", required=True, help="codebook size(s), comma separated")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("achieve", help="achievability bounds")
    common(p)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--slack", type=float, default=None, help="lam below the rate")
    p.add_argument("--dreq", type=float, default=None, help="target distortion")
    p.set_defaults(func=_cmd_achieve)

    p = sub.add_parser("converse", help="code equality check or prior sandwich")
    common(p, csv_out=True)
    p.add_argument("--code", default=None, help="comma-separated codeword indices")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--lambdas", default=None, help="slack grid, comma separated")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_converse)

    p = sub.add_parser("optimize-prior", help="minimize dtilde over priors")
    common(p)
    p.add_argument("--rate", type=float, required=True)
    p.set_defaults(func=_cmd_optimize_prior)

    p = sub.add_parser("variational", help="equality of the two variational forms")
    common(p)
    p.add_argument("--w", type=float, required=True)
    p.set_defaults(func=_cmd_variational)

    p = sub.add_parser("excess", help="excess-distortion curves and comparisons")
    common(p, csv_out=True)
    p.add_argument("--dth", type=float, default=0.0)
    p.add_argument("--delta-grid", type=int, default=51)
    p.add_argument("--gap-sweep", action="store_true")
    p.add_argument("--sweep-points", type=int, default=200)
    p.add_argument("--m-functional", action="store_true")
    p.add_argument("--rate", type=float, default=1.0)
    p.set_defaults(func=_cmd_excess)

    p = sub.add_parser("simulate", help="Monte Carlo estimate only")
    common(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("product-prior-experiment",
                       help="memoryless vs unrestricted prior on a product source")
    common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--cap", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_product_prior)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EqualityCheckError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (ProblemFormatError, InvariantViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
