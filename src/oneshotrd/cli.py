"""Command-line toolkit routing every computation in the package.

Each subcommand is a thin adapter around the library: identical numbers to
direct calls. Exit status is 0 on success, 1 on a validation, input or
usage error, and 2 when an exact identity fails its tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .converse import (
    EQUALITY_TOL,
    converse_equality_check,
    dhat_sandwich,
    optimize_prior,
    product_prior_experiment,
)
from .dtilde import build_dtilde1, dtilde, dtilde1, rtilde, test_channel
from .excess import LEMMA4_TOL, bound_gap_comparison, excess_problem, lemma4_check
from .model import Code, EqualityCheckError, load_problem
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


def _cmd_dtilde(args) -> int:
    problem = load_problem(args.problem)
    pwl = build_dtilde1(problem)
    grid = np.union1d(np.linspace(0.0, 1.0, args.grid), pwl.breakpoints)
    vals = pwl.value(grid)
    # dtilde at w = 0 is its right limit, the first slope
    ratios = np.divide(vals, grid, out=np.full_like(vals, pwl.slopes[0]), where=grid > 0)
    rows = zip(grid.tolist(), vals.tolist(), ratios.tolist())
    _write_csv(rows, ["w", "dtilde1", "dtilde"], args.out)
    return 0


def _cmd_exact(args) -> int:
    problem = load_problem(args.problem)
    ms = [int(m) for m in args.M.split(",")]
    rows = []
    for m in ms:
        res = exact_expected_distortion(problem, m)
        mc = simulate_random_code(problem, m, args.trials, args.seed)
        bound = res.exact_distortion
        if m > 2:
            rate = math.log(m - 1)
            lams = np.linspace(rate - 4.0, rate - 1e-3, 40)
            bound = float(np.min(achievability_bound(problem, rate, lams).value))
        rows.append((m, res.exact_distortion, bound, mc.mean, mc.stderr))
    if args.out or args.csv:
        _write_csv(rows, ["M", "exact", "corollary1_bound", "mc_estimate", "mc_stderr"],
                   args.out)
    else:
        report = BoundReport("exact-random-coding")
        for m, exact, bound, mean, stderr in rows:
            report.add(f"exact[M={m}]", exact, "closed-form segment integral")
            report.add(f"bound[M={m}]", bound, "split-quantile upper bound" if m > 2
                       else "exact value (split-quantile bound needs M > 2)")
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
        report.add("z", res.z, "one minimizing distortion split, fixed to about 1e-4")
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
        check = converse_equality_check(problem, code)
        report = BoundReport("converse-equality")
        report.add("lhs", check.lhs, "optimal-encoding distortion")
        report.add("rhs", check.rhs, "dtilde at 1/M under the code prior")
        report.add("gap", check.gap, "absolute difference", tolerance=EQUALITY_TOL)
        report.emit(args.json)
        return 0
    if args.rate is None:
        raise ValueError("provide --code or --rate")
    bounds = dhat_sandwich(problem, args.rate)
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
        report.add("dhat_upper", bounds.upper, "k-median LP floor (no slack below the rate)"
                   if bounds.slack is None else "achievability over the slack grid")
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
        report.add("rhs", check.rhs, "log column-max sum", tolerance=LEMMA4_TOL)
        report.emit(args.json)
        return 0
    ep = excess_problem(problem, args.dth)
    deltas = np.linspace(0.0, dtilde(ep, 1.0), args.delta_grid)
    rows = zip(deltas.tolist(), rtilde(ep, deltas).tolist())
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
    rep = product_prior_experiment(problem, args.n, args.rate, seed=args.seed)
    report = BoundReport("product-prior-experiment")
    report.add("product_value", rep.product_value, "best memoryless prior")
    report.add("full_value", rep.full_value, "unrestricted prior")
    report.add("gap", rep.gap, "full minus product (<= 0 expected)")
    report.emit(args.json)
    return 0


# built on the first run() and reused: parse_args leaves the parser as it
# is and returns a fresh namespace, defaults included, on every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneshotrd",
        description="One-shot lossy source coding: exact values and bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, report=True, out=False, csv=False):
        # --json where a report prints, --out where CSV is written, and --csv
        # where CSV on stdout replaces the report
        p.add_argument("--problem", required=True, help="problem-spec JSON file")
        if report:
            p.add_argument("--json", action="store_true", help="emit a JSON report")
        if out or csv:
            p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        if csv:
            p.add_argument("--csv", action="store_true", help="emit CSV to stdout")

    p = sub.add_parser("dtilde", help="dump the quantile-distortion curve")
    common(p, report=False, out=True)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=_cmd_dtilde)

    p = sub.add_parser("exact", help="exact random-coding distortion plus MC check")
    common(p, csv=True)
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
    common(p, csv=True)
    p.add_argument("--code", default=None, help="comma-separated codeword indices")
    p.add_argument("--rate", type=float, default=None)
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
    common(p, out=True)
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_product_prior)

    return parser


# argparse takes only the -1 and -.5 forms of a negative number for a value,
# so run() joins any other negative float to its option ("--slack=-5e-05")
_FLOAT_OPTIONS = ("--rate", "--slack", "--dreq", "--w", "--dth")
_NEGATIVE_FLOAT = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|-inf")


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _FLOAT_OPTIONS and _NEGATIVE_FLOAT.fullmatch(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed help (status 0) or a usage error, which it
        # would end with status 2, the status of a failed identity here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except EqualityCheckError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
