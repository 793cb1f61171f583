"""Command-line toolkit routing every computation in the package.

run() parses the arguments, loads the problem once and hands it to the
subcommand's adapter, which calls the library and returns a BoundReport or
a CSV table; run() prints the report (text or --json) or writes the table
(--out or stdout). The numbers are those of direct library calls. Exit
status is 0 on success, 1 on a validation, input or usage error, and 2
when an exact identity fails its tolerance, with nothing on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .excess import (
    LEMMA4_TOL,
    bound_gap_comparison,
    excess_problem,
    lemma4_check,
    m_functional,
)
from .model import EqualityCheckError, load_problem, scaled_tol
from .montecarlo import simulate_random_code, simulate_random_codes
from .random_coding import (
    achievability_bound,
    best_achievability,
    exact_expected_distortion,
    rate_for_distortion,
)
from .variational import VARIATIONAL_TOL, variational_check

FMT = "%.12g"  # 12 significant digits everywhere
_RECORDS = json.JSONEncoder(separators=(",\n      ", ": "))


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
            # json.dumps(doc, indent=2)'s bytes from the C encoder, which CPython
            # skips where indent is set; no encoded string holds a raw newline
            records = _RECORDS.encode([r._asdict() for r in self.records])
            if self.records:
                records = "[\n    {\n      " + records[2:-2].replace(
                    "},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]"
            print(f'{{\n  "name": {json.dumps(self.name)},\n  "records": {records}\n}}')
        else:
            for r in self.records:
                tol = "" if r.tolerance is None else f"  (tol {FMT % r.tolerance})"
                print(f"{r.quantity} = {FMT % r.value}  [{r.method}]{tol}")


def _write_csv(header, rows, out: str | None) -> None:
    # csv.writer's bytes with FMT for each float, under the table rule below
    rows = [tuple(row) for row in rows]
    fmt = ",".join(FMT if isinstance(v, float) else "%s" for v in rows[0]) + "\r\n" if rows else ""
    text = ",".join(header) + "\r\n" + "".join([fmt % row for row in rows])
    with (open(out, "w", newline="", encoding="utf-8") if out
          else contextlib.nullcontext(sys.stdout)) as handle:
        handle.write(text)


# Each _cmd_* adapter takes the loaded problem and the parsed arguments and
# returns a BoundReport or a CSV table (header, rows); run() prints it. In a
# table every column holds one type, int or float, and no header needs quoting:
# _write_csv takes each column's format from the first row.

def _cmd_dtilde(problem, args):
    grid = np.union1d(np.linspace(0.0, 1.0, args.grid), build_dtilde1(problem).breakpoints)
    return ["w", "dtilde1", "dtilde"], zip(
        grid.tolist(), dtilde1(problem, grid).tolist(), dtilde(problem, grid).tolist())


def _cmd_exact(problem, args):
    ms = [int(m) for m in args.M.split(",")]
    exact = [exact_expected_distortion(problem, m) for m in ms]  # every M's first range check,
    mcs = simulate_random_codes(problem, ms, args.trials, args.seed)  # then its second
    rows = [(m, e, best_achievability(problem, math.log(m - 1)).value if m > 2 else e,
             mc.mean, mc.stderr) for m, e, mc in zip(ms, exact, mcs)]
    if args.out or args.csv:
        return ["M", "exact", "corollary1_bound", "mc_estimate", "mc_stderr"], rows
    report = BoundReport("exact-random-coding")
    for m, exact, bound, mean, stderr in rows:
        report.add(f"exact[M={m}]", exact, "closed-form segment integral")
        report.add(f"bound[M={m}]", bound, "split-quantile upper bound" if m > 2
                   else "exact value (split-quantile bound needs M > 2)")
        report.add(f"mc[M={m}]", mean, f"monte carlo ({args.trials} trials)")
        report.add(f"mc_stderr[M={m}]", stderr, "sample standard error")
    return report


def _cmd_achieve(problem, args):
    report = BoundReport("achievability")
    if args.dreq is not None:
        res = rate_for_distortion(problem, args.dreq)
        report.add("rate", res.rate, "exact f-inverse minimization")
        report.add("rate_g", res.rate_g, "closed-form g relaxation")
        report.add("z", res.z, "minimizing distortion split: a segment end or the slope's root")
        return report
    if args.rate is None or args.slack is None:
        raise ValueError("provide either --dreq or both --rate and --slack")
    res = achievability_bound(problem, args.rate, args.slack)
    report.add("bound", res.value, "split-quantile form")
    report.add("bound_dmax", res.dmax_value, "d_max form")
    report.add("w", res.w, "split quantile")
    return report


def _cmd_converse(problem, args):
    if args.code is not None:
        check = converse_equality_check(problem, [int(i) for i in args.code.split(",")])
        report = BoundReport("converse-equality")
        report.add("lhs", check.lhs, "optimal-encoding distortion")
        report.add("rhs", check.rhs, "dtilde at 1/M under the code prior")
        report.add("gap", check.gap, "absolute difference",
                   tolerance=scaled_tol(problem, EQUALITY_TOL))
        return report
    if args.rate is None:
        raise ValueError("provide --code or --rate")
    bounds = dhat_sandwich(problem, args.rate)
    if args.out or args.csv:
        header = ["R", "dhat_lower", "dhat_upper"] + [
            f"q_star_{y}" for y in range(problem.y_size)
        ]
        return header, [(args.rate, bounds.lower, bounds.upper,
                         *[float(v) for v in bounds.q_star])]
    report = BoundReport("dhat-sandwich")
    report.add("dhat_lower", bounds.lower, "k-median LP dual bound")
    report.add("dhat_upper", bounds.upper, "floor over the prior's support"
               if bounds.M is None else f"exact random-code average at M = {bounds.M:.12g}")
    return report


def _cmd_optimize_prior(problem, args):
    res = optimize_prior(problem, args.rate)
    report = BoundReport("optimize-prior")
    report.add("value", res.value, "k-median LP, HiGHS")
    report.add("dual_bound", res.dual_bound, "k-median LP dual, recomputed in numpy")
    report.add("certificate_gap", res.certificate_gap, "value minus dual_bound")
    for y, q in enumerate(res.q_star):
        report.add(f"q_star[{y}]", float(q), "optimized prior mass")
    return report


def _cmd_variational(problem, args):
    check = variational_check(problem, args.w)
    report = BoundReport("variational-forms")
    report.add("dtilde1", check.dtilde1, "piecewise representation")
    report.add("sup_form", check.sup_form, "optimal-test power at the witness")
    report.add("dtilde", check.dtilde, "piecewise representation")
    report.add("inf_form", check.inf_form, "capacity-capped greedy channel")
    report.add("channel_gap", check.channel_gap, "max entry difference",
               tolerance=VARIATIONAL_TOL)
    return report


def _cmd_excess(problem, args):
    if args.gap_sweep:
        xs = np.geomspace(2.0, 1e6, args.sweep_points)
        return ["x", "g", "loglog", "diff"], np.column_stack(
            [xs, *bound_gap_comparison(xs)]).tolist()
    if args.m_functional:
        w = math.exp(-args.rate)
        joint = problem.p_x[:, None] * test_channel(problem, w)
        check = lemma4_check(joint)
        report = BoundReport("m-functional")
        report.add("m", m_functional(joint), "column-max sum")
        report.add("lhs", check.lhs, "max-divergence at the explicit minimizer")
        report.add("rhs", check.rhs, "log column-max sum", tolerance=LEMMA4_TOL)
        return report
    ep = excess_problem(problem, args.dth)
    deltas = np.linspace(0.0, dtilde(ep, 1.0), args.delta_grid)
    return ["delta", "excess_rate"], zip(deltas.tolist(), rtilde(ep, deltas).tolist())


def _cmd_simulate(problem, args):
    mc = simulate_random_code(problem, args.M, args.trials, args.seed)
    report = BoundReport("simulate")
    report.add("mean", mc.mean, f"monte carlo ({mc.trials} trials, seed {mc.seed})")
    report.add("stderr", mc.stderr, "sample standard error")
    return report


def _cmd_product_prior(problem, args):
    rep = product_prior_experiment(problem, args.n, args.rate, seed=args.seed)
    report = BoundReport("product-prior-experiment")
    report.add("product_value", rep.product_value, "best memoryless prior")
    report.add("full_value", rep.full_value, "unrestricted prior")
    report.add("gap", rep.gap, "full minus product (<= 0 expected)")
    return report


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
        # the gap sweep is the one mode that reads no problem
        problem = None if getattr(args, "gap_sweep", False) else load_problem(args.problem)
        result = args.func(problem, args)
        if isinstance(result, BoundReport):
            result.emit(args.json)
        else:
            _write_csv(*result, args.out)
    except EqualityCheckError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
