"""Output checks: each parses one CLI call's output and compares it with the
independent references in refs.py, or with a property the method must have.

A check raises CheckFailure naming the first violated condition. Values
read from --json reports carry every digit; CSV output carries 12
significant digits, so a CSV value is compared with the reference over the
interval its printed argument may stand for, widened by the half unit of
its own last printed digit (half_unit). The references are monotone in that
argument, so the interval's ends bound the reference.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import refs

TOL = 1e-12        # agreement with a reference, relative above magnitude 1
VALID_TOL = 1e-9   # converse lower bound may exceed the LP minimum by this
TIGHT_TOL = 1e-6   # ... and fall below the LP value by at most this
MC_SIGMAS = 5.0
# An outcome of probability k/trials goes unseen in a sample with chance
# e^-k, and then the sample stderr does not show it either; its effect on
# the mean is at most k * spread / trials, which bounds the MC error when
# rare outcomes carry the variance (stderr near 0 at large M).
MC_UNSEEN_K = 14.0


class CheckFailure(Exception):
    """A CLI output disagrees with its reference or breaks a method property."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def close(got, ref, what: str, tol: float = TOL) -> None:
    expect(abs(got - ref) <= tol * max(1.0, abs(ref)),
           f"{what}: got {got!r}, reference {ref!r}")


def records(out: str) -> dict:
    return {r["quantity"]: r["value"] for r in json.loads(out)["records"]}


def csv_table(out: str, header: list[str]) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(out)))
    expect(rows and rows[0] == header, f"CSV header {rows[:1]} != {header}")
    expect(len(rows) > 1, "CSV has no data rows")
    return np.array([[float(v) for v in row] for row in rows[1:]])


def half_unit(v) -> np.ndarray:
    """Largest rounding error of a value printed with 12 significant digits."""
    a = np.abs(np.asarray(v, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(np.where((a > 0) & np.isfinite(a), a, 1.0)))
    return np.where((a > 0) & np.isfinite(a), 0.5 * 10.0 ** (e - 11), 0.0)


def _bracket(printed, lo_ref, hi_ref, what: str) -> None:
    slack = TOL + half_unit(printed)
    bad = ~((printed >= lo_ref - slack) & (printed <= hi_ref + slack))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckFailure(f"{what} row {i}: got {printed[i]!r}, reference in "
                           f"[{lo_ref[i]!r}, {hi_ref[i]!r}]")


def mc_consistent(mean, stderr, exact, spread, trials, what: str) -> None:
    tol = max(MC_SIGMAS * stderr, MC_UNSEEN_K * spread / trials) + TOL
    expect(abs(mean - exact) <= tol,
           f"{what}: MC {mean!r} +- {stderr!r} vs exact {exact!r}")


# --- per-command checks ----------------------------------------------------

def converse_sandwich(out: str, inst, rate: float) -> None:
    r = records(out)
    lower, upper = r["dhat_lower"], r["dhat_upper"]
    lp_value, lp_prior_value = inst.memo(("lp", rate), lambda: _lp(inst, rate))
    expect(lower <= upper, f"dhat_lower {lower!r} > dhat_upper {upper!r}")
    expect(lower <= lp_prior_value + VALID_TOL,
           f"dhat_lower {lower!r} exceeds the LP minimum {lp_prior_value!r}: "
           f"not a valid lower bound")
    expect(lower >= lp_value - TIGHT_TOL,
           f"dhat_lower {lower!r} below the LP value {lp_value!r}")
    m = int(math.floor(math.exp(rate)))
    best = inst.memo(("best", m), lambda: refs.best_code(inst.p, inst.d, m))
    if best is not None:
        expect(lower <= best + TOL,
               f"dhat_lower {lower!r} above the best {m}-code {best!r}")


def _lp(inst, rate):
    value, prior = refs.prior_lp(inst.p, inst.d, rate)
    return value, refs.dtilde(inst.p, prior, inst.d, math.exp(-rate))


def exact(out: str, inst, ms: list[int], trials: int) -> None:
    r = records(out)
    prev = math.inf
    for m in ms:
        ex = r[f"exact[M={m}]"]
        close(ex, inst.memo(("avg", m), lambda: refs.random_code_average(
            inst.p, inst.q, inst.d, m)), f"exact[M={m}]")
        mc_consistent(r[f"mc[M={m}]"], r[f"mc_stderr[M={m}]"], ex, inst.spread,
                      trials, f"mc[M={m}]")
        expect(r[f"bound[M={m}]"] >= ex - TOL,
               f"bound[M={m}] {r[f'bound[M={m}]']!r} below exact {ex!r}")
        expect(ex <= prev + TOL * max(1.0, abs(prev)),
               f"exact[M={m}] {ex!r} rose above {prev!r} at a smaller M")
        prev = ex


def simulate(out: str, inst, M: int, trials: int) -> None:
    r = records(out)
    ref = inst.memo(("avg", M), lambda: refs.random_code_average(
        inst.p, inst.q, inst.d, M))
    mc_consistent(r["mean"], r["stderr"], ref, inst.spread, trials, f"simulate[M={M}]")


def _avg_at_rate(inst, rate):
    m = math.floor(math.exp(rate)) + 1
    return inst.memo(("avg", m), lambda: refs.random_code_average(
        inst.p, inst.q, inst.d, m))


def achieve_dreq(out: str, inst, d_req: float) -> None:
    r = records(out)
    rate, rate_g = r["rate"], r["rate_g"]
    expect(0.0 <= rate <= rate_g + TOL, f"rate {rate!r} outside [0, rate_g={rate_g!r}]")
    avg = _avg_at_rate(inst, rate)
    expect(avg <= d_req + VALID_TOL,
           f"random code of floor(e^rate)+1 words averages {avg!r} > d_req {d_req!r}")


def achieve_slack(out: str, inst, rate: float, lam: float) -> None:
    r = records(out)
    avg = _avg_at_rate(inst, rate)
    expect(r["bound"] >= avg - TOL, f"bound {r['bound']!r} below the exact {avg!r}")
    expect(r["bound_dmax"] >= r["bound"] - TOL, "d_max form tighter than the bound")
    close(r["w"], math.exp(lam - rate), "split quantile w")


def dtilde_csv(out: str, inst) -> None:
    t = csv_table(out, ["w", "dtilde1", "dtilde"])
    w = t[:, 0]
    expect(w[0] == 0.0 and w[-1] == 1.0 and np.all(np.diff(w) >= 0.0),
           "w grid is not an increasing cover of [0, 1]")
    w_lo = np.clip(w - half_unit(w), 0.0, 1.0)
    w_hi = np.clip(w + half_unit(w), 0.0, 1.0)
    for col, fn in ((1, refs.dtilde1), (2, refs.dtilde)):
        _bracket(t[:, col], fn(inst.p, inst.q, inst.d, w_lo),
                 fn(inst.p, inst.q, inst.d, w_hi), ["", "dtilde1", "dtilde"][col])
    # dtilde1 is nondecreasing and convex; compare slopes only across steps
    # long enough for the printed digits to resolve them
    y, hy = t[:, 1], TOL + half_unit(t[:, 1])
    expect(np.all(np.diff(y) >= -(hy[:-1] + hy[1:])), "dtilde1 decreases")
    keep = np.concatenate(([True], np.diff(w) >= 1e-6))
    wk, yk, hk = w[keep], y[keep], hy[keep]
    dw = np.diff(wk)
    slope = np.diff(yk) / dw
    err = (hk[:-1] + hk[1:]) / dw + 1e-9
    expect(np.all(slope[1:] >= slope[:-1] - err[1:] - err[:-1]), "dtilde1 is not convex")


def converse_code(out: str, inst, code: list[int]) -> None:
    r = records(out)
    members = np.array(code)
    close(r["lhs"], float(inst.p @ inst.d[:, members].min(axis=1)),
          "lhs (min over codewords)")
    prior = np.bincount(members, minlength=inst.d.shape[1]) / len(code)
    close(r["rhs"], refs.dtilde(inst.p, prior, inst.d, 1.0 / len(code)),
          "rhs (dtilde under the code prior)")


def variational(out: str, inst, w: float) -> None:
    r = records(out)
    d1 = refs.dtilde1(inst.p, inst.q, inst.d, w)
    dt = refs.dtilde(inst.p, inst.q, inst.d, w)
    close(r["dtilde1"], d1, "dtilde1")
    close(r["sup_form"], d1, "sup_form")
    close(r["dtilde"], dt, "dtilde")
    close(r["inf_form"], dt, "inf_form")
    expect(r["channel_gap"] <= 1e-9, f"channel_gap {r['channel_gap']!r}")


def excess_sweep(out: str, inst, d_th: float) -> None:
    t = csv_table(out, ["delta", "excess_rate"])
    delta, rate = t[:, 0], t[:, 1]
    h = half_unit(delta)
    hi_rate = refs.excess_rates(inst.p, inst.q, inst.d, d_th, np.maximum(delta - h, 0.0))
    lo_rate = refs.excess_rates(inst.p, inst.q, inst.d, d_th, delta + h)
    expect(np.all(np.isfinite(rate) | np.isinf(hi_rate)),
           "excess rate is inf where the reference is finite")
    expect(np.all(np.isinf(rate) | np.isfinite(lo_rate)),
           "excess rate is finite at or below the floor")
    fin = np.isfinite(rate)
    _bracket(rate[fin], lo_rate[fin], hi_rate[fin], "excess_rate")


def m_functional(out: str, inst, rate: float) -> None:
    r = records(out)
    close(r["m"], refs.packing_channel_m(inst.p, inst.q, inst.d, rate),
          "m (column-max sum)")
