"""Tests of the benchmark's own references and output checks.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Each reference reproduces hand cases; each output check accepts a correct
output written in the CLI's format and rejects one value perturbed by more
than its tolerance. None of this imports oneshotrd.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import refs
from workloads import Instance, panel_instance

P2 = np.array([0.5, 0.5])
HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def _inst(p, q, d) -> Instance:
    with tempfile.TemporaryDirectory() as tmp:
        return Instance(Path(tmp) / "p.json", np.asarray(p, float), np.asarray(q, float),
                        np.asarray(d, float))


def _random_inst(seed) -> Instance:
    with tempfile.TemporaryDirectory() as tmp:
        return panel_instance(np.random.default_rng(seed), Path(tmp) / "p.json")


def _report(values: dict) -> str:
    return json.dumps({"name": "t", "records": [
        {"quantity": k, "value": v, "method": "", "tolerance": None}
        for k, v in values.items()]})


def _csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join("%.12g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _rejects(check, *args, **kwargs) -> bool:
    try:
        check(*args, **kwargs)
    except checks.CheckFailure:
        return True
    return False


# --- references on hand cases ----------------------------------------------

def test_binary_hamming_dtilde():
    assert abs(refs.dtilde(P2, P2, HAMMING, 0.75) - 1.0 / 3.0) < 1e-15
    assert refs.dtilde(P2, P2, HAMMING, 0.0) == 0.0
    assert abs(refs.dtilde(P2, P2, HAMMING, 1.0) - 0.5) < 1e-15


def test_binary_hamming_random_code():
    assert abs(refs.random_code_average(P2, P2, HAMMING, 4) - 2.0 ** -4) < 1e-16
    assert abs(refs.random_code_average(P2, P2, HAMMING, 1) - 0.5) < 1e-16


def test_binary_hamming_lp_at_log2():
    value, prior = refs.prior_lp(P2, HAMMING, math.log(2.0))
    assert abs(value) < 1e-12
    assert abs(refs.dtilde(P2, prior, HAMMING, 0.5)) < 1e-12


def test_binary_hamming_best_code():
    assert refs.best_code(P2, HAMMING, 1) == 0.5
    assert refs.best_code(P2, HAMMING, 2) == 0.0


def test_binary_hamming_excess_rates():
    # indicator = d; dtilde(w) = 1 - 0.5 / w, so the rate is log(2 (1 - delta))
    rates = refs.excess_rates(P2, P2, HAMMING, 0.5, [0.0, 0.25, 0.5])
    assert rates[0] == math.inf
    assert abs(rates[1] - math.log(1.5)) < 1e-15
    assert rates[2] == 0.0


def test_binary_hamming_packing_channel():
    assert abs(refs.packing_channel_m(P2, P2, HAMMING, math.log(2.0)) - 2.0) < 1e-15
    assert abs(refs.packing_channel_m(P2, P2, HAMMING, 0.0) - 1.0) < 1e-15


def test_references_agree_on_random_instances():
    for seed in range(20):
        inst = _random_inst(seed)
        p, q, d = inst.p, inst.q, inst.d
        full = refs.dtilde(p, q, d, 1.0)
        assert abs(refs.random_code_average(p, q, d, 1) - full) < 1e-12
        assert abs(refs.random_code_average(p, q, d, 10**9) - refs.dtilde(p, q, d, 0.0)) < 1e-9
        for rate in (0.3, 1.0, 1.7):
            value, prior = refs.prior_lp(p, d, rate)
            assert abs(refs.dtilde(p, prior, d, math.exp(-rate)) - value) < 1e-9
            best = refs.best_code(p, d, math.floor(math.exp(rate)))
            assert value <= best + 1e-12


# --- each check accepts the truth and rejects a perturbed value -------------

def test_converse_sandwich_check():
    inst = _random_inst(3)
    lp, _ = refs.prior_lp(inst.p, inst.d, 1.0)
    good = {"dhat_lower": lp, "dhat_upper": lp + 0.5}
    checks.converse_sandwich(_report(good), inst, 1.0)
    for bad in ({"dhat_lower": lp + 1e-8}, {"dhat_lower": lp - 1e-5},
                {"dhat_upper": lp - 1e-3}):
        assert _rejects(checks.converse_sandwich, _report({**good, **bad}), inst, 1.0)


def _exact_values(inst, ms, stderr=0.01):
    out = {}
    for m in ms:
        ex = refs.random_code_average(inst.p, inst.q, inst.d, m)
        out.update({f"exact[M={m}]": ex, f"bound[M={m}]": ex + 0.1,
                    f"mc[M={m}]": ex + stderr, f"mc_stderr[M={m}]": stderr})
    return out


def test_exact_check():
    inst = _random_inst(5)
    ms = [1, 2, 7]
    good = _exact_values(inst, ms)
    checks.exact(_report(good), inst, ms, 1000)
    ex = good["exact[M=2]"]
    for bad in ({"exact[M=2]": ex + 1e-11 * max(1.0, ex)},
                {"mc[M=2]": ex + 6 * 0.01},
                {"bound[M=2]": ex - 1e-11}):
        assert _rejects(checks.exact, _report({**good, **bad}), inst, ms, 1000)
    # a sample without its rare outcomes has stderr near 0; the allowance is
    # then k * spread / trials
    flat = {**good, "mc_stderr[M=7]": 0.0, "mc[M=7]": good["exact[M=7]"]}
    checks.exact(_report(flat), inst, ms, 1000)
    off = {**flat, "mc[M=7]": good["exact[M=7]"] + 15.0 * inst.spread / 1000}
    assert _rejects(checks.exact, _report(off), inst, ms, 1000)


def test_simulate_check():
    inst = _random_inst(6)
    ref = refs.random_code_average(inst.p, inst.q, inst.d, 4)
    checks.simulate(_report({"mean": ref + 0.02, "stderr": 0.01}), inst, 4, 1000)
    assert _rejects(checks.simulate, _report({"mean": ref + 0.06, "stderr": 0.01}), inst, 4, 1000)


def test_achieve_checks():
    inst = _inst(P2, P2, HAMMING)
    # rate log 3 gives 4 codewords, which average 2^-4
    rate = math.log(3.0) + 1e-9
    checks.achieve_dreq(_report({"rate": rate, "rate_g": rate + 0.1}), inst, 2.0 ** -4)
    assert _rejects(checks.achieve_dreq, _report({"rate": rate, "rate_g": rate - 1e-11}),
                    inst, 2.0 ** -4)
    assert _rejects(checks.achieve_dreq, _report({"rate": rate, "rate_g": rate}),
                    inst, 2.0 ** -4 - 1e-8)
    lam = rate - 1.0
    good = {"bound": 2.0 ** -4, "bound_dmax": 0.2, "w": math.exp(lam - rate)}
    checks.achieve_slack(_report(good), inst, rate, lam)
    for bad in ({"bound": 2.0 ** -4 - 1e-11}, {"w": math.exp(-1.0) + 1e-11},
                {"bound_dmax": 2.0 ** -4 - 1e-11}):
        assert _rejects(checks.achieve_slack, _report({**good, **bad}), inst, rate, lam)


def test_dtilde_csv_check():
    inst = _random_inst(7)
    w = np.union1d(np.linspace(0.0, 1.0, 21), [1.0 / 3.0, 0.123456789012345])
    rows = np.column_stack([w, refs.dtilde1(inst.p, inst.q, inst.d, w),
                            refs.dtilde(inst.p, inst.q, inst.d, w)])
    checks.dtilde_csv(_csv(["w", "dtilde1", "dtilde"], rows), inst)
    for col in (1, 2):
        bad = rows.copy()
        bad[5, col] += 1e-10
        assert _rejects(checks.dtilde_csv, _csv(["w", "dtilde1", "dtilde"], bad), inst)


def test_converse_code_check():
    inst = _random_inst(8)
    code = [0, 0, inst.d.shape[1] - 1]
    lhs = float(inst.p @ inst.d[:, code].min(axis=1))
    checks.converse_code(_report({"lhs": lhs, "rhs": lhs, "gap": 0.0}), inst, code)
    for bad in ({"lhs": lhs + 1e-11}, {"rhs": lhs - 1e-11}):
        assert _rejects(checks.converse_code, _report({"lhs": lhs, "rhs": lhs, **bad}),
                        inst, code)


def test_variational_check():
    inst = _random_inst(9)
    w = 0.4
    d1, dt = refs.dtilde1(inst.p, inst.q, inst.d, w), refs.dtilde(inst.p, inst.q, inst.d, w)
    good = {"dtilde1": d1, "sup_form": d1, "dtilde": dt, "inf_form": dt, "channel_gap": 0.0}
    checks.variational(_report(good), inst, w)
    for key in ("dtilde1", "sup_form", "dtilde", "inf_form"):
        assert _rejects(checks.variational, _report({**good, key: good[key] + 1e-11}), inst, w)
    assert _rejects(checks.variational, _report({**good, "channel_gap": 1e-8}), inst, w)


def test_excess_sweep_check():
    inst = _inst(P2, P2, HAMMING)
    deltas = np.linspace(0.0, 0.5, 11)
    rates = refs.excess_rates(P2, P2, HAMMING, 0.5, deltas)
    rows = np.column_stack([deltas, rates])
    checks.excess_sweep(_csv(["delta", "excess_rate"], rows), inst, 0.5)
    bad = rows.copy()
    bad[4, 1] += 1e-10
    assert _rejects(checks.excess_sweep, _csv(["delta", "excess_rate"], bad), inst, 0.5)
    bad = rows.copy()
    bad[0, 1] = 30.0   # finite where delta is at the floor
    assert _rejects(checks.excess_sweep, _csv(["delta", "excess_rate"], bad), inst, 0.5)


def test_m_functional_check():
    inst = _inst(P2, P2, HAMMING)
    checks.m_functional(_report({"m": 2.0}), inst, math.log(2.0))
    assert _rejects(checks.m_functional, _report({"m": 2.0 + 1e-11}), inst, math.log(2.0))


def test_half_unit():
    assert checks.half_unit(1.0) == 5e-12
    assert checks.half_unit(0.0) == 0.0
    assert abs(checks.half_unit(0.0123) - 5e-14) < 1e-28


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception as exc:   # report every test, then fail the run
            failed += 1
            print(f"FAIL  {name}: {exc!r}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
