import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oneshotrd
import oneshotrd.converse as converse_mod
from conftest import dense_prior_lp, make_random_problem
from oneshotrd import (
    EqualityCheckError,
    Problem,
    dtilde,
    dtilde1,
    exact_expected_distortion,
    load_problem,
    optimize_prior,
    save_problem,
)
from oneshotrd.cli import _FLOAT_OPTIONS, BoundReport, _build_parser, _write_csv, run
from oneshotrd.converse import product_prior_experiment, product_problem
from oracles import write_csv_per_value


@pytest.fixture
def binary_path(tmp_path):
    path = tmp_path / "binary.json"
    path.write_text(json.dumps(
        {"p_x": [0.5, 0.5], "q_y": [0.5, 0.5], "d": [[0, 1], [1, 0]]}
    ))
    return str(path)


def test_exact_subcommand_matches_library(binary_path, capsys):
    assert run(["exact", "--problem", binary_path, "--M", "2",
                "--trials", "2000", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "exact[M=2] = 0.25 " in out
    assert "mc[M=2]" in out


def test_exact_subcommand_csv(binary_path, capsys):
    assert run(["exact", "--problem", binary_path, "--M", "2,3",
                "--trials", "1000", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "M,exact,corollary1_bound,mc_estimate,mc_stderr"
    assert lines[1].startswith("2,0.25,")
    assert lines[2].startswith("3,0.125,")


def test_converse_subcommand(binary_path, capsys):
    assert run(["converse", "--problem", binary_path, "--code", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "lhs = 0 " in out and "rhs = 0 " in out and "gap = 0 " in out


def test_dtilde_subcommand_grid_plus_breakpoints(binary_path, capsys):
    assert run(["dtilde", "--problem", binary_path, "--grid", "101"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "w,dtilde1,dtilde"
    assert len(lines) - 1 >= 101  # uniform grid already contains 0.5 here
    assert lines[-1].split(",")[0] == "1"


def test_variational_subcommand(binary_path, capsys):
    assert run(["variational", "--problem", binary_path, "--w", "0.75"]) == 0
    out = capsys.readouterr().out
    assert "sup_form = 0.25 " in out


def test_achieve_subcommands(binary_path, capsys):
    assert run(["achieve", "--problem", binary_path,
                "--rate", str(math.log(4.0)), "--slack", str(math.log(2.0))]) == 0
    out = capsys.readouterr().out
    assert "bound = 0.203002924855" in out
    assert run(["achieve", "--problem", binary_path, "--dreq", "0.25",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {r["quantity"]: r["value"] for r in doc["records"]}
    assert names["rate"] <= names["rate_g"] + 1e-9


def test_optimize_prior_subcommand(binary_path, capsys):
    assert run(["optimize-prior", "--problem", binary_path,
                "--rate", str(math.log(2.0)), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {r["quantity"]: r["value"] for r in doc["records"]}
    assert names["value"] <= 1e-8
    assert names["dual_bound"] <= names["value"]
    assert names["certificate_gap"] == names["value"] - names["dual_bound"]
    assert names["certificate_gap"] <= 1e-9
    methods = {r["quantity"]: r["method"] for r in doc["records"]}
    assert methods["value"] == "k-median LP, HiGHS"


def test_large_rates_exit_zero(binary_path, capsys):
    for rate in ("60", "1000", "1e17", "inf"):
        assert run(["optimize-prior", "--problem", binary_path,
                    "--rate", rate, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {r["quantity"]: r["value"] for r in doc["records"]}
        assert names["value"] == 0.0 and names["certificate_gap"] <= 1e-12
        assert run(["converse", "--problem", binary_path, "--rate", rate]) == 0
        capsys.readouterr()


def test_nan_rate_exits_one(binary_path, capsys):
    for cmd in ("converse", "optimize-prior"):
        assert run([cmd, "--problem", binary_path, "--rate", "nan"]) == 1
        assert "error: rate must be nonnegative, got nan" in capsys.readouterr().err


def test_converse_rate_solves_each_distinct_lp_once(rng, tmp_path, monkeypatch, capsys):
    # one LP, the rate's; the CSV prior reuses it
    path = tmp_path / "rand.json"
    save_problem(make_random_problem(rng, nx=4, ny=4), path)
    sizes = []
    real = converse_mod.linprog

    def recording(cost, start, index, coef, lower, upper):
        sizes.append(upper[-1])  # the last row is sum_y r_y = t
        return real(cost, start, index, coef, lower, upper)

    monkeypatch.setattr(converse_mod, "linprog", recording)
    assert run(["converse", "--problem", str(path), "--rate", "1", "--csv"]) == 0
    assert sizes == [math.exp(1.0)]
    capsys.readouterr()


def test_converse_labels_the_floor_where_no_slack_runs(binary_path, capsys):
    # the upper end's method names its rule and M = floor(e^rate)
    assert run(["converse", "--problem", binary_path, "--rate", "inf"]) == 0
    assert "dhat_upper = 0  [floor over the prior's support]" in capsys.readouterr().out
    for rate, m in (("0", 1), ("0.5", 1), ("0.7", 2), ("700", "1.01423205474e+304")):
        assert run(["converse", "--problem", binary_path, "--rate", rate]) == 0
        assert f"  [exact random-code average at M = {m}]" in capsys.readouterr().out


def test_excess_subcommands(binary_path, capsys):
    assert run(["excess", "--problem", binary_path, "--dth", "0",
                "--delta-grid", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta,excess_rate"
    assert len(lines) == 6
    assert run(["excess", "--problem", binary_path, "--gap-sweep",
                "--sweep-points", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,g,loglog,diff"
    diffs = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(0.0 < d < 1.0 for d in diffs)
    assert run(["excess", "--problem", binary_path, "--m-functional",
                "--rate", "0.3"]) == 0


def test_m_functional_reports_the_column_max_sum_itself(tmp_path, capsys):
    # every column max is 1, so m is 3.0, while exp(log 3) is 3.0000000000000004
    path = tmp_path / "ternary.json"
    save_problem(Problem(np.full(3, 1 / 3), np.full(3, 1 / 3), 1 - np.eye(3)), path)
    assert run(["excess", "--problem", str(path), "--m-functional",
                "--rate", "2", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert records[0]["quantity"] == "m" and records[0]["value"] == 3.0


def test_simulate_subcommand(binary_path, capsys):
    assert run(["simulate", "--problem", binary_path, "--M", "2",
                "--trials", "2000", "--seed", "1"]) == 0
    assert "mean = " in capsys.readouterr().out


def test_converse_sandwich_csv(binary_path, capsys):
    assert run(["converse", "--problem", binary_path, "--rate", "0.6931471805599453",
                "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "R,dhat_lower,dhat_upper,q_star_0,q_star_1"
    row = [float(v) for v in lines[1].split(",")]
    assert row[1] <= row[2]
    assert abs(row[1]) <= 1e-9
    np.testing.assert_allclose(row[3:], [0.5, 0.5], atol=1e-6)


def test_cli_reports_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p_x": [0.5, 0.5], "q_y": [0.5, 0.5],
                               "d": [[0, -1], [1, 0]]}))
    assert run(["exact", "--problem", str(bad), "--M", "2"]) == 1
    assert "negative distortion" in capsys.readouterr().err


def test_cli_rejects_subnormal_prior_mass(tmp_path, capsys):
    bad = tmp_path / "subnormal.json"
    bad.write_text(json.dumps({"p_x": [1.0], "q_y": [1.0, 2.2e-313],
                               "d": [[0.25, 0.0]]}))
    assert run(["achieve", "--problem", str(bad), "--dreq", "0.1"]) == 1
    assert capsys.readouterr().err == "error: q_y has subnormal entries\n"


@pytest.mark.parametrize("command", ["converse", "optimize-prior"])
def test_cli_reports_a_failed_lp(tmp_path, capsys, monkeypatch, command):
    # a HiGHS run that ends without an optimum, forced, on costs p_x d_xy of 5e20
    monkeypatch.setattr(converse_mod, "linprog", lambda *lp: ("Unknown", None, None))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p_x": [0.5, 0.5], "q_y": [0.5, 0.5],
                                "d": [[0, 1e21], [1e21, 0]]}))
    assert run([command, "--problem", str(path), "--rate", "0.3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: k-median LP failed (largest cost p_x d_xy = "
                                 "5e+20): HiGHS model status Unknown\n")


# the records that hold a distortion, which scales with d; every other one (a
# rate, a prior mass, w, channel_gap) keeps its bits
SCALED_RECORDS = re.compile(r"(exact|bound|mc|mc_stderr)\[M=\d+\]|dhat_(lower|upper)|lhs|rhs|gap"
                            r"|value|dual_bound|certificate_gap|z|bound(_dmax)?|dtilde1?"
                            r"|(sup|inf)_form")


@st.composite
def scale_problems(draw):
    """1 to 8 letters a side; masses on a grid of eighths with zeros, so the
    prior ties too; d on quarters (ties) or 0 and [1/16, 4]: no product
    p_x d_xy nears the subnormals at d * 2^-40, where scaling stops being exact."""
    def simplex(n):
        v = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), dtype=float)
        assume(v.any())
        return v / v.sum()

    p, q = simplex(draw(st.integers(1, 8))), simplex(draw(st.integers(1, 8)))
    entry = (st.integers(0, 8).map(lambda i: i / 4) if draw(st.booleans())
             else st.just(0.0) | st.floats(1 / 16, 4.0))
    d = draw(st.lists(entry, min_size=p.size * q.size, max_size=p.size * q.size))
    return Problem(p, q, np.reshape(d, (p.size, q.size)))


@settings(max_examples=100, deadline=None)
@given(problem=scale_problems(), k=st.integers(-40, 40), rate=st.floats(0.0, 2.5),
       slack=st.floats(1e-3, 3.0), w=st.floats(1e-200, 1.0),
       split=st.just(0.0) | st.floats(1e-200, 1.0), data=st.data())
def test_every_distortion_the_cli_prints_scales_bit_for_bit_with_d(
        tmp_path_factory, problem, k, rate, slack, w, split, data):
    # at d * 2^k every call prints what it prints at d, each distortion (and
    # its tolerance) times 2^k; d_req and d_th are distortions and scale too.
    # w and a nonzero split stay above 1e-200, so that dtilde1(w) = w dtilde(w)
    # and d_req stay normal
    code = ",".join(map(str, data.draw(st.lists(st.integers(0, problem.y_size - 1),
                                                min_size=1, max_size=4))))
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    d_th = data.draw(st.sampled_from(problem.d.ravel().tolist()) | st.floats(0.0, 4.0))
    calls = [(["exact", "--M", "1,2,5", "--trials", "30", "--seed", "1"], None),
             (["converse", "--rate", repr(rate)], None),
             (["converse", "--code", code], None),
             (["optimize-prior", "--rate", repr(rate)], None),
             (["achieve", "--dreq"], lo + split * (hi - lo)),
             (["achieve", "--rate", repr(rate), "--slack", repr(rate - slack)], None),
             (["variational", "--w", repr(w)], None),
             (["excess", "--delta-grid", "5", "--dth"], d_th)]
    folder = tmp_path_factory.mktemp("scale")
    paths = []
    for name, d in (("unit", problem.d), ("scaled", np.ldexp(problem.d, k))):
        paths.append(str(folder / f"{name}.json"))
        save_problem(Problem(problem.p_x, problem.q_y, d), paths[-1])
    # scaled_tol's floor, the smallest normal double, holds at every scale
    floor = not problem.d[problem.p_x > 0].any()
    for call, value in calls:
        runs = [_run_captured([call[0], "--problem", path, *call[1:],
                               *([] if value is None else [repr(math.ldexp(value, j))]),
                               *([] if call[0] == "excess" else ["--json"])])
                for path, j in zip(paths, (0, k))]
        (status, unit, _), (scaled_status, scaled, _) = runs
        assert scaled_status == status, call
        if call[0] == "excess" or status != 0:
            assert scaled == unit, call
            continue
        for a, b in zip(json.loads(unit)["records"], json.loads(scaled)["records"], strict=True):
            j = k if SCALED_RECORDS.fullmatch(a["quantity"]) else 0
            if a["quantity"] == "z" and a["value"] == 5e-324:
                j = 0  # the split one double above dtilde(0) = 0, at every scale
            assert (b["quantity"], b["method"]) == (a["quantity"], a["method"])
            assert b["value"].hex() == math.ldexp(a["value"], j).hex(), (call, a, b)
            if a["tolerance"] is not None:
                assert b["tolerance"] == math.ldexp(a["tolerance"], 0 if floor else j), (call, a, b)


def test_cli_rejects_out_of_range_code(binary_path, capsys):
    assert run(["converse", "--problem", binary_path, "--code", "5"]) == 1
    assert "error: code member out of range" in capsys.readouterr().err


def test_cli_reports_missing_file(capsys):
    assert run(["exact", "--problem", "/nonexistent.json", "--M", "2"]) == 1


def test_gap_sweep_reads_no_problem(binary_path):
    sweep = ["excess", "--gap-sweep", "--sweep-points", "5"]
    missing = _run_captured([sweep[0], "--problem", "/nonexistent.json", *sweep[1:]])
    assert missing == _run_captured([sweep[0], "--problem", binary_path, *sweep[1:]])
    assert missing[0] == 0 and missing[1].startswith("x,g,loglog,diff")


def test_cli_assertion_failures_exit_2(binary_path, monkeypatch, capsys):
    import oneshotrd.cli as cli_mod

    def boom(*args, **kwargs):
        raise EqualityCheckError("forced")

    monkeypatch.setattr(cli_mod, "converse_equality_check", boom)
    assert run(["converse", "--problem", binary_path, "--code", "0,1"]) == 2
    assert "assertion failure" in capsys.readouterr().err


def test_usage_errors_exit_1(binary_path, capsys):
    # a removed flag and a missing --problem are usage errors, not the
    # failed identity that status 2 reports
    assert run(["converse", "--problem", binary_path, "--rate", "1",
                "--tol", "1e-3"]) == 1
    assert "error: unrecognized arguments: --tol 1e-3" in capsys.readouterr().err
    assert run(["converse", "--rate", "1"]) == 1
    assert ("error: the following arguments are required: --problem"
            in capsys.readouterr().err)
    assert run(["converse", "--help"]) == 0
    assert "--problem" in capsys.readouterr().out


def _stdout(capsys, argv):
    assert run(argv) == 0
    return capsys.readouterr().out


def test_parser_is_built_once_and_reused(binary_path, capsys):
    calls = [
        ["exact", "--problem", binary_path, "--M", "2,3", "--trials", "500", "--json"],
        ["converse", "--problem", binary_path, "--code", "0,1"],
        ["achieve", "--problem", binary_path, "--dreq", "0.25"],
        ["dtilde", "--problem", binary_path, "--grid", "11"],
        ["achieve", "--problem", binary_path, "--rate", "1", "--slack", "0.5", "--json"],
        ["excess", "--problem", binary_path, "--m-functional"],
        ["simulate", "--problem", binary_path, "--M", "3", "--trials", "100"],
    ]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(_stdout(capsys, argv))
    _build_parser.cache_clear()
    for _ in range(2):
        assert [_stdout(capsys, argv) for argv in calls] == fresh
    assert _build_parser.cache_info().misses == 1
    # after reuse, help still exits 0 and a usage error 1
    assert run(["exact", "--help"]) == 0
    assert "--trials" in capsys.readouterr().out
    assert run(["exact", "--M", "3"]) == 1
    assert ("error: the following arguments are required: --problem"
            in capsys.readouterr().err)
    assert _build_parser.cache_info().misses == 1


def test_reused_parser_does_not_leak_values(binary_path, capsys):
    exact = ["exact", "--problem", binary_path, "--M", "3", "--trials", "300"]
    _build_parser.cache_clear()
    seed0 = _stdout(capsys, exact)
    assert _stdout(capsys, exact + ["--seed", "5"]) != seed0
    assert _stdout(capsys, exact) == seed0
    # a --dreq given once must not turn a later --rate/--slack call into a
    # rate query
    _stdout(capsys, ["achieve", "--problem", binary_path, "--dreq", "0.25"])
    out = _stdout(capsys, ["achieve", "--problem", binary_path, "--rate", "1", "--slack", "0.5"])
    assert out.startswith("bound = ")


def test_exact_bounds_each_m_in_one_call(binary_path, monkeypatch, capsys):
    import oneshotrd.cli as cli_mod

    calls = []
    real = cli_mod.best_achievability

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "best_achievability", counting)
    _stdout(capsys, ["exact", "--problem", binary_path, "--M", "1,2,3,9", "--trials", "100"])
    # one search per M > 2, at the rate log(M - 1); M <= 2 reports the exact value
    assert calls == [math.log(2), math.log(8)]


@pytest.mark.parametrize("ms, message", [
    ("100000000,0", "M must be at least 1"),
    (f"3,{10**400}", "M must be at least 1"),
    (f"3,{10**20}", "M must be between 1 and 9223372036854775807"),
], ids=["1e8-then-0", "3-then-1e400", "3-then-1e20"])
def test_exact_checks_every_m_before_it_samples(monkeypatch, ms, message):
    # an invalid M after a valid one exits 1 before any row's sample or
    # slack search: the Monte Carlo kernel never draws a word
    import oneshotrd.cli as cli_mod
    import oneshotrd.montecarlo as montecarlo_mod

    calls = []
    for module, name in ((montecarlo_mod, "_word_block"), (cli_mod, "best_achievability")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    status, out, err = _run_captured(_golden_argv(["exact", "--M", ms, "--trials", "10"]))
    assert (status, out, calls) == (1, "", [])
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_exact_rows_share_one_sample_with_the_largest_ms_own(capsys):
    # the largest M, 64, on the tail at 5 letters, is simulate's estimate in
    # hex beside smaller M, repeated and unsorted ones included, and the rows
    # come in the order given
    def records(argv):
        status, out, err = _run_captured(_golden_argv(argv))
        assert (status, err) == (0, "")
        return [(r["quantity"], r["value"]) for r in json.loads(out)["records"]]

    alone = dict(records(["simulate", "--M", "64", "--trials", "500", "--seed", "3", "--json"]))
    rows = {}
    for ms in ("2,5,48,64", "64,2,2", "64"):
        got = records(["exact", "--M", ms, "--trials", "500", "--seed", "3", "--json"])
        assert [q for q, _ in got[::4]] == [f"exact[M={m}]" for m in ms.split(",")]
        rows[ms] = got = dict(got)
        assert got["mc[M=64]"].hex() == alone["mean"].hex()
        assert got["mc_stderr[M=64]"].hex() == alone["stderr"].hex()
    assert rows["2,5,48,64"]["mc[M=2]"] == rows["64,2,2"]["mc[M=2]"]


def test_product_problem_structure(binary_hamming):
    prod = product_problem(binary_hamming, 2)
    assert prod.x_size == 4 and prod.y_size == 4
    np.testing.assert_allclose(prod.p_x, np.full(4, 0.25))
    assert prod.d[0, 0] == 0.0
    assert prod.d[0, 3] == 1.0  # both letters wrong, average of two unit costs
    assert prod.d[0, 1] == 0.5


def test_product_prior_experiment_n1_gap_zero(binary_hamming):
    rep = product_prior_experiment(binary_hamming, 1, math.log(2.0))
    assert rep.gap == 0.0
    assert rep.product_value == rep.full_value
    assert rep.full_value == optimize_prior(binary_hamming, math.log(2.0)).value


def test_product_prior_experiment_binary(binary_hamming):
    rep = product_prior_experiment(binary_hamming, 2, math.log(2.0))
    assert rep.full_value <= rep.product_value + 1e-9
    assert rep.full_value <= 1e-9
    assert rep.product_value <= 1e-6  # uniform product prior is ideal here


def test_product_prior_experiment_random_base(rng):
    base = make_random_problem(rng, nx=2, ny=3, zero_mass_prob=0.0)
    rep = product_prior_experiment(base, 2, 0.7)
    assert rep.full_value <= rep.product_value + 1e-9
    oracle = dense_prior_lp(product_problem(base, 2), math.exp(-1.4))
    assert abs(rep.full_value - oracle) <= 1e-9
    assert rep.n == 2


def test_product_prior_experiment_cap(binary_hamming):
    with pytest.raises(ValueError):
        product_prior_experiment(binary_hamming, 13, 0.5)


def test_product_prior_experiment_rejects_4x4_at_n5(rng):
    # 4^5 * 4^5 channel entries, beyond the 2^16 limit
    base = make_random_problem(rng, nx=4, ny=4)
    with pytest.raises(ValueError, match="channel entries"):
        product_prior_experiment(base, 5, 0.5)


def test_cli_exact_matches_library_on_random_problem(rng, tmp_path, capsys):
    p = make_random_problem(rng)
    path = tmp_path / "rand.json"
    save_problem(p, path)
    assert run(["exact", "--problem", str(path), "--M", "4",
                "--trials", "1000", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {r["quantity"]: r["value"] for r in doc["records"]}
    expect = exact_expected_distortion(p, 4)
    assert names["exact[M=4]"] == pytest.approx(expect, rel=1e-10)


def test_every_option_is_read():
    # the exact option set of each subcommand; a new flag must be added
    # here, next to the code that reads it
    expected = {
        "dtilde": {"--problem", "--out", "--grid"},
        "exact": {"--problem", "--json", "--out", "--csv", "--M", "--trials", "--seed"},
        "achieve": {"--problem", "--json", "--rate", "--slack", "--dreq"},
        "converse": {"--problem", "--json", "--out", "--csv", "--code", "--rate"},
        "optimize-prior": {"--problem", "--json", "--rate"},
        "variational": {"--problem", "--json", "--w"},
        "excess": {"--problem", "--json", "--out", "--dth", "--delta-grid",
                   "--gap-sweep", "--sweep-points", "--m-functional", "--rate"},
        "simulate": {"--problem", "--json", "--M", "--trials", "--seed"},
        "product-prior-experiment": {"--problem", "--json", "--n", "--rate", "--seed"},
    }
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    found = {name: {opt for action in p._actions for opt in action.option_strings}
             - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert found == expected


GOLDEN = Path(__file__).resolve().parent / "golden"
# each float option with a call that reads it; {} is the value
FLOAT_CALLS = {
    "--rate": ["achieve", "--rate", "{}", "--slack", "0.5"],
    "--slack": ["achieve", "--rate", "1", "--slack", "{}"],
    "--dreq": ["achieve", "--dreq", "{}"],
    "--w": ["variational", "--w", "{}"],
    "--dth": ["excess", "--dth", "{}", "--delta-grid", "3"],
}


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    return status, out.getvalue(), err.getvalue()


def test_float_calls_cover_every_float_option():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    floats = {opt for p in sub.choices.values() for action in p._actions
              if action.type is float for opt in action.option_strings}
    assert floats == set(_FLOAT_OPTIONS) == set(FLOAT_CALLS)


def _float_call(option, value, joined):
    call = FLOAT_CALLS[option]
    i = call.index("{}")
    given_value = [f"{option}={value!r}"] if joined else [option, repr(value)]
    return [call[0], "--problem", str(GOLDEN / "binary_hamming.json"),
            *call[1:i - 1], *given_value, *call[i + 1:]]


@settings(max_examples=120, deadline=None)
@given(option=st.sampled_from(sorted(FLOAT_CALLS)),
       value=st.floats(allow_nan=False, allow_subnormal=True)
       | st.sampled_from([-0.0, -5.847884867882236e-05, -1e-300, -5e-324]))
def test_float_options_read_every_repr_as_a_value(option, value):
    # "--opt -5e-05" must be read as "--opt=-5e-05", never as a second option
    result = _run_captured(_float_call(option, value, joined=False))
    assert result == _run_captured(_float_call(option, value, joined=True))
    assert "expected one argument" not in result[2]


@pytest.mark.parametrize("w", ["1e-310", "1e-320", "5e-324"])
@pytest.mark.parametrize("golden", ["binary_hamming", "integer_6x5"])
def test_variational_rejects_subnormal_w(golden, w):
    status, out, err = _run_captured(
        ["variational", "--problem", str(GOLDEN / f"{golden}.json"), "--w", w])
    assert (status, out) == (1, "")
    assert err == f"error: w must be a normal double in (0, 1], got {float(w)!r}\n"


@pytest.mark.parametrize("golden", ["binary_hamming", "integer_6x5"])
def test_variational_accepts_the_smallest_normal_w(golden):
    status, out, _ = _run_captured(
        ["variational", "--problem", str(GOLDEN / f"{golden}.json"),
         "--w", repr(sys.float_info.min)])
    assert status == 0 and "channel_gap" in out


def _golden_argv(call, golden="integer_6x5"):
    return [call[0], "--problem", str(GOLDEN / f"{golden}.json"), *call[1:]]


def test_achieve_reads_the_right_limit_at_a_subnormal_split():
    # rate - lam = 740 or 745 puts the split quantile e^(lam - rate) among the
    # subnormals, where (c + s w) / w lost digits: 1.85891527372 at 740
    lines = []
    for rate in ("700", "740", "745"):
        status, out, err = _run_captured(
            _golden_argv(["achieve", "--rate", rate, "--slack", "0"]))
        assert (status, err) == (0, "")
        lines.append(out.splitlines()[0])
    assert lines == ["bound = 1.8586374503  [split-quantile form]"] * 3


def test_achieve_dreq_at_a_subnormal_split_prints_a_finite_rate_g():
    status, out, err = _run_captured(
        _golden_argv(["achieve", "--dreq", "1e-323"], "binary_hamming"))
    assert (status, err) == (0, "")
    assert "rate_g = 7.59403926586  [closed-form g relaxation]" in out


@pytest.mark.parametrize("call, message", [
    (["achieve", "--dreq", "5e-324"], "no distortion split strictly inside"),
    (["exact", "--M", str(10**400)], "M must be at least 1"),
    (["achieve", "--rate", "1"], "provide either --dreq or both --rate and --slack"),
    (["converse"], "provide --code or --rate"),
    (["exact", "--M", str(10**20)], "M must be between 1 and 9223372036854775807"),
    (["simulate", "--M", str(10**20)], "M must be between 1 and 9223372036854775807"),
    (["excess", "--dth", "nan", "--delta-grid", "3"], "d_th must be nonnegative, got nan"),
])
def test_input_errors_print_one_error_line(call, message):
    status, out, err = _run_captured(_golden_argv(call, "binary_hamming"))
    assert (status, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


OUT_CALLS = {
    "dtilde": ["dtilde", "--grid", "11"],
    "exact": ["exact", "--M", "1,3,7", "--trials", "500", "--seed", "2", "--csv"],
    "converse": ["converse", "--rate", "0.9", "--csv"],
    "excess": ["excess", "--dth", "1", "--delta-grid", "7"],
}


@pytest.mark.parametrize("case", sorted(OUT_CALLS))
def test_out_writes_the_bytes_the_call_prints(case, tmp_path):
    argv = _golden_argv(OUT_CALLS[case])
    status, printed, err = _run_captured(argv)
    assert (status, err) == (0, "") and printed.startswith(("w,", "M,", "R,", "delta,"))
    path = tmp_path / "out.csv"
    assert _run_captured([*argv, "--out", str(path)]) == (0, "", "")
    assert path.read_bytes() == printed.encode()


REPORT_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                     1e308, -1e308]))
REPORT_TEXT = st.text(alphabet=st.sampled_from(
    list('ab "\\/\n\r\t{}[],:') + ["\u00e9", "\u65e5", "\u2028", "\U0001f600", "\x00"]), max_size=12)


@settings(max_examples=200, deadline=None)
@given(name=REPORT_TEXT, records=st.lists(st.tuples(
    REPORT_TEXT, REPORT_FLOATS, REPORT_TEXT,
    st.none() | REPORT_FLOATS | REPORT_FLOATS.map(np.float64)), max_size=20))
@example(name="r", records=[])
@example(name="r", records=[('x"},\n      {"', -0.0, '\\"}\n    },', None)])
def test_json_report_is_the_indented_dumps_byte_for_byte(name, records):
    report = BoundReport(name)
    for quantity, value, method, tolerance in records:
        report.add(quantity, value, method, tolerance)
    doc = {"name": name, "records": [r._asdict() for r in report.records]}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        report.emit(True)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


@st.composite
def csv_tables(draw):
    """A header and rows whose columns are all ints or all floats, as the
    adapters return them: tuples, lists or a zip, floats as numpy's or not."""
    kinds = draw(st.lists(st.sampled_from(["int", "float", "float64"]), min_size=1, max_size=5))
    header = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
                           min_size=len(kinds), max_size=len(kinds)))
    cell = {"int": st.integers(-10**20, 10**20), "float": REPORT_FLOATS,
            "float64": REPORT_FLOATS.map(np.float64)}
    rows = draw(st.lists(st.tuples(*(cell[k] for k in kinds)), max_size=30))
    return header, draw(st.sampled_from([list, lambda r: [list(v) for v in r],
                                         lambda r: zip(*zip(*r)) if r else iter(r)]))(rows), rows


@settings(max_examples=150, deadline=None)
@given(table=csv_tables())
@example(table=(["w"], [], []))
@example(table=(["M", "exact"], [(1, 0.25), (64, -0.0)], [(1, 0.25), (64, -0.0)]))
def test_csv_is_the_per_value_csv_writer_byte_for_byte(table, tmp_path_factory):
    header, rows, plain = table
    expected = io.StringIO()
    write_csv_per_value(header, plain, expected)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _write_csv(header, rows, None)
    assert out.getvalue() == expected.getvalue()
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    _write_csv(header, plain, str(path))
    assert path.read_bytes() == expected.getvalue().encode()
    assert expected.getvalue().count("\r\n") == len(plain) + 1


def test_out_in_a_missing_directory_exits_1(tmp_path):
    status, out, err = _run_captured(
        _golden_argv(["dtilde", "--out", str(tmp_path / "missing" / "out.csv")]))
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_product_prior_experiment_rejects_n_below_1(binary_hamming):
    with pytest.raises(ValueError, match="n must be at least 1"):
        product_prior_experiment(binary_hamming, 0, 0.5)


# every adapter in every mode; only run() loads the problem and prints
ADAPTER_CALLS = [
    ["dtilde", "--grid", "11"],
    ["exact", "--M", "1,3", "--trials", "300"],
    ["exact", "--M", "3", "--trials", "300", "--csv"],
    ["exact", "--M", "1,2,3", "--trials", "300", "--csv"],
    ["achieve", "--dreq", "1.2", "--json"],
    ["achieve", "--rate", "1", "--slack", "0.5"],
    ["converse", "--code", "0,4,2"],
    ["converse", "--rate", "0.9"],
    ["converse", "--rate", "0.9", "--csv"],
    ["optimize-prior", "--rate", "0.9"],
    ["variational", "--w", "0.37"],
    ["excess", "--dth", "1", "--delta-grid", "5"],
    ["excess", "--gap-sweep", "--sweep-points", "5"],
    ["excess", "--m-functional", "--rate", "0.9"],
    ["simulate", "--M", "3", "--trials", "300"],
    ["product-prior-experiment", "--n", "1", "--rate", "0.9"],
]


@pytest.mark.parametrize("call", ADAPTER_CALLS, ids=" ".join)
def test_adapters_return_what_run_prints(call, capsys):
    argv = _golden_argv(call)
    args = _build_parser().parse_args(argv)
    result = args.func(load_problem(args.problem), args)
    assert capsys.readouterr() == ("", "")
    if isinstance(result, BoundReport):
        result.emit(args.json)
    else:
        header, rows = result[0], [tuple(row) for row in result[1]]
        # the table rule _write_csv relies on: one type per column, no quoting
        assert rows and all(re.fullmatch(r"[A-Za-z0-9_]+", h) for h in header)
        for column in zip(*rows):
            assert {float if isinstance(v, float) else type(v) for v in column} in ({int}, {float})
        _write_csv(header, rows, None)
    printed = capsys.readouterr().out
    assert _run_captured(argv) == (0, printed, "")


# runs each argv of the JSON list in argv[1] through cli.run in turn; prints
# whether scipy was loaded after the import, then each call's status, stdout,
# stderr and whether scipy was loaded after it
FRESH_RUNS = """
import contextlib, io, json, sys
import oneshotrd, oneshotrd.cli
seen = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = oneshotrd.cli.run(argv)
    seen.append([status, out.getvalue(), err.getvalue(), "scipy" in sys.modules])
print(json.dumps(seen))
"""


def _fresh_runs(argvs):
    """FRESH_RUNS in a fresh interpreter: unlike this test process, it has
    not imported scipy yet."""
    src = str(Path(oneshotrd.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", FRESH_RUNS, json.dumps(argvs)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


# the calls that solve the k-median LP or search by Nelder-Mead, the only
# ones that need scipy; n = 2 runs Nelder-Mead, n = 1 only the LP
SCIPY_CALLS = [
    ["converse", "--rate", "0.9"],
    ["optimize-prior", "--rate", "0.9"],
    ["product-prior-experiment", "--n", "2", "--rate", "0.4"],
]


def test_only_the_lp_and_nelder_mead_load_scipy():
    # scipy costs about 0.5 s and 49 MB in every process that imports it;
    # the in-process tests have loaded it long before, so a fresh interpreter
    # checks that the import and every other call leave it unloaded
    calls = [_golden_argv(c) for c in ADAPTER_CALLS
             if c[0] not in ("optimize-prior", "product-prior-experiment")
             and c[:2] != ["converse", "--rate"]]
    imported, *runs = _fresh_runs(calls)
    assert not imported
    for argv, (status, out, err, loaded) in zip(calls, runs):
        assert (status, err, loaded) == (0, "", False), argv
        assert out, argv


def test_scipy_calls_print_in_a_fresh_interpreter_what_they_print_here():
    # the first call loads linprog, the last minimize: each at its first use
    calls = [_golden_argv(c, "binary_hamming") for c in SCIPY_CALLS]
    imported, *runs = _fresh_runs(calls)
    assert not imported
    for argv, (status, out, err, loaded) in zip(calls, runs):
        assert (status, out, err) == _run_captured(argv), argv
        assert status == 0 and loaded, argv


def _uniform_channel(problem, w):
    return np.full((problem.x_size, problem.y_size), 1.0 / problem.y_size)


# each identity subcommand with one side of its identity made wrong, and the
# values its assertion line must name
DTILDE1_AT_037 = dtilde1(load_problem(GOLDEN / "integer_6x5.json"), 0.37)
IDENTITY_FAILURES = {
    "converse": (["converse", "--code", "0,4,2"], "oneshotrd.converse.code_distortion",
                 lambda *args: 0.5, ["lhs=0.5 ", "rhs="]),
    "variational": (["variational", "--w", "0.37"], "oneshotrd.variational.sup_form_value",
                    lambda *args: 0.5, ["sup_form=0.5 ", f"dtilde1={DTILDE1_AT_037!r} "]),
    "channel": (["variational", "--w", "0.37"], "oneshotrd.variational.test_channel",
                _uniform_channel, ["channel_gap="]),
    "m-functional": (["excess", "--m-functional", "--rate", "0.9"], "oneshotrd.excess.d_inf",
                     lambda *args: 0.5, ["lhs=0.5 ", "rhs="]),
}


@pytest.mark.parametrize("case", sorted(IDENTITY_FAILURES))
def test_identity_failures_print_nothing_on_stdout(case, monkeypatch):
    # a failed identity leaves stdout empty: no report of unchecked values
    call, target, wrong, named = IDENTITY_FAILURES[case]
    monkeypatch.setattr(target, wrong)
    status, out, err = _run_captured(_golden_argv(call))
    assert (status, out) == (2, "")
    assert err.startswith("assertion failure: ") and err.count("\n") == 1
    assert all(value in err for value in named)


def test_product_prior_rejects_a_negative_rate_before_searching(monkeypatch):
    runs = []
    monkeypatch.setattr(converse_mod, "_nelder_mead", lambda *args: runs.append(args))
    status, out, err = _run_captured(
        _golden_argv(["product-prior-experiment", "--rate", "-0.5"]))
    assert (status, out, runs) == (1, "", [])
    assert err == "error: rate must be nonnegative, got -0.5\n"
