import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneshotrd
import oneshotrd.converse as converse_mod
from conftest import dense_prior_lp, make_random_problem
from oneshotrd import (
    EqualityCheckError,
    dtilde,
    exact_expected_distortion,
    optimize_prior,
    save_problem,
)
from oneshotrd.cli import _FLOAT_OPTIONS, _build_parser, run
from oneshotrd.converse import product_prior_experiment, product_problem


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
    # at rate 1 on 4x4 the slacks give LP sizes e^0.25, e^0.5, e (the rate's
    # own LP) and three times the clamp t = 4; the CSV prior reuses the first
    path = tmp_path / "rand.json"
    save_problem(make_random_problem(rng, nx=4, ny=4), path)
    calls = []
    real = converse_mod.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(converse_mod, "linprog", counting)
    assert run(["converse", "--problem", str(path), "--rate", "1", "--csv"]) == 0
    assert len(calls) == 4
    capsys.readouterr()


def test_converse_labels_the_floor_where_no_slack_runs(binary_path, capsys):
    assert run(["converse", "--problem", binary_path, "--rate", "inf"]) == 0
    out = capsys.readouterr().out
    assert "dhat_upper = 0  [k-median LP floor (no slack below the rate)]" in out
    assert "slack grid" not in out
    assert run(["converse", "--problem", binary_path, "--rate", "0.5"]) == 0
    assert "  [achievability over the slack grid]" in capsys.readouterr().out


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


def test_cli_rejects_out_of_range_code(binary_path, capsys):
    assert run(["converse", "--problem", binary_path, "--code", "5"]) == 1
    assert "error: code member out of range" in capsys.readouterr().err


def test_cli_reports_missing_file(capsys):
    assert run(["exact", "--problem", "/nonexistent.json", "--M", "2"]) == 1


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
    real = cli_mod.achievability_bound

    def counting(*args, **kwargs):
        calls.append(np.size(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "achievability_bound", counting)
    _stdout(capsys, ["exact", "--problem", binary_path, "--M", "1,2,3,9", "--trials", "100"])
    assert calls == [40, 40]


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
    expect = exact_expected_distortion(p, 4).exact_distortion
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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second and 20 MB on every import, and
    # only the test oracles use it
    src = str(Path(oneshotrd.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, oneshotrd, oneshotrd.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
