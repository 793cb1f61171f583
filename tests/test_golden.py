"""Golden CLI outputs: every subcommand and mode on two fixed problems.

The outputs in tests/golden/ must be reproduced with identical non-numeric
text and every number agreeing to 12 significant figures (values below
1e-12 may differ by at most 1e-12). To rewrite the outputs that no longer
agree after an intended output change (it prints each file it writes; a
problem file is written only where it is missing, so delete one to
regenerate it):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oneshotrd import Problem, save_problem
from oneshotrd.cli import run

GOLDEN = Path(__file__).parent / "golden"

# per-problem arguments: a target distortion inside (dtilde(0), dtilde(1)),
# a rate, a code, a non-breakpoint quantile and a distortion threshold
PROBLEMS = {
    "binary_hamming": {"dreq": "0.2", "rate": "0.5", "code": "0,1,1",
                       "w": "0.3", "dth": "0"},
    "integer_6x5": {"dreq": "1.2", "rate": "0.9", "code": "0,4,2",
                    "w": "0.37", "dth": "1"},
}

CASES = {
    "dtilde": ["dtilde", "--grid", "11"],
    "exact": ["exact", "--M", "1,2,5,40", "--trials", "2000", "--seed", "3"],
    "exact_json": ["exact", "--M", "3", "--trials", "2000", "--seed", "4", "--json"],
    "achieve_dreq": ["achieve", "--dreq", "{dreq}", "--json"],
    "achieve_slack": ["achieve", "--rate", "{rate}", "--slack", "0.2", "--json"],
    "converse_code": ["converse", "--code", "{code}", "--json"],
    "converse_rate": ["converse", "--rate", "{rate}", "--json"],
    "converse_rate_csv": ["converse", "--rate", "{rate}", "--csv"],
    "optimize_prior": ["optimize-prior", "--rate", "{rate}", "--json"],
    "variational": ["variational", "--w", "{w}", "--json"],
    "excess": ["excess", "--dth", "{dth}", "--delta-grid", "11"],
    "excess_gap_sweep": ["excess", "--gap-sweep", "--sweep-points", "12"],
    "excess_m_functional": ["excess", "--m-functional", "--rate", "{rate}", "--json"],
    "simulate": ["simulate", "--M", "3", "--trials", "2000", "--seed", "5", "--json"],
    "product_prior": ["product-prior-experiment", "--n", "2", "--rate", "0.4",
                      "--seed", "1", "--json"],
}

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _make_problem(name: str) -> Problem:
    if name == "binary_hamming":
        return Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    # 6x5 integer distortions (ties) with a zero-mass reproduction letter
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(6))
    q = rng.dirichlet(np.ones(5))
    q[3] = 0.0
    q = q / q.sum()
    return Problem(p, q, rng.integers(0, 4, (6, 5)).astype(float))


def _run_case(problem_name: str, case: str) -> str:
    argv = [a.format(**PROBLEMS[problem_name]) for a in CASES[case]]
    argv[1:1] = ["--problem", str(GOLDEN / f"{problem_name}.json")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run(argv)
    assert status == 0, argv
    return out.getvalue()


def _numbers_agree(a: float, b: float) -> bool:
    if abs(a) < 1e-12 and abs(b) < 1e-12:
        return abs(a - b) <= 1e-12
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def assert_same_output(got: str, want: str) -> None:
    assert _NUMBER.split(got) == _NUMBER.split(want), "non-numeric text differs"
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert _numbers_agree(float(g), float(w)), f"{g} != {w}"


@pytest.mark.parametrize("problem_name", sorted(PROBLEMS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(problem_name, case):
    # bytes, so that the CSV writer's \r\n line ends are compared too
    want = (GOLDEN / problem_name / f"{case}.txt").read_bytes().decode("utf-8")
    assert_same_output(_run_case(problem_name, case), want)


def test_number_comparison_is_strict():
    assert_same_output("a = 0.123456789012 [b]", "a = 0.123456789012 [b]")
    for got in ("a = 0.123456789 [b]", "a = 0.123456789013 [b]",
                "a = 0.123456789012 [c]", "a = inf [b]"):
        with pytest.raises(AssertionError):
            assert_same_output(got, "a = 0.123456789012 [b]")
    assert_same_output("x,4e-13", "x,0")


if __name__ == "__main__":
    # write only a missing problem file and the outputs that no longer
    # agree, so that numbers within the tolerance keep their digits, and
    # name each file written
    for name in PROBLEMS:
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        if not (GOLDEN / f"{name}.json").exists():
            save_problem(_make_problem(name), GOLDEN / f"{name}.json")
            print(GOLDEN / f"{name}.json")
        for case in CASES:
            path = GOLDEN / name / f"{case}.txt"
            got = _run_case(name, case)
            try:
                assert_same_output(got, path.read_bytes().decode("utf-8"))
            except (AssertionError, FileNotFoundError):
                path.write_text(got, encoding="utf-8")
                print(path)
