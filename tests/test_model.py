import gc
import json
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_random_problem, problems, quarter_problems
from oneshotrd import (
    EqualityCheckError,
    InvariantViolation,
    Problem,
    ProblemFormatError,
    dtilde,
    dtilde_for_prior,
    dtilde_inverse,
    exact_expected_distortion,
    load_problem,
    profile,
    save_problem,
    simulate_random_code,
    test_channel as packing_channel,
    validate,
)
from oneshotrd.converse import code_distortion, converse_equality_check, dhat_sandwich
from oneshotrd.model import PROB_ATOL
from oneshotrd.variational import sup_form_value, variational_check
from oracles import find_level, validate_channel, validate_ordered


def write_json(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BINARY = {"p_x": [0.5, 0.5], "q_y": [0.5, 0.5], "d": [[0, 1], [1, 0]]}


def test_load_binary_hamming(tmp_path):
    p = load_problem(write_json(tmp_path, BINARY))
    assert p.x_size == 2 and p.y_size == 2
    np.testing.assert_array_equal(p.p_x, [0.5, 0.5])
    np.testing.assert_array_equal(p.d, [[0.0, 1.0], [1.0, 0.0]])
    assert p.d_max == 1.0


def test_load_rescales_tiny_sum_deviation(tmp_path):
    doc = dict(BINARY, p_x=[0.5, 0.5 + 1e-10])
    p = load_problem(write_json(tmp_path, doc))
    assert float(np.sum(p.p_x)) == 1.0


def test_load_rejects_large_sum_deviation(tmp_path):
    doc = dict(BINARY, p_x=[0.5, 0.51])
    with pytest.raises(ProblemFormatError, match="sums to"):
        load_problem(write_json(tmp_path, doc))


def test_load_rejects_negative_distortion(tmp_path):
    doc = dict(BINARY, d=[[0, -0.5], [1, 0]])
    with pytest.raises(ProblemFormatError, match="negative distortion"):
        load_problem(write_json(tmp_path, doc))


def test_load_rejects_unknown_key(tmp_path):
    doc = dict(BINARY, extra=1)
    with pytest.raises(ProblemFormatError, match="unknown key"):
        load_problem(write_json(tmp_path, doc))


def test_load_rejects_shape_mismatch(tmp_path):
    doc = dict(BINARY, d=[[0, 1, 2], [1, 0, 2]])
    with pytest.raises(ProblemFormatError, match="shape"):
        load_problem(write_json(tmp_path, doc))


@pytest.mark.parametrize("change", [{"p_x": 1.0}, {"q_y": [[0.5, 0.5]]},
                                    {"d": [0, 1, 1, 0]}, {"d": [[0, "x"], [1, 0]]}])
def test_load_rejects_wrong_dimensions_and_types(tmp_path, change):
    # Problem() would promote a scalar p_x or a 1-D d, so load_problem must
    # reject them before constructing it
    with pytest.raises(ProblemFormatError):
        load_problem(write_json(tmp_path, dict(BINARY, **change)))


@pytest.mark.parametrize("change, message", [
    ({"p_x": [0.5, float("nan")]}, "non-finite"),
    ({"q_y": [1.5, -0.5]}, "negative entries"),
    ({"p_x": []}, "nonempty"),
    ({"d": [[0, 1], [1, float("inf")]]}, "non-finite distortion"),
])
def test_load_reports_invariant_violations_as_format_errors(tmp_path, change, message):
    with pytest.raises(ProblemFormatError, match=message):
        load_problem(write_json(tmp_path, dict(BINARY, **change)))


def test_load_rejects_subnormal_prior_mass(tmp_path):
    # the level table would read dtilde(0) = 0.25 and the fill the right 0
    doc = {"p_x": [1.0], "q_y": [1.0, 2.2e-313], "d": [[0.25, 0.0]]}
    with pytest.raises(ProblemFormatError, match="subnormal"):
        load_problem(write_json(tmp_path, doc))


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError, match="invalid JSON"):
        load_problem(path)


def test_load_rejects_bad_labels(tmp_path):
    doc = dict(BINARY, y_labels=["a"])
    with pytest.raises(ProblemFormatError, match="y_labels"):
        load_problem(write_json(tmp_path, doc))


def test_labels_roundtrip(tmp_path):
    doc = dict(BINARY, x_labels=["zero", "one"], y_labels=["a", "b"])
    p = load_problem(write_json(tmp_path, doc))
    assert p.x_labels == ["zero", "one"]
    out = tmp_path / "again.json"
    save_problem(p, out)
    again = load_problem(out)
    assert again.y_labels == ["a", "b"]


def test_save_load_roundtrip_is_identity(rng, tmp_path):
    for i in range(20):
        p = make_random_problem(rng)
        path = tmp_path / f"p{i}.json"
        save_problem(p, path)
        q = load_problem(path)
        np.testing.assert_array_equal(p.p_x, q.p_x)
        np.testing.assert_array_equal(p.q_y, q.q_y)
        np.testing.assert_array_equal(p.d, q.d)
        validate(q)


def test_validate_accepts_binary(binary_hamming):
    validate(binary_hamming)


def test_validate_reports_bad_q_sum():
    p = Problem([0.5, 0.5], [0.7, 0.7], [[0, 1], [1, 0]])
    with pytest.raises(InvariantViolation, match="q_y sums to 1.4"):
        validate(p)


def test_validate_reports_nonfinite_distortion():
    p = Problem([0.5, 0.5], [0.5, 0.5], [[0, np.inf], [1, 0]])
    with pytest.raises(InvariantViolation, match="non-finite distortion"):
        validate(p)


def test_validate_reports_negative_entries():
    p = Problem([1.5, -0.5], [0.5, 0.5], [[0, 1], [1, 0]])
    with pytest.raises(InvariantViolation, match="p_x has negative"):
        validate(p)


def _sum_edges():
    """The largest and the smallest double within PROB_ATOL of 1."""
    edges = []
    for step in (2.0, 0.0):
        edge = 1.0
        while abs(np.nextafter(edge, step) - 1.0) <= PROB_ATOL:
            edge = np.nextafter(edge, step)
        edges.append(float(edge))
    return edges


HIGH, LOW = _sum_edges()
TINY = float(np.finfo(float).tiny)
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, -0.5, 5e-324, TINY / 2, TINY, 1.0]


@st.composite
def raw_problems(draw):
    """Problems as drawn, valid or not: normalized vectors, empty ones too,
    and a distortion matrix of the right shape or not, with up to three
    entries replaced by a special value."""
    nx, ny = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    arrays = []
    for n in (nx, ny):
        v = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        arrays.append(v / v.sum() if v.sum() > 0 else v)
    rows, cols = draw(st.sampled_from([(nx, ny), (ny, nx), (nx, ny + 1)]))
    d = draw(st.lists(st.floats(0.0, 5.0), min_size=rows * cols, max_size=rows * cols))
    arrays.append(np.reshape(d, (rows, cols)))
    for _ in range(draw(st.integers(0, 3))):
        a = arrays[draw(st.integers(0, 2))]
        if a.size:
            a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from(SPECIAL))
    return Problem(*arrays)


def _verdict(check, problem):
    try:
        check(problem)
    except InvariantViolation as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(problem=raw_problems())
@example(problem=Problem([0.3, 0.7], [0.6, 0.4], [[0, 1], [1, 0]]))
@example(problem=Problem([np.nan, 1.0], [1.0], [[0.0], [0.0]]))
@example(problem=Problem([1.0], [np.inf, 0.0], [[0.0, 0.0]]))
@example(problem=Problem([1.0], [1.0], [[-np.inf]]))
@example(problem=Problem([1.0], [1.0], [[np.nan]]))
@example(problem=Problem([1.0], [1.0], [[np.inf]]))
@example(problem=Problem([1.5, -0.5], [1.0], [[0.0], [0.0]]))
@example(problem=Problem([1.0], [1.0], [[-1.0]]))
@example(problem=Problem([-1.0, np.inf], [1.0], [[0.0], [0.0]]))
@example(problem=Problem([1.0], [1.0, -np.inf], [[0.0, 0.0]]))
@example(problem=Problem([1.0], [1.0], [[-1.0, np.nan]]))
@example(problem=Problem([1.0], [1.0], [[-np.inf, np.inf]]))
@example(problem=Problem([1.0], [1.0], [[1e308, -1e308]]))
@example(problem=Problem([1.0, -0.0], [-0.0, 1.0], [[-0.0, 0.0], [0.0, -0.0]]))
@example(problem=Problem([1.0], [1.0, 1e-310], [[0.0, 0.0]]))
@example(problem=Problem([1.0], [1.0, 5e-324], [[0.0, 0.0]]))
@example(problem=Problem([1.0], [1.0, TINY], [[0.0, 0.0]]))
@example(problem=Problem([HIGH], [LOW], [[0.0]]))
@example(problem=Problem([np.nextafter(HIGH, 2.0)], [1.0], [[0.0]]))
@example(problem=Problem([LOW], [HIGH], [[0.0]]))
@example(problem=Problem([1.0], [np.nextafter(LOW, 0.0)], [[0.0]]))
@example(problem=Problem([1.0], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]))
@example(problem=Problem([1.0], [1.0], [[0.0, 1.0]]))
@example(problem=Problem([], [1.0], np.zeros((0, 1))))
@example(problem=Problem([1.0], [], np.zeros((1, 0))))
@example(problem=Problem([[0.5, 0.5]], [1.0], [[0.0], [0.0]]))
def test_validate_keeps_the_ordered_checks_verdicts(problem):
    # the min/max checks take exactly the problems the ordered checks take,
    # and a rejection names the violation they name first
    assert _verdict(validate, problem) == _verdict(validate_ordered, problem)


def test_sum_edges_lie_one_ulp_inside_the_tolerance():
    assert HIGH - 1.0 <= PROB_ATOL < np.nextafter(HIGH, 2.0) - 1.0
    assert 1.0 - LOW <= PROB_ATOL < 1.0 - np.nextafter(LOW, 0.0)


def test_problem_arrays_are_readonly(binary_hamming):
    with pytest.raises(ValueError):
        binary_hamming.p_x[0] = 0.3


def test_d_max_restricted_to_supports():
    p = Problem([1.0, 0.0], [0.0, 1.0], [[5.0, 1.0], [9.0, 7.0]])
    assert p.d_max == 1.0


def test_d_max_is_built_once_per_instance(monkeypatch):
    p = Problem([0.5, 0.5], [0.25, 0.75], [[5.0, 1.0], [9.0, 7.0]])
    calls = []
    real = np.ix_
    monkeypatch.setattr(np, "ix_", lambda *a: calls.append(1) or real(*a))
    assert [p.d_max, p.d_max, p.d_max] == [9.0] * 3
    assert len(calls) == 1


def test_channel_validation():
    validate_channel(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(InvariantViolation, match="row 1"):
        validate_channel(np.array([[0.5, 0.5], [0.9, 0.0]]))
    with pytest.raises(InvariantViolation, match="negative"):
        validate_channel(np.array([[1.5, -0.5]]))


def test_problem_is_freed_with_its_last_reference(rng):
    problem = make_random_problem(rng, nx=5, ny=4)
    lo, hi = dtilde(problem, 0.0), dtilde(problem, 1.0)
    dtilde_inverse(problem, 0.5 * (lo + hi))
    packing_channel(problem, 0.5)
    profile(problem, 0)
    find_level(problem, 0, 0.5)
    dtilde_for_prior(problem, 0.5, problem.q_y)
    exact_expected_distortion(problem, 7)
    simulate_random_code(problem, 3, 10, seed=0)
    ref = weakref.ref(problem)
    del problem
    gc.collect()
    assert ref() is None


def test_load_rejects_a_list_and_a_missing_key(tmp_path):
    with pytest.raises(ProblemFormatError, match="top level must be an object"):
        load_problem(write_json(tmp_path, [BINARY]))
    without_d = {k: v for k, v in BINARY.items() if k != "d"}
    with pytest.raises(ProblemFormatError, match="missing key 'd'"):
        load_problem(write_json(tmp_path, without_d))


@settings(max_examples=60, deadline=None)
@given(problem=problems() | quarter_problems(), k=st.integers(-12, 12), w=st.floats(0.05, 1.0),
       code=st.lists(st.integers(0, 7), min_size=1, max_size=4), rate=st.floats(0.0, 2.0))
# the greedy channel's average read 37500000.00000001 against dtilde's
# 37500000.0, a gap of 7.5e-9 beyond an absolute 1e-9
@example(problem=Problem([0.8, 0.2], [0.1, 0.9], [[2e7, 3e7], [2e7, 8e7]]), k=0, w=0.8,
         code=[0], rate=0.5)
def test_checks_hold_in_the_scale_of_d(problem, k, w, code, rate):
    problem = Problem(problem.p_x, problem.q_y, problem.d * 10.0**k)
    try:
        validate(problem)
    except InvariantViolation:
        assume(False)
    code = [c % problem.y_size for c in code]
    # every check passes on a valid instance
    variational_check(problem, w)
    converse_equality_check(problem, code)
    lower = dhat_sandwich(problem, rate).lower
    # and a value moved by 1e-6 of the scale fails it
    scale = problem.d[problem.p_x > 0].max()
    assume(scale >= np.finfo(float).tiny)
    shift = 1e-6 * scale
    moved = [("variational.sup_form_value", lambda p, v: sup_form_value(p, v) + shift,
              lambda: variational_check(problem, w)),
             ("converse.code_distortion", lambda p, c: code_distortion(p, c) + shift,
              lambda: converse_equality_check(problem, code)),
             ("converse.exact_expected_distortion", lambda p, m: lower - shift,
              lambda: dhat_sandwich(problem, rate))]
    for name, value, check in moved:
        with mock.patch(f"oneshotrd.{name}", value), pytest.raises(EqualityCheckError):
            check()
