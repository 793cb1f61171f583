import gc
import json
import weakref

import numpy as np
import pytest

from conftest import make_random_problem
from oneshotrd import (
    Channel,
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
from oracles import find_level, validate_channel


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


def test_problem_arrays_are_readonly(binary_hamming):
    with pytest.raises(ValueError):
        binary_hamming.p_x[0] = 0.3


def test_d_max_restricted_to_supports():
    p = Problem([1.0, 0.0], [0.0, 1.0], [[5.0, 1.0], [9.0, 7.0]])
    assert p.d_max == 1.0


def test_channel_validation():
    validate_channel(Channel([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(InvariantViolation, match="row 1"):
        validate_channel(Channel([[0.5, 0.5], [0.9, 0.0]]))
    with pytest.raises(InvariantViolation, match="negative"):
        validate_channel(Channel([[1.5, -0.5]]))


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
