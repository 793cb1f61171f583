"""The benchmark's span tracer still finds every name it reads.

perfbench/tracing.py wraps public oneshotrd functions by name and reads
fixed span names; a rename in the package would only break the traced
benchmark run, so this checks the names here. The tracer module is loaded
from its file and not modified.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import oneshotrd
import oneshotrd.cli
from oneshotrd import simulate_random_code

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_span(tracing, binary_hamming, tmp_path, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missing = [span for span, _ in tracing.SPAN_METRICS
                   if span not in tracer.totals]
        path = tmp_path / "p.json"
        oneshotrd.save_problem(binary_hamming, path)
        assert oneshotrd.cli.run(["converse", "--problem", str(path),
                                  "--rate", "0.5", "--json"]) == 0
        assert tracer.totals["cli.run"][0] == 1
        # one LP per distinct size: the rate, slack 0.25, and every slack
        # from log 2 up clamped to t = 2; slack 0.5 repeats the rate
        assert tracer.totals["converse.linprog"][0] == 3
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert missing == []


def test_simulate_signature_binds_traced_arguments(binary_hamming):
    bound = inspect.signature(simulate_random_code).bind(
        problem=binary_hamming, M=2, trials=10, seed=0)
    bound.apply_defaults()
    assert {"problem", "M", "trials", "chunk"} <= set(bound.arguments)


def test_layer_timings_imports_resolve(tracing):
    tree = ast.parse(inspect.getsource(tracing.layer_timings))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "oneshotrd"
             for alias in node.names]
    assert "profile" in names and "build_dtilde1" in names
    for name in names:
        assert hasattr(oneshotrd, name), name
