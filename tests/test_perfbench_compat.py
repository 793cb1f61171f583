"""The benchmark's span tracer still finds every name it reads.

perfbench/tracing.py wraps public oneshotrd functions by name and reads
fixed span names; a rename in the package would only break the traced
benchmark run, so this checks the names here. The tracer module is loaded
from its file and not modified.
"""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
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
        # the sandwich solves one LP, the rate's
        assert tracer.totals["converse.linprog"][0] == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert missing == []


def test_tracer_wraps_linprog_before_scipy_is_loaded(binary_hamming, tmp_path):
    # converse imports scipy at its first LP; a tracer installed in a fresh
    # interpreter, before any LP, must still find and count converse.linprog
    path = tmp_path / "p.json"
    oneshotrd.save_problem(binary_hamming, path)
    code = f"""
import contextlib, importlib.util, io, sys
import oneshotrd.cli
assert "scipy" not in sys.modules
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert oneshotrd.cli.run(["converse", "--problem", {str(path)!r}, "--rate", "0.5"]) == 0
tracer.uninstall()
print(tracer.totals["cli.run"][0], tracer.totals["converse.linprog"][0])
"""
    src = str(Path(oneshotrd.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.split() == ["1", "1"]


def test_tracer_wraps_linprog_once_after_an_lp_has_run(tracing, binary_hamming):
    # an LP run before install leaves converse.linprog bound in the module;
    # the tracer wraps the module's public functions and then linprog, and a
    # second wrap would leave the outer span with no self time
    oneshotrd.optimize_prior(binary_hamming, 0.5)
    bound = vars(oneshotrd.converse)["linprog"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        oneshotrd.optimize_prior(binary_hamming, 0.5)
    finally:
        tracer.uninstall()
    calls, self_s = tracer.totals["converse.linprog"]
    assert calls == 1 and self_s > 0
    spans = [tracer.names[span[0]] for span in tracer.spans]
    assert spans.count("converse.linprog") == 1
    assert vars(oneshotrd.converse)["linprog"] is bound


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
