"""Span tracing from outside the package, plus outside-in layer timings.

Tracer wraps every public function of each oneshotrd module, in every
oneshotrd namespace that holds it, plus scipy's linprog as the converse
module sees it. Each wrapped call is a span: name, start, end, the span
that caused it, and the CLI call it belongs to. A span's self time is its
duration minus the time its child spans cover; self time and call counts
are summed as spans close. Spans are kept in memory (up to SPAN_CAP of
them, the totals cover all) and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "model", "pairwise", "dtilde", "random_coding", "converse",
           "variational", "excess", "montecarlo")
SIZES = (4, 20, 50, 100)
SPAN_CAP = 1 << 18


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []   # (name index, start, end, parent id, call id)
        self.dropped = 0
        self.totals: dict[str, list] = {}   # span name -> [calls, self seconds]
        self.counts = defaultdict(int)      # problems_built, trials
        self.temp_bytes_peak = 0
        self.call_id = -1
        self._stack = [[-1, 0.0]]           # [span id, child seconds] of open spans
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        acc = self.totals[name] = [0, 0.0]
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                acc[0] += 1
                acc[1] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((index, t0, t1, parent[0], self.call_id))
                else:
                    self.dropped += 1
        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"oneshotrd.{m}") for m in MODULES}
        spaces = [importlib.import_module("oneshotrd"), *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                if attr == "simulate_random_code":
                    wrapped = self._count_trials(fn, wrapped)
                for space in spaces:
                    if vars(space).get(attr) is fn:
                        self._patch(space, attr, wrapped)
        converse = mods["converse"]
        self._patch(converse, "linprog", self._wrap("converse.linprog", converse.linprog))
        problem = mods["model"].Problem
        post_init = problem.__post_init__

        def counted(obj):
            self.counts["problems_built"] += 1
            post_init(obj)
        self._patch(problem, "__post_init__", counted)

    def _count_trials(self, fn, wrapped):
        sig = inspect.signature(fn)

        def counted(*args, **kwargs):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            nx, trials = a.arguments["problem"].x_size, a.arguments["trials"]
            self.counts["trials"] += trials
            temp = nx * min(trials, a.arguments["chunk"]) * a.arguments["M"] * 8
            self.temp_bytes_peak = max(self.temp_bytes_peak, temp)
            return wrapped(*args, **kwargs)
        return functools.wraps(fn)(counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def save(self, path) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names), name=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                            call=arr[:, 4].astype(np.int64), dropped=self.dropped)


# Per-layer metrics taken from the spans: (span name, total), reported per
# timed CLI call as <span name>.<total>.
SPAN_METRICS = [
    ("cli.run", "self_s"),
    ("model.load_problem", "self_s"),
    ("pairwise.accept_probability", "self_s"),
    ("dtilde.dtilde", "calls"),
    ("dtilde.dtilde", "self_s"),
    ("dtilde.dtilde_inverse", "calls"),
    ("dtilde.dtilde_inverse", "self_s"),
    ("dtilde.dtilde_for_prior", "calls"),
    ("dtilde.dtilde_for_prior", "self_s"),
    ("random_coding.rate_for_distortion", "self_s"),
    ("random_coding.f_inverse", "calls"),
    ("random_coding.f_inverse", "self_s"),
    ("random_coding.achievability_bound", "calls"),
    ("converse.optimize_prior", "calls"),
    ("converse.optimize_prior", "self_s"),
    ("converse.dtilde_subgradient", "calls"),
    ("converse.dtilde_subgradient", "self_s"),
    ("converse.linprog", "calls"),
    ("converse.linprog", "self_s"),
    ("converse.converse_equality_check", "self_s"),
    ("variational.inf_form_value", "self_s"),
    ("variational.sup_form_value", "self_s"),
    ("excess.excess_rate", "calls"),
    ("excess.excess_rate", "self_s"),
    ("montecarlo.simulate_random_code", "self_s"),
]


def span_metrics(tracer: Tracer, n_calls: int) -> dict:
    """Span totals per timed CLI call, plus the Monte Carlo counters."""
    out = {}
    for span, field in SPAN_METRICS:
        calls, self_s = tracer.totals[span]
        out[f"{span}.{field}"] = ((self_s / n_calls, "s") if field == "self_s"
                                  else (calls / n_calls, "count"))
    out["model.problems_built"] = (tracer.counts["problems_built"] / n_calls, "count")
    out["montecarlo.trials"] = (tracer.counts["trials"] / n_calls, "count")
    out["montecarlo.temp_bytes_peak"] = (float(tracer.temp_bytes_peak), "bytes-computed")
    mc_time = tracer.totals["montecarlo.simulate_random_code"][1]
    out["mc_trials_per_s"] = (tracer.counts["trials"] / mc_time if mc_time else 0.0, "1/s")
    return out


def _median_time(fn, setup, reps) -> float:
    times = []
    for _ in range(reps):
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_timings(seed: int, reps: int = 9) -> dict:
    """Cold and warm timings of single layers, called directly at 4..100 letters.

    Cold means a fresh Problem, so nothing derived from it is cached; the
    piecewise-linear build is timed after its profiles exist, so the two
    layers are apart. Warm means every cache is filled before timing.
    """
    from oneshotrd import (Problem, build_dtilde1, dtilde, dtilde_inverse,
                           exact_expected_distortion, profile)

    rng = np.random.default_rng(seed)
    out = {}
    for n in SIZES:
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        d = rng.integers(0, 5, (n, n)).astype(float)

        def fresh():
            return Problem(p, q, d)

        def fresh_profiled():
            prob = fresh()
            profile(prob, 0)
            return prob

        warm = fresh()
        build_dtilde1(warm)
        lo, hi = dtilde(warm, 0.0), dtilde(warm, 1.0)
        zs = np.linspace(lo, hi, 102)[1:-1]

        def inverse_batch(prob):
            for z in zs:
                dtilde_inverse(prob, float(z))

        out[f"pairwise.profile.cold_ms.{n}"] = (
            1e3 * _median_time(lambda prob: profile(prob, 0), fresh, reps), "ms")
        out[f"dtilde.build_dtilde1.cold_ms.{n}"] = (
            1e3 * _median_time(build_dtilde1, fresh_profiled, reps), "ms")
        out[f"dtilde.dtilde_inverse.warm_us.{n}"] = (
            1e6 * _median_time(inverse_batch, lambda: warm, reps) / zs.size, "us")
        out[f"random_coding.exact_expected_distortion.warm_ms.{n}"] = (
            1e3 * _median_time(lambda prob: exact_expected_distortion(prob, 1000),
                               lambda: warm, reps), "ms")
    return out
