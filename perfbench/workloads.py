"""The four workloads: seeded instances, written as problem JSON files, and
the rounds of CLI calls made on them, each call paired with its check.

Instances draw p_x and q_y from Dirichlet(1) and d as integers 0..4, so
ties are present, except in instance-panel, which mixes continuous and
quarter-step distortions, zero-mass letters and 1..8-letter alphabets.
A workload is one round of calls, repeated whole until the run's time is
up, so the share of failed calls does not depend on the seed or the run
length, and every call is timed several times over the run.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks
import refs

# The converse lower bound above the package's LP size limit (nx*ny > 2000)
# comes from multiplicative weights alone and is not the minimum over
# priors. This instance is fixed, not drawn from the workload seed, so the
# calls on it fail identically in every run.
KNOWN_FAULT_SEED = 0
KNOWN_FAULT_SHAPE = (45, 50)


class Op(NamedTuple):
    argv: list[str]
    check: Callable[[str], None]
    known_fault: bool = False


class Instance:
    """One problem: its arrays, the JSON file the CLI reads, memoized references."""

    def __init__(self, path: Path, p, q, d):
        self.path, self.p, self.q, self.d = str(path), p, q, d
        sub = d[np.ix_(p > 0, q > 0)]
        self.spread = float(sub.max() - sub.min())
        self._memo: dict = {}
        doc = {"p_x": p.tolist(), "q_y": q.tolist(), "d": d.tolist()}
        path.write_text(json.dumps(doc), encoding="utf-8")

    def memo(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]


def integer_instance(rng, nx, ny, path) -> Instance:
    return Instance(path, rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny)),
                    rng.integers(0, 5, (nx, ny)).astype(float))


def panel_instance(rng, path) -> Instance:
    """Small mixed instance in the manner of the test suite's generator."""
    nx, ny = (int(v) for v in rng.integers(1, 9, 2))
    p, q = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
    if ny >= 3 and rng.random() < 0.3:
        q[rng.integers(ny)] = 0.0
        q = q / q.sum()
    if nx >= 3 and rng.random() < 0.15:
        p[rng.integers(nx)] = 0.0
        p = p / p.sum()
    d = rng.uniform(0.0, 1.0, (nx, ny))
    if rng.random() < 0.5:
        d = np.round(d * 4.0) / 4.0
    return Instance(path, p, q, d * rng.uniform(0.5, 3.0))


def _j(*argv) -> list[str]:
    return [str(a) for a in argv] + ["--json"]


def converse_sandwich(seed: int, out: Path):
    rng = np.random.default_rng(seed)
    small = integer_instance(rng, 4, 4, out / "c4x4.json")
    mid = integer_instance(rng, 20, 20, out / "c20x20.json")
    big = integer_instance(np.random.default_rng(KNOWN_FAULT_SEED),
                           *KNOWN_FAULT_SHAPE, out / "c45x50.json")
    calls = [(small, 0.5, False), (mid, 1.5, False), (big, 1.0, True)]
    return [Op(_j("converse", "--problem", inst.path, "--rate", rate),
               partial(checks.converse_sandwich, inst=inst, rate=rate), fault)
            for inst, rate, fault in calls]


def random_coding(seed: int, out: Path):
    rng = np.random.default_rng(seed)
    insts = {n: integer_instance(rng, n, n, out / f"r{n}.json") for n in (8, 20, 50)}
    # (size, exact M list, exact trials, simulate M, simulate trials); the
    # MC temporary is nx * min(trials, 16384) * M doubles, largest at
    # 50 x 2000 x 512 (410 MB computed)
    plan = [(8, [1, 2, 16, 128, 512], 10000, 512, 10000),
            (20, [2, 8, 64], 10000, 64, 20000),
            (50, [2, 8, 64], 5000, 512, 2000)]
    ops = []
    for n, ms, ex_trials, m, sim_trials in plan:
        inst = insts[n]
        ops.append(Op(_j("exact", "--problem", inst.path, "--M", ",".join(map(str, ms)),
                         "--trials", ex_trials, "--seed", seed),
                      partial(checks.exact, inst=inst, ms=ms, trials=ex_trials)))
        ops.append(Op(_j("simulate", "--problem", inst.path, "--M", m,
                         "--trials", sim_trials, "--seed", seed),
                      partial(checks.simulate, inst=inst, M=m, trials=sim_trials)))
    return ops


def rate_queries(seed: int, out: Path):
    rng = np.random.default_rng(seed)
    ops = []
    for n in (4, 20, 50, 100):
        while True:   # d_req must sit strictly inside (dtilde(0), dtilde(1))
            inst = integer_instance(rng, n, n, out / f"q{n}.json")
            lo, hi = (refs.dtilde(inst.p, inst.q, inst.d, w) for w in (0.0, 1.0))
            if hi - lo > 0.05:
                break
        for frac in (0.25, 0.5, 0.75):
            d_req = lo + frac * (hi - lo)
            ops.append(Op(_j("achieve", "--problem", inst.path, "--dreq", repr(d_req)),
                          partial(checks.achieve_dreq, inst=inst, d_req=d_req)))
        rate = float(rng.uniform(0.5, 2.5))
        lam = rate - 1.0
        ops.append(Op(_j("achieve", "--problem", inst.path, "--rate", repr(rate),
                         "--slack", repr(lam)),
                      partial(checks.achieve_slack, inst=inst, rate=rate, lam=lam)))
        ops.append(Op(["dtilde", "--problem", inst.path, "--grid", "101"],
                      partial(checks.dtilde_csv, inst=inst)))
    return ops


PANEL_SIZE = 128
# MC trials per exact call. At 1000 trials the sample stderr of a skewed
# per-trial law ran low often enough that one correct value in about 8000
# failed the 5-sigma check; at 10^4 the check keeps its nominal rate.
PANEL_TRIALS = 10000


def instance_panel(seed: int, out: Path):
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(PANEL_SIZE):
        inst = panel_instance(rng, out / f"s{i}.json")
        ny = inst.d.shape[1]
        ms = [1, 2, int(rng.integers(3, 10))]
        code = [int(y) for y in rng.integers(0, ny, int(rng.integers(1, 5)))]
        w = float(rng.uniform(0.05, 1.0))
        d_th = float(rng.uniform(0.0, inst.d.max()))
        rate = float(rng.uniform(0.0, 2.0))
        ops.extend([
            Op(_j("exact", "--problem", inst.path, "--M", ",".join(map(str, ms)),
                  "--trials", PANEL_TRIALS, "--seed", i),
               partial(checks.exact, inst=inst, ms=ms, trials=PANEL_TRIALS)),
            Op(_j("converse", "--problem", inst.path, "--code", ",".join(map(str, code))),
               partial(checks.converse_code, inst=inst, code=code)),
            Op(_j("variational", "--problem", inst.path, "--w", repr(w)),
               partial(checks.variational, inst=inst, w=w)),
            Op(["excess", "--problem", inst.path, "--dth", repr(d_th)],
               partial(checks.excess_sweep, inst=inst, d_th=d_th)),
            Op(_j("excess", "--problem", inst.path, "--m-functional", "--rate", repr(rate)),
               partial(checks.m_functional, inst=inst, rate=rate)),
            Op(["dtilde", "--problem", inst.path, "--grid", "21"],
               partial(checks.dtilde_csv, inst=inst)),
        ])
    return ops


# name -> builder(seed, directory) writing the instances and returning the
# calls of one round
WORKLOADS = {
    "converse-sandwich": converse_sandwich,
    "random-coding": random_coding,
    "rate-queries": rate_queries,
    "instance-panel": instance_panel,
}
