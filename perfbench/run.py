#!/usr/bin/env python3
"""End-to-end benchmark of the oneshotrd command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process, one caller, a closed loop: each CLI call (oneshotrd.cli.run)
starts when the previous one has returned and been checked. The package is
imported from src/ beside this directory; the run stops with an error if
it is not there. Instances are generated from --seed and written as problem
JSON files under .perfbench_out/, which is removed afterwards.

A workload is one round of calls, repeated whole for --seconds. Every
time is scaled to the machine's nominal speed by the speed probe (speed.py),
run from SIGALRM every 0.1 s. A call's latency is the median of its scaled
times over the run; op_p50_ms and op_p90_ms are taken over the round's
calls, and ops_per_s is the round's calls over their summed latency.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
# a fresh interpreter times the package import between two pure speed probes
IMPORT_TIMER = ("import sys, time; sys.path[:0] = sys.argv[1:]; import speed; "
                "p0 = min(speed.probe_pure(), speed.probe_pure()); t = time.perf_counter(); "
                "import oneshotrd, oneshotrd.cli; t = time.perf_counter() - t; "
                "print(speed.scaled(t, speed.PURE_NOMINAL_S, p0, "
                "min(speed.probe_pure(), speed.probe_pure())))")
# the keys of workloads.WORKLOADS, which is imported only after the package
NAMES = ("converse-sandwich", "random-coding", "rate-queries", "instance-panel")


def import_cli():
    """Import oneshotrd.cli from this checkout's src/; return it and the scaled time taken."""
    if not (SRC / "oneshotrd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no oneshotrd package under {SRC}")
    sys.path.insert(0, str(SRC))
    p0 = min(speed.probe_pure(), speed.probe_pure())
    t0 = time.perf_counter()
    import oneshotrd
    import oneshotrd.cli
    elapsed = time.perf_counter() - t0
    if Path(oneshotrd.__file__).resolve().parent != SRC / "oneshotrd":
        sys.exit(f"perfbench: imported oneshotrd from {oneshotrd.__file__}, not {SRC}")
    p1 = min(speed.probe_pure(), speed.probe_pure())
    return oneshotrd.cli, speed.scaled(elapsed, speed.PURE_NOMINAL_S, p0, p1)


def child_import_seconds() -> float:
    res = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC), str(HERE)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(res.stdout.strip().splitlines()[-1])


def nearest_rank(values, frac):
    """The value at rank ceil(frac * n) of the sorted values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(frac * len(ordered)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, first_import = import_cli()
    import checks
    import workloads
    from tracing import Tracer, layer_timings, span_metrics

    imports = [first_import] + [child_import_seconds() for _ in range(SETUP_REPS - 1)]
    run_dir = OUT / f"run-{name}-{os.getpid()}"
    try:
        with speed.SpeedSampler() as sampler:
            gens = []
            for _ in range(SETUP_REPS):
                shutil.rmtree(run_dir, ignore_errors=True)
                run_dir.mkdir(parents=True)
                t0 = time.perf_counter()
                ops = workloads.WORKLOADS[name](seed, run_dir)
                gens.append((t0, time.perf_counter()))
            tracer = Tracer() if trace else None
            if tracer:
                tracer.install()
            timed = []   # (call index in the round, start, end)
            attempted, failed, correct = 0, 0, True
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                for i, op in enumerate(ops):
                    if tracer:
                        tracer.call_id = attempted
                    attempted += 1
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        t0 = time.perf_counter()
                        try:
                            rc = cli.run(op.argv)
                        except (Exception, SystemExit) as exc:
                            rc = repr(exc)
                        timed.append((i, t0, time.perf_counter()))
                    try:
                        checks.expect(rc == 0, f"exit status {rc}: {err.getvalue().strip()}")
                        op.check(out.getvalue())
                    except Exception as exc:
                        failed += 1
                        tag = "known fault" if op.known_fault else "FAILED"
                        print(f"{tag}: {' '.join(op.argv)}: {exc}", file=sys.stderr)
                        correct = correct and op.known_fault
            if tracer:
                tracer.uninstall()
        setup_s = (statistics.median(imports)
                   + statistics.median(sampler.scale(*g) for g in gens))
        scaled = [[] for _ in ops]
        for i, t0, t1 in timed:
            scaled[i].append(sampler.scale(t0, t1))
        latency = [statistics.median(v) for v in scaled]
        ops_per_s = len(latency) / sum(latency)
        if tracer:
            metrics = span_metrics(tracer, attempted)
            metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
            metrics.update(layer_timings(seed))
            tracer.save(OUT / f"trace-{name}.npz")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (ops_per_s, "1/s"),
                "op_p50_ms": (1e3 * statistics.median(latency), "ms"),
                "op_p90_ms": (1e3 * nearest_rank(latency, 0.9), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process; a table."""
    ok = True
    print(f"{'workload':18} {'trace':5} {'attempted':>9} {'failed':>6}  metrics")
    for name in NAMES:
        ops = {}
        for trace in (0, 1):
            res = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            if res.returncode:
                print(res.stderr, file=sys.stderr)
                return res.returncode
            doc = json.loads(res.stdout.strip().splitlines()[-1])
            ok = ok and doc["correct"]
            m = doc["metrics"]
            ops[trace] = m["ops_per_s" if trace == 0 else "trace.ops_per_s"]["value"]
            shown = m if trace == 0 else {"trace.ops_per_s": m["trace.ops_per_s"],
                                          "mc_trials_per_s": m["mc_trials_per_s"]}
            text = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in shown.items())
            print(f"{name:18} {trace:5} {doc['attempted']:9d} {doc['failed']:6d}  {text}"
                  + ("" if doc["correct"] else "  INCORRECT"))
        print(f"{name:18} tracing overhead {100.0 * (1.0 - ops[1] / ops[0]):.1f}% of ops_per_s")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
