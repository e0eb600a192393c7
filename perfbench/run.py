"""Benchmark of the cremona workbench: four workloads, each loading one layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is census-q3, lambda-scan-q7,
nodal-pencil, square-complex, or `all` for each in turn.  Every process
below is fresh and single-threaded and sees the checkout's `src` only.

--trace 0: five set-ups in separate processes (after one more that
primes the field-table file and is not counted), the last of which goes
on to the timed phase and its checks.  Prints setup_s (median of the
five), items_per_s and peak_rss_mb.

--trace 1: the workload's first rounds (TRACE_ROUNDS), once untraced and
once traced, each in its own process.  Prints the per-layer metrics and the
tracing overhead, and writes spans and counts to
.perfbench-out/trace-NAME-seedN.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench-out")
NAMES = ("census-q3", "lambda-scan-q7", "nodal-pencil", "square-complex")

# rounds of the traced comparison; square-complex always runs its one round
TRACE_ROUNDS = {"census-q3": 3, "lambda-scan-q7": 4, "nodal-pencil": 1, "square-complex": 1}
SETUPS = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker(args, env, deadline):
    """Run one worker process; its JSON result, with its measured set-up
    time and the calibration readings taken just before and after it."""
    before = speed.now_calibration_s()
    launch = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["measured_setup_s"] = result["ready"] - launch
    result["readings"] = (before, result["ready_calibration_s"])
    return result


def run_one(name, seed, seconds, traced, deadline):
    run_dir = os.path.join(OUT, f"run-{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "cache"))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        CREMONA_CACHE_DIR=os.path.join(run_dir, "cache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    common = ["--workload", name, "--seed", str(seed)]
    try:
        if not traced:
            worker([*common, "--mode", "setup"], env, deadline)
            setups = [worker([*common, "--mode", "setup"], env, deadline)
                      for _ in range(SETUPS - 1)]
            main = worker([*common, "--mode", "timed", "--seconds", str(seconds)], env, deadline)
            setups.append(main)
            # the median set-up, scaled by the mean speed over all the set-ups
            measured = statistics.median(s["measured_setup_s"] for s in setups)
            readings = [c for s in setups for c in s["readings"]]
            metrics = {
                "setup_s": (measured * speed.REFERENCE_S / statistics.fmean(readings), "s"),
                "items_per_s": (main["items_per_s"], "1/s"),
                "peak_rss_mb": (main["rss_mb"], "MB"),
            }
            runs = [main]
            print(f"{name}: measured setup_s={measured:.6g} "
                  f"items_per_s={main['measured_items_per_s']:.6g}; "
                  f"calibration loop {1000 * main['calibration_s']:.3g} ms",
                  file=sys.stderr)
        else:
            fixed = [*common, "--mode", "fixed", "--rounds", str(TRACE_ROUNDS[name])]
            plain = worker([*fixed, "--trace", "0"], env, deadline)
            path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            traced_run = worker([*fixed, "--trace", "1", "--trace-out", path], env, deadline)
            metrics = {k: tuple(vu) for k, vu in traced_run["metrics"].items()}
            overhead = traced_run["wall_s"] - plain["wall_s"]
            metrics["trace.untraced_s"] = (plain["wall_s"], "s")
            metrics["trace.traced_s"] = (traced_run["wall_s"], "s")
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_share"] = (overhead / plain["wall_s"], "ratio")
            runs = [plain, traced_run]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    last = runs[-1]
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cremona", "__init__.py")):
        print(f"no cremona sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.perf_counter() + DEADLINE_S
        try:
            result = run_one(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        summary = " ".join(
            f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
        )
        print(f"{name}: {summary} attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
