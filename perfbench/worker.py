"""One fresh process of a benchmark run.

    python3 perfbench/worker.py --workload W --seed N --mode MODE
        [--seconds S] [--rounds K] [--trace 0|1] [--trace-out FILE]

MODE is `setup` (set up and stop), `timed` (set up, then run whole rounds
of items until S seconds have passed, or the workload's one round) or
`fixed` (set up, then run the first K rounds, under the tracer when
--trace 1).  The last line of standard output is a JSON object; `ready`
is the CLOCK_MONOTONIC time at which set-up ended, which the parent
turns into the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import speed
import tracing
from workloads import WORKLOADS


def run_rounds(w, inputs, stop, tracer=None, sampler=None):
    """Run whole rounds of `w.round_size` items until `stop(rounds, elapsed)`.

    Returns the records of the operations that succeeded, one
    (succeeded, seconds, reference seconds) triple per round, and the
    failures.  Item times leave out the sampler's own time.
    """
    records, rounds, failures = [], [], []
    inputs = iter(inputs)
    start = time.perf_counter()
    i = 0
    while True:
        ok, secs, ref = 0, 0.0, 0.0
        for _ in range(w.round_size):
            inp = next(inputs)
            spent = sampler.spent if sampler else 0.0
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = w.run(inp)
                else:
                    with tracer.span("item", i):
                        out = w.run(inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"{inp!r}: {type(exc).__name__}: {exc}")
            else:
                records.append((inp, out))
                ok += 1
            t1 = time.perf_counter()
            d = t1 - t0 - ((sampler.spent - spent) if sampler else 0.0)
            secs += d
            ref += d * (sampler.scale(t0, t1) if sampler else 1.0)
            i += 1
        rounds.append((ok, secs, ref))
        if w.one_round or stop(len(rounds), time.perf_counter() - start):
            return records, rounds, failures


def checked(w, records, seed):
    try:
        problems = w.check(records, seed)
    except Exception:
        traceback.print_exc()
        return False
    for text in problems:
        print(f"{w.name}: check failed: {text}", file=sys.stderr)
    return not problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    import cremona

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(cremona.__file__).startswith(src + os.sep):
        print(f"cremona was imported from {cremona.__file__}, not {src}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.span("setup"):
            w.setup()
    else:
        w.setup()
    ready = time.perf_counter()
    ready_calibration = speed.now_calibration_s()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "ready_calibration_s": ready_calibration}))
        return 0

    inputs = w.inputs(args.seed)
    result = {"ready": ready, "ready_calibration_s": ready_calibration}
    if args.mode == "timed":
        with speed.Sampler() as sampler:
            records, rounds, failures = run_rounds(
                w, inputs, lambda n, elapsed: elapsed >= args.seconds, sampler=sampler)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["items_per_s"] = statistics.median(ok / ref for ok, _, ref in rounds)
        result["measured_items_per_s"] = statistics.median(ok / secs for ok, secs, _ in rounds)
        result["calibration_s"] = statistics.median(d for _, d in sampler.samples)
    else:
        snap = tracer.snapshot() if tracer else None
        with speed.Sampler() as sampler:
            records, rounds, failures = run_rounds(
                w, inputs, lambda n, elapsed: n >= args.rounds, tracer, sampler)
        result["wall_s"] = sum(ref for _, _, ref in rounds)
        if tracer:
            tracer.uninstall()
            items = tracing.delta(tracer.snapshot(), snap)
            metrics = tracing.layer_metrics(tracer, items, len(rounds) * w.round_size)
            result["metrics"] = metrics
            if args.trace_out:
                with open(args.trace_out, "w") as fh:
                    json.dump({
                        "workload": w.name,
                        "seed": args.seed,
                        "spans": ["id name start end parent item".split()] + tracer.spans,
                        "calls": [[n, c, k] for (n, c), k in sorted(
                            tracer.calls.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
                        "counts": {k: v[0] for k, v in tracer.counts.items()},
                        "metrics": {k: v for k, (v, _) in metrics.items()},
                    }, fh)
    for text in failures:
        print(f"{w.name}: operation failed: {text}", file=sys.stderr)
    t0 = time.perf_counter()
    result["correct"] = checked(w, records, args.seed)
    result.update(check_s=time.perf_counter() - t0,
                  attempted=len(rounds) * w.round_size, failed=len(failures))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
