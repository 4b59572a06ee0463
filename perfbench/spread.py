#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each seed is one run of perfbench/run.py;
a failed or incorrect run aborts. For every metric the script prints the
median of the runs and the spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.
The last line of standard output is the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            args.seconds = str(json.load(f)["run_seconds"])
    values = {}
    units = {}
    notes = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        notes = lines[:-1]
        if done.returncode != 0 or not result or not result["correct"]:
            sys.exit(f"spread.py: seed {seed} failed (exit {done.returncode})")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "runs": len(v)}
        print(f"{name:32s} median {med:16.6g} {units[name]:8s} spread {spread:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": float(args.seconds), "trace": args.trace,
                      "last_run_notes": notes, "metrics": summary}))


if __name__ == "__main__":
    main()
