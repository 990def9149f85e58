#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds N]

For every workload (default: all in BENCHMARK.json) it makes one untraced
run per seed and one traced run with the first seed, then prints one JSON
object: the stated input size, the traced layer shares, and for every
end-to-end metric its values, median, quartiles and spread, the distance
between the quartiles (statistics.quantiles(values, n=4)) as a share of
the median. host_kernel_s lists each run's median reference-kernel time
in host seconds, which shows how fast the host was during the run, and
run_elapsed_s how long each whole run took, build check included.
perfbench/measured.json holds one such report.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result object, stated input size,
    median reference-kernel seconds, elapsed host seconds)."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    size = re.search(r"programs=(\d+) blocks=(\d+) trace_instrs=(\d+) "
                     r"configs=(\d+) workers=(\d+)", done.stderr)
    keys = ["programs", "blocks", "trace_instrs", "configs", "workers"]
    kernel = re.search(r"reference kernel: median ([\d.]+) s", done.stderr)
    return (json.loads(done.stdout.strip().splitlines()[-1]),
            dict(zip(keys, map(int, size.groups()))), float(kernel.group(1)),
            time.monotonic() - start)


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
        bench = json.load(file)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    seeds = seed_list(args.seeds)

    report = {"seeds": seeds, "seconds": args.seconds,
              "host_cpus": os.cpu_count(), "workloads": {}}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for workload in args.workloads.split(","):
        values = {}
        kernels = []
        elapsed = []
        for seed in seeds:
            result, size, kernel, took = run(workload, seed, args.seconds, 0)
            kernels.append(kernel)
            elapsed.append(round(took, 1))
            if seed == seeds[0]:
                first_size = size
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()) +
                  f" host_kernel_s={kernel:.4g}", file=sys.stderr)
        traced, _, _, took = run(workload, seeds[0], args.seconds, 1)
        metrics = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = (statistics.quantiles(series, n=4)
                         if len(series) > 1 else (median, 0, median))
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else 0.0,
                             "values": series}
        report["workloads"][workload] = {
            "why": why[workload],
            "input_size": first_size,
            "layer_shares": {name: round(m["value"], 4)
                             for name, m in traced["metrics"].items()
                             if name.endswith(".share") and m["value"] > 0},
            "metrics": metrics,
            "host_kernel_s": kernels,
            "run_elapsed_s": elapsed,
            "traced_run_elapsed_s": round(took, 1),
        }
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
