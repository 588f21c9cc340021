#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--out FILE]

For every workload and seed it runs `perfbench/run.py --trace 0`, then
prints, per end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json. With --traced it also makes one traced
run per workload (first seed) and records its per-layer metrics. With --out
it writes the summary as JSON (perfbench/BASELINE.json holds the committed
baseline). Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=0,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values = {}
        elapsed = []
        for seed in seeds:
            result, secs = run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"] != 0:
                raise SystemExit(f"{workload} seed {seed}: failed checks")
            elapsed.append(secs)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        print(f"{workload}: {len(seeds)} runs, {statistics.median(elapsed):.1f}"
              f" s per run (median)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]["bound"]
            rows[name] = {"unit": bounds[name]["unit"], "median": median,
                          "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
            flag = "" if spread < bound / 3 else (
                "  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {name:14s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}  bound {bound:.0%}"
                  f"{flag}")
        entry = {"run_s_median": statistics.median(elapsed),
                 "end_to_end": rows}
        if args.traced:
            result, _ = run(workload, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {name: m["value"] for name, m in
                                  result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
