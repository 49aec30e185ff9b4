#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

From the repository root:

    python3 perfbench/spread.py --runs 10 build recrawl serve
    python3 perfbench/spread.py --runs 3 --trace 1 serve

For every workload it runs BENCHMARK.json's command once per seed, checks
that the last line is a result with every metric BENCHMARK.json lists for
that mode, and prints each metric's median and its interquartile spread as a
share of the median (Python's statistics.quantiles, n=4) beside the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"] != 0:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for m in metrics:
                if m["name"] not in res["metrics"]:
                    print(f"{w} seed {seed}: missing {m['name']}")
                    ok = False
                    continue
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
        for m in metrics:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound else "OVER"
                ok = ok and spread <= bound
            print(f"{w:8s} {m['name']:34s} median {med:14.6g}  spread {spread:6.3f}  bound {bound}  {flag}")
            if args.verbose:
                print("         " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
