#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and prints, for every
metric, the median and the quartile spread (Q3 - Q1) / median over the
runs, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--workload NAME ...]

Each run uses its own seed (first-seed, first-seed + 1, ...). A spread at
or above a third of its bound is flagged. Run from the repository root;
progress goes to stderr, the table to stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit("%s seed %d: exit %d" % (workload, seed, out.returncode))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit("%s seed %d: outputs incorrect" % (workload, seed))
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})),
                file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("%s: %d runs, failed share %s" % (workload, len(runs), sorted(shares)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            s = spread(values) if len(values) >= 2 else 0.0
            flag = ""
            if bound is not None and s >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print("  %-36s median %-14.6g %-6s spread %6.2f%%  bound %s%s" % (
                name, statistics.median(values), unit, 100 * s,
                "-" if bound is None else "%g%%" % (100 * bound), flag))


if __name__ == "__main__":
    main()
