#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 e2ebench/spread.py --workload fleet_1024 --seeds 1-10 --seconds 20

Runs run.py once per seed and prints, per metric, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4),
next to the bound BENCHMARK.json fixes for the metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: NOT correct ({result['failed']} failed)")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"{args.workload}: {len(values['setup_s'])} seeds, {seconds} s each")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"  {name:24s} median {median:<12.6g} spread {spread:.4f}  "
              f"bound {bound}{flag}")


if __name__ == "__main__":
    main()
