#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread (IQR as a share of the median).

Usage, from the repository root:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [workload ...]

Runs the command of BENCHMARK.json once per seed and workload (default:
every workload), with --trace 0 and the file's run_seconds, and flags
every spread that is not below a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- not below bound/3"
            if flag and name != "setup_s":
                ok = False
            print(f"{workload:<18} {name:<16} median {med:<14.6g} "
                  f"spread {spread:6.3f} (bound {bounds[name]}){flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
