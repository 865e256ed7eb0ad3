#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report, for
each end-to-end metric, the median and the spread (inter-quartile range as
a share of the median) next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve

Runs seeds 1-10.  Run from the repository root.  Exits 1 if a run fails
or a spread exceeds a third of its bound.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402

SEEDS = range(1, 11)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {name: [] for name in bounds}
    ok = True
    for seed in SEEDS:
        cmd = spec["command"] + ["--workload", a.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % kv for kv in values.items())), flush=True)
        for name in samples:
            samples[name].append(values[name])
    print("%-12s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, values in samples.items():
        if len(values) < 2:
            continue
        s = metrics.spread(values)
        print("%-12s %12.6g %8.4f %8.4f" % (name, metrics.median(values), s, bounds[name]))
        if s > bounds[name] / 3.0:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
