#!/usr/bin/env python3
"""Runs every workload twenty times and records how steady it is.

    python3 perfbench/steady.py

It makes two sets of ten runs of each workload at BENCHMARK.json's
`run_seconds`, on seeds 1-10 and 11-20, and writes perfbench/STEADINESS.json.
The sets alternate run by run (seed 1, 11, 2, 12, ...), the way a parent and
a change alternate when they are compared, so a drift of the host's speed
during the record falls on both sets alike. For each set, workload and
end-to-end metric the record holds the values, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median beside
the metric's bound. It also holds `compare.py`'s verdicts with set 1 as the
parent and set 2 as the change, and the other way round: two sets of the same
code must pass the gate in both directions.
"""

import json
import os
import statistics
import subprocess
import sys

from compare import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = [range(1, 11), range(11, 21)]


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed with exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: {workload} seed {seed} reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    end_to_end = spec["end_to_end"]
    # runs[set][workload][metric] -> values in seed order
    runs = [{}, {}]
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in zip(*SETS):
            for index, seed in enumerate(pair):
                for name, value in run_once(workload, seed, seconds).items():
                    runs[index].setdefault(workload, {}).setdefault(name, []).append(value)
                print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
    sets = []
    for seeds, values in zip(SETS, runs):
        sets.append({
            "seeds": [seeds[0], seeds[-1]],
            "workloads": {
                w: {m["name"]: summarize(metrics[m["name"]], m["bound"]) for m in end_to_end}
                for w, metrics in values.items()
            },
        })
    record = {
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "order": "alternating: seed 1, 11, 2, 12, ..., 10, 20 per workload",
        "sets": sets,
        "gate_set1_to_set2": compare(end_to_end, runs[0], runs[1]),
        "gate_set2_to_set1": compare(end_to_end, runs[1], runs[0]),
    }
    for w in sets[0]["workloads"]:
        for m in end_to_end:
            a, b = (s["workloads"][w][m["name"]] for s in sets)
            print(f"{w}/{m['name']}: median {a['median']:.6g} [{a['spread'] * 100:.1f}%] | "
                  f"{b['median']:.6g} [{b['spread'] * 100:.1f}%] (bound {m['bound'] * 100:.0f}%)")
    for key in ("gate_set1_to_set2", "gate_set2_to_set1"):
        worst = max(record[key], key=lambda v: v["worse_by"])
        flagged = [f"{v['workload']}/{v['metric']}" for v in record[key] if v["regressed"]]
        print(f"{key}: worst {worst['workload']}/{worst['metric']} "
              f"{worst['worse_by'] * 100:+.1f}%; regressions: {flagged or 'none'}")
    with open(os.path.join(HERE, "STEADINESS.json"), "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
