#!/usr/bin/env python3
"""Parent-vs-change comparison of benchmark results.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Each file is a steadiness record written by `perfbench/steady.py`; the
runs of all its sets are pooled. For every workload and end-to-end metric
the change's median is compared with the parent's; a metric that got worse by more
than its BENCHMARK.json bound, or that is missing, is a regression and
makes the command exit 1.
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    if better == "lower":
        return (change - parent) / parent
    return (parent - change) / parent


def compare(end_to_end, parent, change):
    """Compares two result sets.

    `end_to_end` is BENCHMARK.json's metric list; `parent` and `change`
    map workload -> metric -> list of values from repeated runs. Returns
    one verdict dict per (workload, metric) of the parent set.
    """
    verdicts = []
    for workload in sorted(parent):
        for metric in end_to_end:
            name = metric["name"]
            before = parent[workload].get(name)
            after = change.get(workload, {}).get(name)
            verdict = {"workload": workload, "metric": name, "bound": metric["bound"]}
            if not before or not after:
                verdict.update(parent=None, change=None, worse_by=None, regressed=True)
            else:
                p, c = statistics.median(before), statistics.median(after)
                share = worse_by(p, c, metric["better"])
                verdict.update(parent=p, change=c, worse_by=share,
                               regressed=share > metric["bound"])
            verdicts.append(verdict)
    return verdicts


def values_of(record):
    """workload -> metric -> values of every run in a steadiness record."""
    values = {}
    for entry in record["sets"]:
        for w, metrics in entry["workloads"].items():
            for m, s in metrics.items():
                values.setdefault(w, {}).setdefault(m, []).extend(s["values"])
    return values


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    with open(argv[1]) as a, open(argv[2]) as b:
        verdicts = compare(end_to_end, values_of(json.load(a)), values_of(json.load(b)))
    for v in verdicts:
        shown = "missing" if v["worse_by"] is None else f"{v['worse_by'] * 100:+.1f}%"
        flag = "REGRESSION" if v["regressed"] else "ok"
        print(f"{v['workload']}/{v['metric']}: parent {v['parent']} change {v['change']} "
              f"worse by {shown} (bound {v['bound'] * 100:.0f}%) {flag}")
    return 1 if any(v["regressed"] for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
