#!/usr/bin/env python3
"""Compare two result sets of the grid benchmark.

    python3 gridbench/compare.py BASE_DIR HEAD_DIR

Each directory holds <workload>.jsonl files written by
`run.py ... --save DIR`: one result object per run, tagged with its
workload, seed and trace flag. For every metric of BENCHMARK.json and
every workload present on both sides this prints each side's median
and quartiles, the change's wins out of the pairs (runs paired by seed,
ties counting for neither side) and a verdict:

  improved    the change wins at least 9/10 of at least 10 pairs and the
              medians differ, in the better direction, by more than the
              base's own quartile spread;
  unresolved  either side's quartile spread, as a share of its median,
              is wider than the metric's bound, unless every change run
              beats every base run;
  worse       the change's median is worse than the base's by more than
              the bound;
  no worse    otherwise.

Per-layer metrics have no bound; they get the statistics and "-".
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(directory):
    """Return {(workload, trace): [result, ...]} for one result set."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, name)) as f:
            for line in f:
                line = line.strip()
                if line:
                    r = json.loads(line)
                    runs.setdefault((r["workload"], str(r["trace"])), []).append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, head, metric):
    """Pair runs by seed in order of appearance; unmatched runs drop out."""
    by_seed = {}
    for r in base:
        by_seed.setdefault(r.get("seed"), []).append(r)
    out = []
    for r in head:
        queue = by_seed.get(r.get("seed"))
        if queue:
            b = queue.pop(0)
            if metric in b["metrics"] and metric in r["metrics"]:
                out.append((b["metrics"][metric]["value"], r["metrics"][metric]["value"]))
    return out


def verdict(spec, base_vals, head_vals, paired):
    if "bound" not in spec:
        return "-"
    lower = spec["better"] == "lower"

    def better(h, b):
        return h < b if lower else h > b

    bound = spec["bound"]
    bq1, bmed, bq3 = quartiles(base_vals)
    hq1, hmed, hq3 = quartiles(head_vals)
    wins = sum(1 for b, h in paired if better(h, b))
    if len(paired) >= 10 and wins >= 0.9 * len(paired) and better(hmed, bmed) \
            and abs(hmed - bmed) > (bq3 - bq1):
        return "improved"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (hq3 - hq1) / abs(hmed) if hmed else 0.0)
    all_better = all(better(h, b) for h in head_vals for b in base_vals)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = (hmed - bmed) / abs(bmed) if bmed else 0.0
    if not lower:
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    return "no worse"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    base, head = load(argv[0]), load(argv[1])
    specs = [(m, "0") for m in bench["end_to_end"]] + [(m, "1") for m in bench["per_layer"]]
    header = "%-10s %-28s %-14s %-36s %-36s %-8s %s" % (
        "workload", "metric", "unit", "base median [q1, q3] (n)", "head median [q1, q3] (n)",
        "wins", "verdict")
    print(header)
    bad = False
    for w in bench["workloads"]:
        for spec, trace in specs:
            key = (w["name"], trace)
            name = spec["name"]
            bv = [r["metrics"][name]["value"] for r in base.get(key, []) if name in r["metrics"]]
            hv = [r["metrics"][name]["value"] for r in head.get(key, []) if name in r["metrics"]]
            if not bv or not hv:
                continue
            paired = pairs(base[key], head[key], name)
            lower = spec["better"] == "lower"
            wins = sum(1 for b, h in paired if (h < b if lower else h > b))
            v = verdict(spec, bv, hv, paired)
            bad = bad or v in ("worse", "unresolved")
            bq1, bmed, bq3 = quartiles(bv)
            hq1, hmed, hq3 = quartiles(hv)
            print("%-10s %-28s %-14s %-36s %-36s %-8s %s" % (
                w["name"], name, spec["unit"],
                "%.6g [%.6g, %.6g] (%d)" % (bmed, bq1, bq3, len(bv)),
                "%.6g [%.6g, %.6g] (%d)" % (hmed, hq1, hq3, len(hv)),
                "%d/%d" % (wins, len(paired)), v))
    for side, runs in (("base", base), ("head", head)):
        failed = sum(r["failed"] for rs in runs.values() for r in rs)
        incorrect = sum(1 for rs in runs.values() for r in rs if not r["correct"])
        if failed or incorrect:
            bad = True
            print("%s: %d failed cells, %d incorrect runs" % (side, failed, incorrect))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
