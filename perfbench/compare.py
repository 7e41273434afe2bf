#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl CAND.jsonl

Each file holds the records `run.py --out FILE` appends, one JSON object
per run, all of one workload. Runs are grouped by trace mode; for every
metric the script prints each side's median and quartiles and the change
of the medians. End-to-end metrics are judged against the bounds in
BENCHMARK.json: a candidate median worse than the base median by more than
the bound is a regression.

The comparison is refused (exit 2) when the two sides ran different
workloads or a different thread count, or when either side mixes them:
such numbers do not measure the same work. A differing CPU count is
reported but not refused. Exit 1 means at least one regression.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def stamps(records, key):
    return sorted({str(r[key]) for r in records})


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, cand = load(argv[1]), load(argv[2])
    if not base or not cand:
        print("compare: refusing: a side has no records", file=sys.stderr)
        return 2
    for key in ("workload", "threads"):
        b, c = stamps(base, key), stamps(cand, key)
        if len(b) != 1 or len(c) != 1:
            print(f"compare: refusing: a side mixes {key} stamps (base {', '.join(b)}; "
                  f"candidate {', '.join(c)}); compare one workload at a time", file=sys.stderr)
            return 2
        if b != c:
            print(f"compare: refusing: {key} stamps differ (base {b[0]}, candidate {c[0]}); "
                  "results are not comparable", file=sys.stderr)
            return 2
    if stamps(base, "nproc") != stamps(cand, "nproc"):
        print(f"compare: note: CPU counts differ (base {stamps(base, 'nproc')}, "
              f"candidate {stamps(cand, 'nproc')})")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"workload {base[0]['workload']}, threads {base[0]['threads']}, "
          f"base {stamps(base, 'git_rev')} ({len(base)} runs), "
          f"candidate {stamps(cand, 'git_rev')} ({len(cand)} runs)")
    regressions = 0
    for trace in (False, True):
        b_runs = [r for r in base if r["trace"] == trace]
        c_runs = [r for r in cand if r["trace"] == trace]
        if not b_runs or not c_runs:
            continue
        print("per layer (traced runs):" if trace else "end to end (tracing off):")
        for name in b_runs[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not bv or not cv:
                continue
            bq, cq = quartiles(bv), quartiles(cv)
            change = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            verdict = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                bound = bounds[name]["bound"]
                verdict = "REGRESSION" if worse > bound else f"ok (bound {bound:.0%})"
                regressions += worse > bound
            unit = b_runs[0]["metrics"][name]["unit"]
            print(f"  {name:34} {bq[1]:>14.6g} -> {cq[1]:<14.6g} {unit:<8} {change:+8.2%} "
                  f"[{better.get(name, '?')} is better] base IQR {bq[0]:.6g}..{bq[2]:.6g}, "
                  f"candidate IQR {cq[0]:.6g}..{cq[2]:.6g} {verdict}")
    exact = sorted(set().union(*(r.get("exact", {}) for r in base + cand)))
    if exact:
        print("work counters repeated exactly within every run: " + ", ".join(
            f"{k}={all(r['exact'].get(k, True) for r in base + cand)}" for k in exact))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
