#!/usr/bin/env python3
"""Compares the benchmark results of two commits, or measures run-to-run spread.

  python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
      One row per workload x end-to-end metric: each side's median and
      quartiles, the fraction of pairs the change won, a verdict and each
      side's failure share. Runs are paired in file-name order, so name the
      files of the i-th alternating pair alike on both sides (e.g. run-03/).

  python3 benchmark/compare.py --spread DIR [--json FILE]
      Median, quartiles and (q3 - q1) / median of every end-to-end metric
      per workload, against the metric's bound; --json writes them as a
      baseline block.

Result files are the JSON files delta_bench writes (results_dir= or out=);
every *.json under a directory is read, traced and smoke runs are skipped.
Metric directions and bounds come from BENCHMARK.json at the repository
root. Verdicts follow the rule the benchmark is defined with:
  improved    at least ten pairs were run, the change won at least 9/10 of
              them (ties count for neither side) and the medians differ, in
              its favour, by more than the parent's own quartile distance
              (with fewer pairs the same result reads unresolved);
  unresolved  the parent's quartile distance is wider than the bound, and
              not every run of the change reads better than every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  no change   otherwise.
"""
import argparse
import json
import pathlib
import re
import statistics
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10  # fewer pairs never support a claimed gain


def natural_key(path):
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", str(path))]


def load(directory):
    """{workload: [result, ...]} in file-name order, untraced full runs only."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob("*.json"), key=natural_key):
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError) as err:
            sys.exit(f"compare.py: cannot read {path}: {err}")
        if "workload" not in result or result.get("trace") or not result.get("comparable"):
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def failure_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    gain = sign * (cm - pm)
    spread = p3 - p1
    if win_fraction >= 0.9 and gain > spread:
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved"), win_fraction
    if spread > bound * abs(pm):
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("no change" if all_better else "unresolved"), win_fraction
    if -gain > bound * abs(pm):
        return "worse", win_fraction
    return "no change", win_fraction


def fmt(v):
    return f"{v:.6g}"


def compare(spec, parent_dir, change_dir):
    parent_runs, change_runs = load(parent_dir), load(change_dir)
    header = ("workload", "metric", "parent q1/med/q3", "change q1/med/q3",
              "wins", "verdict", "fail p/c")
    rows = [header]
    counts = {}
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        for m in spec["end_to_end"]:
            pv, cv = values_of(parent, m["name"]), values_of(change, m["name"])
            if not pv or not cv:
                rows.append((workload, m["name"], "-", "-", "-", "missing", "-"))
                counts["missing"] = counts.get("missing", 0) + 1
                continue
            v, wins = verdict(pv, cv, m["better"], m["bound"])
            counts[v] = counts.get(v, 0) + 1
            rows.append((
                workload, m["name"],
                "/".join(fmt(x) for x in quartiles(pv)),
                "/".join(fmt(x) for x in quartiles(cv)),
                f"{wins:.2f} of {min(len(pv), len(cv))}", v,
                f"{failure_share(parent):.3f}/{failure_share(change):.3f}"))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("missing") else 0


def spread(spec, directory, json_path):
    runs = load(directory)
    baseline = {}
    worst = 0
    for workload in sorted(runs):
        results = runs[workload]
        baseline[workload] = {"runs": len(results), "seeds": sorted({r["seed"] for r in results})}
        for m in spec["end_to_end"]:
            values = values_of(results, m["name"])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / med if med else float("inf")
            status = "ok" if rel <= m["bound"] else "WIDER THAN BOUND"
            if rel > m["bound"]:
                worst = 1
            print(f"{workload:20} {m['name']:18} median {fmt(med):>12} {m['unit']:9}"
                  f" q1 {fmt(q1):>12} q3 {fmt(q3):>12} spread {rel:7.4f}"
                  f" bound {m['bound']:.2f} {status}")
            baseline[workload][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": rel}
    if json_path:
        pathlib.Path(json_path).write_text(json.dumps(baseline, indent=2) + "\n")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="+", help="PARENT_DIR CHANGE_DIR, or DIR with --spread")
    parser.add_argument("--spread", action="store_true", help="report run-to-run spread of one directory")
    parser.add_argument("--json", help="with --spread: write the medians and quartiles here")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    if args.spread:
        if len(args.dirs) != 1:
            parser.error("--spread takes one directory")
        return spread(spec, args.dirs[0], args.json)
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    return compare(spec, *args.dirs)


if __name__ == "__main__":
    sys.exit(main())
