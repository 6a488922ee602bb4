"""Summarise and compare result sets written by `run.py --out`.

usage:
  python3 perfbench/compare.py summary RESULTS.jsonl [--json OUT.json]
  python3 perfbench/compare.py diff PARENT.jsonl CHANGE.jsonl
  python3 perfbench/compare.py pairs PARENT_TREE CHANGE_TREE --workload W
          [--pairs 10] [--seconds S] [--prefix results]

`summary` prints, per workload, the median, quartiles and spread
(interquartile range over median) of each end-to-end metric and of the
times as measured, a tail pooled over all runs' operations, and from traced
runs each per-layer metric with its share of the traced operations' work
phase (wall time minus set-up).

`diff` pairs the i-th run of each side per workload, in file order, and
gives every workload x end-to-end metric a verdict:
  improved    the change won at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  otherwise, if either side's spread exceeds the metric's bound
              and not every change run beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  no worse    otherwise.
Bounds and directions come from BENCHMARK.json.

`pairs` runs each tree's benchmark alternately (parent first in even
pairs, the change first in odd ones), with the same seed on both sides of
a pair, appending to PREFIX-parent.jsonl and PREFIX-change.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def benchmark_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        if rec["trace"] == trace:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def _stats(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def summary(records: list[dict]) -> dict:
    result = {}
    untraced, traced = by_workload(records, 0), by_workload(records, 1)
    for workload in sorted(set(untraced) | set(traced)):
        recs, trecs = untraced.get(workload, []), traced.get(workload, [])
        entry = {
            "attempted": sum(r["attempted"] for r in recs + trecs),
            "failed": sum(r["failed"] for r in recs + trecs),
            "work_name": (recs + trecs)[0]["work_name"],
            "env": (recs + trecs)[0]["env"],
        }
        for key in ("end_to_end", "raw"):
            names = recs[0][key] if recs else {}
            entry[key] = {n: _stats([r[key][n] for r in recs]) for n in names}
        if recs:
            walls = [w for r in recs for w in r["samples"]["untraced_wall_s"]]
            pct, value = tail_percentile(walls)
            entry["raw"]["wall_s.tail_pooled"] = {
                "value": value, "percentile": pct, "operations": len(walls)}
        entry["per_layer"] = {}
        if trecs:
            # shares of the traced operations' own work phase (wall - setup)
            work_s = statistics.median(r["traced_work_s"] for r in trecs)
            entry["traced_work_s"] = work_s
            for name in trecs[0]["per_layer"]:
                med = statistics.median(r["per_layer"][name] for r in trecs)
                entry["per_layer"][name] = {"median": med}
                if name.endswith("_s") and name != "trace.overhead_s":
                    entry["per_layer"][name]["share_of_work_phase"] = med / work_s
        result[workload] = entry
    return result


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> tuple:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if lower else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = min(len(parent), len(change))
    gain = sign * (pm - cm)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    every = all(sign * (p - c) > 0 for p in parent for c in change)
    if pairs and wins >= 0.9 * pairs and gain > p3 - p1:
        word = "improved"
    elif spread > bound and not every:
        word = "unresolved"
    elif -gain > bound * pm:
        word = "worse"
    else:
        word = "no worse"
    return (p1, pm, p3), (c1, cm, c3), wins, pairs, word


def diff(parent: list[dict], change: list[dict]) -> bool:
    metrics = benchmark_metrics()
    worse = False
    cp = by_workload(change, 0)
    for workload, precs in by_workload(parent, 0).items():
        crecs = cp.get(workload, [])
        if not crecs:
            print(f"{workload}: no change runs")
            continue
        print(f"{workload}: {len(precs)} parent runs, {len(crecs)} change runs")
        for name, spec in metrics.items():
            p = [r["end_to_end"][name] for r in precs]
            c = [r["end_to_end"][name] for r in crecs]
            pq, cq, wins, pairs, word = verdict(
                p, c, spec["bound"], spec["better"] == "lower")
            worse |= word == "worse"
            print(f"  {name:14s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {spec['unit']}  "
                  f"won {wins}/{pairs}  {word}")
        failed = [sum(r["failed"] for r in recs) for recs in (precs, crecs)]
        print(f"  failed operations: parent {failed[0]}, change {failed[1]}")
    return not worse


def pairs(args) -> None:
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            out = os.path.abspath(f"{args.prefix}-{side}.jsonl")
            subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(i + 1), "--seconds", str(args.seconds), "--out", out],
                cwd=sides[side], check=True, stdout=subprocess.DEVNULL,
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="summarise or compare benchmark results")
    sub = parser.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summary")
    s.add_argument("results")
    s.add_argument("--json")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    p = sub.add_parser("pairs")
    p.add_argument("parent_tree")
    p.add_argument("change_tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--prefix", default="results")
    args = parser.parse_args(argv)

    if args.cmd == "diff":
        return 0 if diff(load(args.parent), load(args.change)) else 1
    if args.cmd == "pairs":
        pairs(args)
        return 0
    result = summary(load(args.results))
    for workload, rec in result.items():
        print(f"{workload}: {rec['attempted']} operations, {rec['failed']} failed")
        for key in ("end_to_end", "raw"):
            for name, m in rec[key].items():
                if "median" in m:
                    print(f"  {name:24s} {m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
                          f"  spread {m['spread']:.3f} over {m['runs']} runs")
                else:
                    print(f"  {name:24s} {m['value']:.6g}  (p{m['percentile']:.1f} of "
                          f"{m['operations']} operations)")
        for name, m in rec["per_layer"].items():
            share = m.get("share_of_work_phase")
            extra = f"  ({100 * share:.1f}% of work phase)" if share is not None else ""
            print(f"  {name:24s} {m['median']:.6g}{extra}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
