#!/usr/bin/env python3
"""Summarize benchmark result files and check that outputs repeat.

    python3 perfbench/report.py [RESULT.json | DIR ...] [--json OUT.json]

With no arguments, reads every file under perfbench/out/results/.  For
each workload and trace setting it prints, per metric, the run count,
median, quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median.  It then groups ops by (workload, seed, op index,
traced) and reports any group whose output digests or Picard iteration
counts differ between runs; the exit code is 1 if one does.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(paths):
    files = []
    for p in map(Path, paths or [HERE / "out" / "results"]):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def summarize(records):
    groups = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            groups[(r["workload"], r["trace"])][name].append(m["value"])
    out = {}
    for (workload, trace), metrics in sorted(groups.items()):
        rows = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            rows[name] = {"runs": len(values), "median": med, "q1": q1,
                          "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
        out[f"{workload} trace{trace}"] = rows
    return out


def digest_mismatches(records):
    seen = defaultdict(set)
    for r in records:
        for op in r["ops"]:
            key = (r["workload"], r["seed"], op["index"], op["traced"])
            seen[key].add((op["digest"], json.dumps(op["iterations"])))
    return {key: vals for key, vals in seen.items() if len(vals) > 1}, len(seen)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("paths", nargs="*")
    p.add_argument("--json", help="also write the summary here")
    args = p.parse_args(argv)
    records = load(args.paths)
    summary = summarize(records)
    for group, rows in summary.items():
        print(f"== {group}")
        for name, row in rows.items():
            print(f"  {name:34s} n={row['runs']:<3d} median={row['median']:<12.6g}"
                  f" q1={row['q1']:<12.6g} q3={row['q3']:<12.6g}"
                  f" spread={row['spread']:.4f}")
    bad, groups = digest_mismatches(records)
    print(f"outputs: {groups} op groups, {len(bad)} with differing digests "
          "or iteration counts")
    for key, vals in sorted(bad.items()):
        print(f"  {key}: {sorted(vals)}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"summary": summary, "op_groups": groups,
                       "differing_op_groups": len(bad)}, fh, indent=1)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
