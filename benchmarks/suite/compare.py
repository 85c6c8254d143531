#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/suite/compare.py PARENT_DIR CHANGE_DIR \\
        [--claim WORKLOAD:METRIC ...]

Each directory holds the ``results.json`` of at least ten untraced runs
(searched recursively), made in alternating order with the other side;
the i-th runs of the two sides form a pair.  Per workload and
end-to-end metric it prints each side's median and quartiles and a
verdict, using the directions and bounds in ``BENCHMARK.json``:

* a claimed metric is ``improved`` only if the change wins at least 9
  of 10 pairs (ties count for neither) and the medians differ by more
  than the parent's quartile spread; otherwise ``not met``;
* any other metric is ``better`` when every change run beats every
  parent run, ``unresolved`` when the parent's spread is wider than the
  bound, ``regressed`` when the change's median is worse than the
  parent's by more than the bound, and ``ok`` otherwise;
* a rise in the share of failed operations is a regression.

Exits 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_RUNS = 10


def load_runs(directory) -> list:
    """The untraced results.json documents under ``directory``, in path
    order."""
    runs = []
    for path in sorted(Path(directory).rglob("results.json")):
        doc = json.loads(path.read_text())
        if not doc["trace"]:
            runs.append(doc)
    return runs


def quartiles(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, bound: float, better: str,
            claimed: bool = False) -> str:
    """Verdict for one workload x metric from per-run values."""
    sign = 1.0 if better == "higher" else -1.0
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    if claimed:
        pairs = list(zip(parent, change))
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        if wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > q3 - q1:
            return "improved"
        return "not met"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "better"
    if q3 - q1 > bound * abs(p_med):
        return "unresolved"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regressed"
    return "ok"


def failed_share(runs, workload: str) -> float:
    attempted = sum(r["workloads"][workload]["attempted"] for r in runs)
    failed = sum(r["workloads"][workload]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def compare(parent_runs, change_runs, spec: dict, claims=()) -> list:
    """Rows (workload, metric, parent stats, change stats, verdict)."""
    rows = []
    every = parent_runs + change_runs
    workloads = [w for w in parent_runs[0]["workloads"]
                 if all(w in r["workloads"] for r in every)]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return [r["workloads"][workload]["end_to_end"][name]["median"]
                        for r in runs]

            p, c = values(parent_runs), values(change_runs)
            claimed = f"{workload}:{name}" in claims or name in claims
            rows.append((workload, name, quartiles(p), quartiles(c),
                         verdict(p, c, metric["bound"], metric["better"],
                                 claimed)))
        p_fail = failed_share(parent_runs, workload)
        c_fail = failed_share(change_runs, workload)
        rows.append((workload, "failed_frac", (p_fail,) * 3, (c_fail,) * 3,
                     "regressed" if c_fail > p_fail else "ok"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC (or METRIC) the change claims "
                             "to improve")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    if min(len(parent), len(change)) < MIN_RUNS:
        print(f"compare.py: need >= {MIN_RUNS} untraced runs per side, got "
              f"{len(parent)} and {len(change)}", file=sys.stderr)
        return 2
    n = min(len(parent), len(change))
    rows = compare(parent[:n], change[:n], spec, set(args.claim))
    print(f"{'workload':<16}{'metric':<22}{'parent q1/med/q3':>36}"
          f"{'change q1/med/q3':>36}  verdict")
    for workload, metric, p, c, result in rows:
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{workload:<16}{metric:<22}{fmt.format(*p):>36}"
              f"{fmt.format(*c):>36}  {result}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
