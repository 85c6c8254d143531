#!/usr/bin/env python3
"""The repository's one benchmark: four seeded workloads, one command.

Run from the repository root::

    python3 benchmarks/suite/run.py --seed 11 --out .bench_out/a
    python3 benchmarks/suite/run.py --workload serve_steady --seed 3 \\
        --seconds 24 --trace 0

Every rep runs in a fresh single-threaded process (``rep.py``), one at
a time; with several workloads the reps are interleaved so host drift
hits all of them alike.  Without ``--seconds`` each workload runs its
fixed rep count; with it, reps continue until the next one would end
past the budget (at least two, so the determinism gate always has a
pair).  ``--trace 1`` instead runs one untraced and one traced rep per
workload and reports the per-layer metrics; end-to-end numbers only
ever come from untraced reps.

The command prints ``workload metric value unit`` per metric, writes
``<out>/results.json`` (and ``<out>/trace_<workload>.json`` when
tracing), and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when a
correctness gate fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Reps per workload when no --seconds budget is given.
REPS = {"sweep_quick": 3, "serve_steady": 5, "serve_overload": 5,
        "cluster_phased": 5}
MIN_REPS = 2
#: Kill a rep that runs longer than this (a wedged simulation).
REP_TIMEOUT_S = 120.0

#: End-to-end metric -> unit.  "Operation" means a sweep problem or a
#: served request.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_latency_p50_ms": "ms",
    "sim_latency_tail_ms": "ms",
    "completed_frac": "fraction",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: shows host drift between
    runs.  Recorded only; nothing is normalized by it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - t0


def spawn_rep(workload: str, seed: int, trace: bool) -> dict:
    """Run one rep in a fresh process and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(time.monotonic())]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} rep exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def end_to_end(reps: list) -> dict:
    """Metric -> {median, q1, q3} over a workload's untraced reps."""
    per_rep = {
        "setup_s": [r["setup_s"] for r in reps],
        "ops_per_s": [r["ops"] / r["exec_s"] for r in reps],
        "peak_rss_mb": [r["rss_mb"] for r in reps],
        # Simulated numbers repeat exactly across reps of one seed.
        "sim_latency_p50_ms": [r["sim"]["latency_p50_ms"] for r in reps],
        "sim_latency_tail_ms": [r["sim"]["latency_tail_ms"] for r in reps],
        "completed_frac": [r["sim"]["completed_frac"] for r in reps],
    }
    return {name: quartiles(values) for name, values in per_rep.items()}


def check(reps: list) -> list:
    """Correctness failures of one workload's reps."""
    errors = [e for r in reps for e in r["errors"]]
    if len({r["sha256"] for r in reps}) > 1:
        errors.append("reps of one seed emitted different documents: "
                      + ", ".join(r["sha256"][:12] for r in reps))
    return errors


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(REPS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long (default: fixed "
                             "rep counts)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for results.json and traces")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the repro package is missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    names = [args.workload] if args.workload else list(REPS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    calibration_s = calibrate()
    gate_errors = workloads.gate_data_mode(args.seed)

    reps = {name: [] for name in names}
    start = time.monotonic()

    def wants_more(name: str) -> bool:
        done = reps[name]
        if args.trace:
            return len(done) < 2
        if args.seconds is None:
            return len(done) < REPS[name]
        if len(done) < MIN_REPS:
            return True
        longest = max(r["rep_s"] for r in done)
        return time.monotonic() - start + longest <= args.seconds

    try:
        while True:
            pending = [name for name in names if wants_more(name)]
            if not pending:
                break
            for name in pending:
                t0 = time.monotonic()
                # In trace mode the second rep is the traced one.
                record = spawn_rep(name, args.seed,
                                   bool(args.trace) and len(reps[name]) == 1)
                record["rep_s"] = time.monotonic() - t0
                reps[name].append(record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    results = {
        "schema": "cocopelia.suite/v1",
        "seed": args.seed,
        "trace": bool(args.trace),
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "calibration_s": calibration_s},
        "gate_errors": gate_errors,
        "workloads": {},
    }
    printed = {}
    for name in names:
        recs = reps[name]
        entry = {"reps": recs, "errors": check(recs),
                 "attempted": sum(r["ops"] for r in recs),
                 "failed": sum(r["failed"] for r in recs),
                 "latency": {k: recs[0]["sim"][k]
                             for k in ("tail_percentile", "samples")}}
        if args.trace:
            untraced, traced = recs
            metrics = tracing.per_layer_metrics(
                traced["trace"], traced["sim"], traced["ops"],
                untraced["wall_s"])
            entry["per_layer"] = {k: v for k, (v, _u) in metrics.items()}
            with open(out / f"trace_{name}.json", "w") as fh:
                json.dump({"workload": name, "seed": args.seed,
                           "untraced_wall_s": untraced["wall_s"],
                           "metrics": entry["per_layer"],
                           **traced["trace"]}, fh, indent=1, sort_keys=True)
            for metric, (value, unit) in metrics.items():
                printed[(name, metric)] = (value, unit)
        else:
            entry["end_to_end"] = end_to_end(recs)
            for metric, stats in entry["end_to_end"].items():
                printed[(name, metric)] = (stats["median"], E2E_UNITS[metric])
        results["workloads"][name] = entry

    for (name, metric), (value, unit) in printed.items():
        print(f"{name} {metric} {value!r} {unit}")
    errors = gate_errors + [e for w in results["workloads"].values()
                            for e in w["errors"]]
    results["correct"] = not errors
    with open(out / "results.json", "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    for error in errors:
        print(f"run.py: correctness gate failed: {error}", file=sys.stderr)

    single = len(names) == 1
    entries = results["workloads"].values()
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(w["attempted"] for w in entries),
        "failed": sum(w["failed"] for w in entries),
        "metrics": {(metric if single else f"{name}.{metric}"):
                    {"value": value, "unit": unit}
                    for (name, metric), (value, unit) in printed.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
