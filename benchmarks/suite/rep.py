"""One rep of one workload, in the fresh process ``run.py`` starts.

Prints one JSON record on stdout.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux), so ``setup_s`` covers interpreter start, imports,
model deployment and input generation.  With ``--trace`` the layer
wrappers are installed after the imports and before any object is
built.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(workloads.n_requests(args.workload))
        tracer.install()
    t_begin = time.perf_counter()
    inputs, n_ops = workloads.prepare(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    t_exec = time.perf_counter()
    outcome = workloads.execute(args.workload, inputs)
    t_end = time.perf_counter()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "setup_s": setup_s,
        "exec_s": t_end - t_exec,
        "wall_s": t_end - t_begin,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": n_ops,
        "failed": outcome.failed,
        "completed": outcome.completed,
        "sha256": outcome.sha256,
        "sim": outcome.sim,
        "errors": outcome.errors,
    }
    if tracer is not None:
        record["trace"] = tracer.record(t_end - t_begin)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
