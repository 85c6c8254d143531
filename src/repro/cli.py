"""Command-line interface: deploy, run, select, and reproduce.

Usage (see ``python -m repro --help``)::

    python -m repro machines
    python -m repro deploy --machine testbed_ii
    python -m repro run gemm 8192 8192 8192 --library cocopelia
    python -m repro select gemm 8192 8192 8192 --model dr
    python -m repro experiment fig5 --scale quick

Deployment databases are cached as JSON under ``--db-dir`` (default
``.cocopelia/``), so repeated CLI calls skip re-benchmarking, exactly
like the paper's once-per-machine offline deployment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import experiments
from .baselines import (
    BlasXLibrary,
    CublasXtLibrary,
    SerialOffloadLibrary,
    UnifiedMemoryLibrary,
)
from .core.params import (CoCoProblem, Loc, axpy_problem, gemm_problem,
                          gemv_problem, syrk_problem)
from .core.select import select_tile
from .deploy import DeploymentConfig, deploy_or_load
from .errors import ReproError
from .experiments.harness import run_problem
from .experiments.report import format_table
from .runtime import CoCoPeLiaLibrary
from .sim.faults import NAMED_PLANS, resolve_plan
from .sim.machine import get_testbed

EXPERIMENTS = {
    "fig1": experiments.fig1_tiling_effect,
    "table2": experiments.table2_transfer_models,
    "table3": experiments.table3_testbeds,
    "fig2": experiments.fig2_pipeline,
    "fig3": experiments.fig3_framework,
    "fig4": experiments.fig4_bts_validation,
    "fig5": experiments.fig5_dr_validation,
    "fig6": experiments.fig6_tile_selection,
    "fig7": experiments.fig7_performance,
    "table4": experiments.table4_improvement,
}

LIBRARIES = {
    "cocopelia": CoCoPeLiaLibrary,
    "cublasxt": CublasXtLibrary,
    "blasx": BlasXLibrary,
    "serial": SerialOffloadLibrary,
    "unified": UnifiedMemoryLibrary,
}


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", default="testbed_ii",
                        choices=("testbed_i", "testbed_ii"),
                        help="simulated testbed (default: testbed_ii)")
    parser.add_argument("--scale", default="quick",
                        choices=("tiny", "quick", "paper"),
                        help="benchmark sweep scale (default: quick)")
    parser.add_argument("--db-dir", default=None,
                        help="model database directory (default: .cocopelia)")


def _add_problem_args(parser: argparse.ArgumentParser,
                      tile: bool = True) -> None:
    """One BLAS invocation: routine, dims, dtype, model, locations."""
    parser.add_argument("routine", choices=tuple(_PROBLEMS))
    parser.add_argument("dims", type=int, nargs="+",
                        help="problem dims: " + " / ".join(
                            f"{name} {dims}"
                            for name, (dims, _) in _PROBLEMS.items()))
    parser.add_argument("--dtype", default="d", choices=("d", "s"))
    parser.add_argument("--model", default="auto",
                        help="prediction model for selection (default: auto)")
    if tile:
        parser.add_argument("--tile", type=int, default=None,
                            help="explicit tiling size "
                                 "(default: model-selected)")
    for name, operands in (("a", "A/x"), ("b", "B/x/y"), ("c", "C/y")):
        parser.add_argument(f"--loc-{name}", type=_loc, default=Loc.HOST,
                            help=f"location of {operands}: host|device")


def _add_workload_args(parser: argparse.ArgumentParser, arrival: str,
                       rate: float, requests: int,
                       scales=("tiny", "quick", "paper")) -> None:
    """A generated request trace: arrival process, size, mix, seed."""
    parser.add_argument("--arrival", default=arrival,
                        choices=("poisson", "bursty"),
                        help=f"arrival process (default: {arrival})")
    parser.add_argument("--rate", type=float, default=rate,
                        help=f"mean arrival rate in req/s (default: {rate:g})")
    parser.add_argument("--requests", type=int, default=requests,
                        help=f"number of requests (default: {requests})")
    parser.add_argument("--workload-scale", default="tiny", choices=scales,
                        help="problem-size mix scale (default: tiny)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload + simulation seed (default: 0)")


def _workload_fields(args) -> dict:
    """The workload-spec fields :func:`_add_workload_args` parses."""
    return dict(arrival=args.arrival, rate=args.rate,
                n_requests=args.requests, scale=args.workload_scale,
                seed=args.seed)


def _add_admission_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--admission", default="shed",
                        choices=("none", "shed", "downgrade"),
                        help="admission control (default: shed)")
    parser.add_argument("--admission-percentile", type=float, default=None,
                        metavar="P",
                        help="judge admission against the predicted latency "
                             "at this percentile (e.g. 99) instead of the "
                             "mean; default: mean-based")


def _add_out_dir(parser: argparse.ArgumentParser, names: str) -> None:
    parser.add_argument("--out-dir", default=".",
                        help=f"directory for {names} "
                             f"(default: current directory)")


def _write_document(out_dir: str, name: str, text: str) -> str:
    """Write ``text`` to ``out_dir/name`` (creating the directory)."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _loc(value: str) -> Loc:
    try:
        return Loc(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"location must be 'host' or 'device', got {value!r}"
        ) from None


def _deployment_config(scale: str) -> DeploymentConfig:
    routines = [("gemm", np.float64), ("gemm", np.float32),
                ("axpy", np.float64), ("gemv", np.float64),
                ("syrk", np.float64)]
    if scale == "paper":
        return DeploymentConfig(routines=tuple(routines))
    return DeploymentConfig.quick(routines=routines)


def _models_for(args):
    machine = get_testbed(args.machine)
    models = deploy_or_load(
        machine, variant=args.scale, db_dir=args.db_dir,
        force=getattr(args, "force", False),
        config=_deployment_config(args.scale),
    )
    return machine, models


#: Routine -> (the dims it takes, problem builder).
_PROBLEMS = {
    "gemm": ("M N K", lambda args, dtype: gemm_problem(
        *args.dims, dtype, args.loc_a, args.loc_b, args.loc_c)),
    "gemv": ("M N", lambda args, dtype: gemv_problem(
        *args.dims, dtype, args.loc_a, args.loc_b, args.loc_c)),
    "syrk": ("N K", lambda args, dtype: syrk_problem(
        *args.dims, dtype, args.loc_a, args.loc_c)),
    "axpy": ("N", lambda args, dtype: axpy_problem(
        *args.dims, dtype, args.loc_a, args.loc_b)),
}


def _build_problem(args) -> CoCoProblem:
    dims, build = _PROBLEMS[args.routine]
    if len(args.dims) != len(dims.split()):
        raise ReproError(f"{args.routine} needs {dims}")
    return build(args, np.float64 if args.dtype == "d" else np.float32)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_machines(args) -> int:
    rows = []
    for name in ("testbed_i", "testbed_ii"):
        m = get_testbed(name)
        rows.append([
            name, m.gpu, m.pcie,
            f"{m.h2d.bandwidth / 1e9:.2f}/{m.d2h.bandwidth / 1e9:.2f}",
            f"{m.h2d.bid_slowdown:.2f}/{m.d2h.bid_slowdown:.2f}",
            f"{m.gpu_mem_bytes >> 30} GiB",
        ])
    print(format_table(
        ["name", "gpu", "pcie", "bw GB/s (h2d/d2h)", "sl (h2d/d2h)", "mem"],
        rows, title="Simulated testbeds (paper Tables II & III)",
    ))
    return 0


def cmd_deploy(args) -> int:
    machine, models = _models_for(args)
    link = models.link
    print(f"Deployed {machine.display_name} at scale {args.scale!r}:")
    print(f"  h2d: t_l={link.h2d.latency:.2e}s "
          f"1/t_b={link.h2d.bandwidth_gb:.2f} GB/s sl={link.h2d.sl:.3f}")
    print(f"  d2h: t_l={link.d2h.latency:.2e}s "
          f"1/t_b={link.d2h.bandwidth_gb:.2f} GB/s sl={link.d2h.sl:.3f}")
    for (routine, prefix), lookup in sorted(models.exec_lookups.items()):
        print(f"  {prefix}{routine}: {len(lookup)} benchmarked tile sizes "
              f"({lookup.tile_sizes[0]}..{lookup.tile_sizes[-1]})")
    return 0


def cmd_run(args) -> int:
    # Deploy (or load) against the clean machine first so the model
    # database never absorbs injected faults, then attach the plan.
    machine, models = _models_for(args)
    plan = resolve_plan(args.faults)
    if plan is not None:
        if args.library != "cocopelia":
            raise ReproError(
                "--faults requires the resilient library "
                "(--library cocopelia)")
        machine = machine.with_faults(plan)
    problem = _build_problem(args)
    lib_cls = LIBRARIES[args.library]
    if lib_cls is CoCoPeLiaLibrary:
        lib = lib_cls(machine, models, model=args.model)
    else:
        lib = lib_cls(machine)
    if lib_cls is UnifiedMemoryLibrary and problem.routine.name != "axpy":
        raise ReproError("the unified-memory baseline only supports axpy")
    kwargs = {}
    if args.tile is not None:
        kwargs["tile_size"] = args.tile
    elif lib_cls is CublasXtLibrary:
        kwargs["tile_size"] = 4096  # cuBLASXt default
    result = run_problem(lib, problem, **kwargs)
    print(f"{problem.describe()} on {machine.display_name} "
          f"[{result.library}]")
    print(f"  time      {result.seconds * 1e3:10.3f} ms "
          f"({result.gflops:.1f} GFLOP/s)")
    print(f"  tile      T={result.tile_size}")
    if result.predicted_seconds is not None:
        print(f"  predicted {result.predicted_seconds * 1e3:10.3f} ms "
              f"(e% = {100 * result.prediction_error:+.1f})")
    print(f"  traffic   h2d {result.h2d_bytes / 1e6:.1f} MB "
          f"({result.h2d_transfers} transfers), "
          f"d2h {result.d2h_bytes / 1e6:.1f} MB "
          f"({result.d2h_transfers} transfers), "
          f"{result.kernels} kernels")
    if result.resilience is not None:
        r = result.resilience
        print(f"  faults    plan={plan.name!r}: {r.retries} transfer "
              f"retries, {r.kernel_retries} kernel retries, "
              f"{r.refetches} refetches, {r.tile_downshifts} tile "
              f"downshifts, {r.host_fallbacks} host fallbacks")
    return 0


def cmd_profile(args) -> int:
    """Run one traced routine and emit profile.json + trace.json."""
    from .obs import (MetricsRegistry, merge_chrome_traces, merge_traces,
                      profile_document, profile_trace)

    machine, models = _models_for(args)
    plan = resolve_plan(args.faults)
    if plan is not None:
        machine = machine.with_faults(plan)
    problem = _build_problem(args)
    registry = MetricsRegistry()
    dtype = np.float64 if args.dtype == "d" else np.float32

    if args.gpus > 1:
        if args.routine != "gemm":
            raise ReproError("--gpus > 1 only supports gemm")
        if plan is not None:
            raise ReproError("--faults is single-GPU only (use --gpus 1)")
        from .runtime.multigpu import MultiGpuCoCoPeLia, predict_multi_gpu

        m, n, k = args.dims
        lib = MultiGpuCoCoPeLia(machine, args.gpus, models,
                                trace=True, metrics=registry)
        result = lib.gemm(m=m, n=n, k=k, dtype=dtype, tile_size=args.tile)
        seconds, tile = result.seconds, result.shards[0].tile_size
        predicted = (predict_multi_gpu(problem, args.gpus, models,
                                       model=args.model)
                     if args.tile is None else None)
        traces = lib.last_traces
        events = merge_traces(traces)
    else:
        lib = CoCoPeLiaLibrary(machine, models, model=args.model,
                               trace=True, metrics=registry)
        routine = getattr(lib, args.routine)
        result = routine(*args.dims, dtype=dtype, tile_size=args.tile)
        seconds, tile = result.seconds, result.tile_size
        predicted = result.predicted_seconds
        traces = [lib.last_trace]
        events = merge_traces(traces)

    model_name = args.model if predicted is not None else None
    report = profile_trace(events, predicted_seconds=predicted,
                           model=model_name)
    doc = profile_document(report, metrics=registry, context={
        "routine": args.routine,
        "dims": list(args.dims),
        "dtype": args.dtype,
        "machine": args.machine,
        "scale": args.scale,
        "n_gpus": args.gpus,
        "tile": tile,
        "model": model_name,
        "seconds": seconds,
        "faults": plan.name if plan is not None else None,
    })

    profile_path = _write_document(args.out_dir, "profile.json",
                                   json.dumps(doc, indent=2))
    trace_path = _write_document(args.out_dir, "trace.json",
                                 json.dumps(merge_chrome_traces(traces)))

    print(f"{problem.describe()} on {machine.display_name} "
          f"({args.gpus} GPU{'s' if args.gpus > 1 else ''}, T={tile})")
    print(f"  t_total   {report.t_total * 1e3:10.3f} ms")
    if predicted is not None:
        print(f"  predicted {predicted * 1e3:10.3f} ms "
              f"(e% = {report.prediction_error_pct:+.2f})")
    print(f"  overlap   {report.overlap_fraction:.1%} of the timeline "
          f"(efficiency {report.overlap_efficiency:.1%})")
    cp = report.critical_path
    print(f"  critical  compute {cp['compute'] * 1e3:.3f} ms + exposed "
          f"transfer {cp['exposed_transfer'] * 1e3:.3f} ms + idle "
          f"{cp['idle'] * 1e3:.3f} ms")
    for name, prof in sorted(report.engines.items()):
        print(f"  {name:<9} busy {prof.utilization:6.1%}  "
              f"({prof.events} events)")
    print(f"  wrote {profile_path} and {trace_path} "
          f"(load trace.json in chrome://tracing)")
    return 0


def cmd_summa(args) -> int:
    """Run the distributed SUMMA/streaming-gemv suite; emit summa.json."""
    from .experiments import summa as summa_exp

    _machine, models = _models_for(args)
    doc = summa_exp.run(
        scale=args.scale,
        machine=args.machine,
        models=models,
        n_gpus=args.gpus,
        topology=args.topology,
        gb_per_s=args.gb_per_s,
        latency=args.latency,
        depth=args.depth,
        seed=args.seed,
        parallel=args.parallel,
    )
    summa_exp.validate_summa_json(doc)
    out_path = _write_document(
        args.out_dir, "summa.json",
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(summa_exp.render(doc))
    print(f"  wrote {out_path}")
    return 0


def _print_latency(latency) -> None:
    if latency is not None:
        print(f"  latency   p50 {latency['p50'] * 1e3:.2f} ms  "
              f"p95 {latency['p95'] * 1e3:.2f} ms  "
              f"p99 {latency['p99'] * 1e3:.2f} ms")


def cmd_serve(args) -> int:
    """Serve a generated workload on N simulated GPUs; emit serve.json."""
    from .obs import MetricsRegistry
    from .serve import (BlasServer, ServerConfig, WorkloadSpec,
                        dump_serve_document, generate_workload,
                        serve_document, spec_as_dict)

    machine, models = _models_for(args)
    plan = resolve_plan(args.faults)
    if plan is not None:
        machine = machine.with_faults(plan)
    spec = WorkloadSpec(
        **_workload_fields(args),
        deadline_fraction=args.deadline_fraction,
        slack_lo=args.slack_lo,
        slack_hi=args.slack_hi,
        burst_size=args.burst_size,
    )
    config = ServerConfig(
        n_gpus=args.gpus,
        placement=args.placement,
        admission=args.admission,
        admission_percentile=args.admission_percentile,
        model=args.model,
        batching=not args.no_batching,
        host_offload=not args.no_host_offload,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    server = BlasServer(machine, models, config, metrics=registry)
    outcome = server.serve(generate_workload(spec))
    context = {
        "machine": args.machine,
        "scale": args.scale,
        "workload": spec_as_dict(spec),
        "n_gpus": args.gpus,
        "placement": args.placement,
        "admission": args.admission,
        "model": args.model,
        "faults": plan.name if plan is not None else None,
    }
    if args.admission_percentile is not None:
        # Keyed in only when the flag is given, so mean-based runs keep
        # their exact pre-flag document bytes.
        context["admission_percentile"] = args.admission_percentile
    doc = serve_document(outcome, metrics=registry, context=context)

    serve_path = _write_document(args.out_dir, "serve.json",
                                 dump_serve_document(doc))

    report = doc["report"]
    counts = report["requests"]
    slo = counts["slo"]
    print(f"Served {counts['total']} requests on {machine.display_name} "
          f"x{args.gpus} ({args.arrival} arrivals @ {args.rate:g}/s, "
          f"placement={args.placement})")
    print(f"  completed {counts['completed']}  shed {counts['shed']}  "
          f"failed {counts['failed']}  downgraded {counts['downgraded']}  "
          f"host-fallbacks {counts['fallbacks']}")
    print(f"  throughput {report['throughput_rps']:.1f} req/s over "
          f"{report['makespan'] * 1e3:.1f} ms")
    _print_latency(report["latency"])
    print(f"  SLO       {slo['met']}/{slo['with_deadline']} deadlines met "
          f"({slo['attainment']:.1%})")
    for worker in report["workers"]:
        print(f"  {worker['worker']:<6} util {worker['utilization']:6.1%}  "
              f"{worker['requests']} requests in {worker['batches']} "
              f"batches")
    print(f"  wrote {serve_path}")
    return 0


def cmd_chaos(args) -> int:
    """Run a chaos scenario against the serving layer; emit chaos.json."""
    from .serve import ServerConfig, WorkloadSpec
    from .serve.chaos import SCENARIOS, dump_chaos_document, run_chaos

    machine, models = _models_for(args)
    spec = WorkloadSpec(**_workload_fields(args))
    config = ServerConfig(
        n_gpus=args.gpus,
        placement=args.placement,
        hedging=args.hedging,
        seed=args.seed,
    )
    doc = run_chaos(
        machine, models, args.scenario, spec=spec, config=config,
        seed=args.seed, context={
            "machine": args.machine,
            "scale": args.scale,
            "n_gpus": args.gpus,
            "placement": args.placement,
            "hedging": args.hedging,
        })

    chaos_path = _write_document(args.out_dir, "chaos.json",
                                 dump_chaos_document(doc))

    scenario = doc["scenario"]
    base, chaos = doc["baseline"], doc["chaos"]
    print(f"Chaos scenario {scenario['name']!r} on {machine.display_name} "
          f"x{args.gpus} (seed {args.seed})")
    print(f"  {scenario['description']}")

    def _fmt(summary):
        slo = summary["slo_attainment"]
        p99 = summary["p99_latency"]
        parts = [f"completed {summary['completed']}/{summary['total']}",
                 f"shed {summary['shed']}", f"failed {summary['failed']}"]
        if p99 is not None:
            parts.append(f"p99 {p99 * 1e3:.2f} ms")
        parts.append(f"SLO {slo:.1%}" if slo is not None else "SLO n/a")
        return "  ".join(parts)

    print(f"  baseline  {_fmt(base)}")
    print(f"  chaos     {_fmt(chaos)}")
    retention = doc["slo_retention"]
    if retention is not None:
        print(f"  SLO retention under failure: {retention:.1%}")
    recovery = doc["recovery"]
    print(f"  outages   {recovery['n_recovered']}/{recovery['n_outages']} "
          f"recovered", end="")
    if recovery["mean_recovery_seconds"] is not None:
        print(f" (mean {recovery['mean_recovery_seconds'] * 1e3:.2f} ms, "
              f"max {recovery['max_recovery_seconds'] * 1e3:.2f} ms)")
    else:
        print()
    stats = doc["resilience"]["stats"]
    print(f"  drained {stats['drained_requests']} requests in "
          f"{stats['drains']} drains, {stats['requeues']} requeues, "
          f"{stats['hedges']} hedges, {stats['breaker_opens']} breaker "
          f"opens")
    conservation = doc["conservation"]
    print(f"  conservation: "
          f"{'ok' if conservation['ok'] else 'VIOLATED'}")
    if not conservation["ok"]:
        for violation in conservation["violations"]:
            print(f"    {violation['invariant']}: {violation['message']}")
    print(f"  wrote {chaos_path}")
    return 0 if conservation["ok"] else 1


def _parse_kill(value: str):
    """Parse a --kill-node spec 'nodeN@T' into (T, 'nodeN')."""
    name, sep, at = value.partition("@")
    if not sep or not name:
        raise ReproError(
            f"bad --kill-node {value!r}; expected 'nodeN@seconds'")
    try:
        t = float(at)
    except ValueError:
        raise ReproError(
            f"bad --kill-node time in {value!r}; expected a number")
    if t < 0:
        raise ReproError(f"--kill-node time must be >= 0: {value!r}")
    return (t, name)


def cmd_cluster(args) -> int:
    """Serve a trace on a sharded multi-node fleet; emit cluster.json."""
    from .cluster import (AutoscalerConfig, ClusterConfig,
                          ClusterCoordinator, ClusterWorkloadSpec,
                          cluster_document, cluster_spec_as_dict,
                          dump_cluster_document, iter_cluster_workload)
    from .serve import ServerConfig

    machine, models = _models_for(args)
    spec = ClusterWorkloadSpec(**_workload_fields(args))
    scaler = AutoscalerConfig(min_nodes=args.min_nodes,
                              max_nodes=args.max_nodes)
    cluster_config = ClusterConfig(
        nodes=args.nodes,
        gpus_per_node=args.gpus_per_node,
        router=args.router,
        autoscale=not args.no_autoscale,
        autoscaler=scaler,
    )
    server_config = ServerConfig(
        admission=args.admission,
        admission_percentile=args.admission_percentile,
        seed=args.seed,
    )
    kills = [_parse_kill(v) for v in (args.kill_node or [])]
    coordinator = ClusterCoordinator(machine, models, cluster_config,
                                     server_config)
    outcome = coordinator.run(iter_cluster_workload(spec),
                              kill_events=kills or None)
    context = {
        "machine": args.machine,
        "scale": args.scale,
        "workload": cluster_spec_as_dict(spec),
        "nodes": args.nodes,
        "gpus_per_node": args.gpus_per_node,
        "router": args.router,
        "admission": args.admission,
        "autoscale": not args.no_autoscale,
        "kill_events": [[t, name] for t, name in kills],
    }
    if args.admission_percentile is not None:
        context["admission_percentile"] = args.admission_percentile
    doc = cluster_document(outcome, context=context)

    cluster_path = _write_document(args.out_dir, "cluster.json",
                                   dump_cluster_document(doc))

    report = doc["report"]
    fleet = report["fleet"]
    counts = fleet["requests"]
    slo = counts["slo"]
    scaling = report["scaling"]
    print(f"Clustered {counts['total']} requests on "
          f"{fleet['nodes_provisioned']} x {machine.display_name} "
          f"({args.gpus_per_node} GPUs/node, router={args.router}, "
          f"{args.arrival} arrivals @ {args.rate:g}/s)")
    print(f"  completed {counts['completed']}  shed {counts['shed']}  "
          f"failed {counts['failed']}  migrations {counts['migrations']}")
    print(f"  throughput {fleet['throughput_rps']:.1f} req/s over "
          f"{fleet['makespan']:.3f} s")
    _print_latency(fleet["latency"])
    print(f"  SLO       {slo['met']}/{slo['with_deadline']} "
          f"deadlines met ({slo['attainment']:.1%})")
    print(f"  scaling   {scaling['scale_ups']} up  "
          f"{scaling['scale_downs']} down  {scaling['kills']} kills  "
          f"(final fleet {fleet['nodes_final']})")
    print(f"  routing   {report['routing']['spills']} shard spills")
    conservation = report["conservation"]
    print(f"  conservation: {'ok' if conservation['ok'] else 'VIOLATED'} "
          f"({conservation['accounted']}/{counts['total']} accounted)")
    for message in conservation["violations"]:
        print(f"    {message}")
    print(f"  wrote {cluster_path}")
    return 0 if conservation["ok"] else 1


def cmd_select(args) -> int:
    machine, models = _models_for(args)
    problem = _build_problem(args)
    choice = select_tile(problem, models, model=args.model)
    rows = [
        [t, round(pred * 1e3, 3), "<-- selected" if t == choice.t_best else ""]
        for t, pred in sorted(choice.per_tile.items())
    ]
    print(format_table(
        ["T", "predicted ms", ""], rows,
        title=f"{problem.describe()} — {choice.model} model on "
              f"{machine.display_name}",
    ))
    return 0


def cmd_experiment(args) -> int:
    import inspect

    workers = args.workers
    if args.name == "all":
        from .experiments import full_report

        report = full_report.run(
            scale=args.scale,
            progress=lambda title, wall: print(
                f"  [done] {title} ({wall:.1f}s)", file=sys.stderr),
            parallel=workers,
        )
        print(full_report.render(report))
        return 0
    module = EXPERIMENTS[args.name]
    # Only the per-problem sweep experiments fan out; the rest are
    # cheap single-machine analyses with no parallel parameter.
    params = inspect.signature(module.run).parameters
    kwargs = {"scale": args.scale}
    if "parallel" in params:
        kwargs["parallel"] = workers
    result = module.run(**kwargs)
    print(module.render(result))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoCoPeLia reproduction: GPU BLAS overlap prediction "
                    "on a simulated substrate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list the simulated testbeds")

    p_deploy = sub.add_parser("deploy", help="run/refresh deployment "
                              "micro-benchmarks for a machine")
    _add_machine_args(p_deploy)
    p_deploy.add_argument("--force", action="store_true",
                          help="re-benchmark even if a database is cached")

    p_run = sub.add_parser("run", help="offload one BLAS invocation")
    _add_problem_args(p_run)
    _add_machine_args(p_run)
    p_run.add_argument("--library", default="cocopelia",
                       choices=sorted(LIBRARIES))
    p_run.add_argument("--faults", default=None, metavar="PLAN",
                       help="inject faults: a named plan "
                            f"({'/'.join(sorted(NAMED_PLANS))}) or "
                            "'key=value,...' overrides, e.g. "
                            "'transfer_fail_rate=0.05,seed=7'")

    p_prof = sub.add_parser("profile", help="run one traced invocation and "
                            "emit a metrics/overlap report + Chrome trace")
    _add_problem_args(p_prof)
    _add_machine_args(p_prof)
    p_prof.add_argument("--gpus", type=int, default=1,
                        help="simulated GPUs (gemm only; default: 1)")
    p_prof.add_argument("--faults", default=None, metavar="PLAN",
                        help="inject faults while profiling (named plan or "
                             "'key=value,...'; single-GPU only)")
    _add_out_dir(p_prof, "profile.json + trace.json")

    p_summa = sub.add_parser(
        "summa", help="distributed SUMMA gemm + streaming gemv over a "
                      "simulated inter-GPU fabric")
    _add_machine_args(p_summa)
    p_summa.add_argument("--gpus", type=int, default=4,
                         help="peer GPUs on the fabric (default: 4)")
    p_summa.add_argument("--topology", default="ring",
                         choices=("ring", "all_to_all"),
                         help="peer-link topology (default: ring)")
    p_summa.add_argument("--gb-per-s", type=float, default=8.0,
                         help="per-hop peer bandwidth in GB/s (default: 8)")
    p_summa.add_argument("--latency", type=float, default=5e-6,
                         help="per-hop latency in seconds (default: 5e-6)")
    p_summa.add_argument("--depth", type=int, default=2,
                         help="pipelined injection depth past the compute "
                              "frontier (default: 2 = double buffering)")
    p_summa.add_argument("--seed", type=int, default=0,
                         help="suite seed (default: 0)")
    p_summa.add_argument("--parallel", type=int, default=None,
                         metavar="W",
                         help="worker processes for the sweep grid; "
                              "results are byte-identical for any count "
                              "(default: serial)")
    _add_out_dir(p_summa, "summa.json")

    p_serve = sub.add_parser("serve", help="serve a generated BLAS "
                             "workload on N simulated GPUs")
    _add_machine_args(p_serve)
    p_serve.add_argument("--gpus", type=int, default=4,
                         help="simulated GPU workers (default: 4)")
    _add_workload_args(p_serve, arrival="poisson", rate=50.0, requests=64)
    p_serve.add_argument("--placement", default="model",
                         choices=("model", "round_robin"),
                         help="placement policy (default: model)")
    _add_admission_args(p_serve)
    # Workload shaping (defaults match WorkloadSpec, so omitting them
    # reproduces historical documents byte-for-byte).
    p_serve.add_argument("--deadline-fraction", type=float, default=0.75,
                         help="fraction of requests carrying a deadline "
                              "(default: 0.75)")
    p_serve.add_argument("--slack-lo", type=float, default=2.0,
                         help="deadline slack lower bound, x reference "
                              "time (default: 2)")
    p_serve.add_argument("--slack-hi", type=float, default=8.0,
                         help="deadline slack upper bound, x reference "
                              "time (default: 8)")
    p_serve.add_argument("--burst-size", type=int, default=8,
                         help="requests per burst for --arrival bursty "
                              "(default: 8)")
    p_serve.add_argument("--model", default="auto",
                         help="prediction model for placement "
                              "(default: auto)")
    p_serve.add_argument("--no-batching", action="store_true",
                         help="disable coalescing of compatible small "
                              "requests")
    p_serve.add_argument("--no-host-offload", action="store_true",
                         help="disable the sub-crossover host CPU path")
    p_serve.add_argument("--faults", default=None, metavar="PLAN",
                         help="inject faults while serving (named plan or "
                              "'key=value,...')")
    _add_out_dir(p_serve, "serve.json")

    from .serve.chaos import SCENARIOS as _CHAOS_SCENARIOS
    p_chaos = sub.add_parser("chaos", help="serve a workload under a "
                             "seeded device-failure scenario and report "
                             "SLO retention / recovery")
    _add_machine_args(p_chaos)
    p_chaos.add_argument("--scenario", default="kill-one-gpu",
                         choices=sorted(_CHAOS_SCENARIOS),
                         help="chaos scenario (default: kill-one-gpu)")
    p_chaos.add_argument("--gpus", type=int, default=4,
                         help="simulated GPU count (default: 4)")
    _add_workload_args(p_chaos, arrival="poisson", rate=8000.0, requests=48,
                       scales=("tiny", "quick"))
    p_chaos.add_argument("--placement", default="model",
                         choices=("model", "round_robin"),
                         help="placement policy (default: model)")
    p_chaos.add_argument("--hedging", action="store_true",
                         help="mirror near-deadline solo requests onto a "
                              "second worker (first completion wins)")
    _add_out_dir(p_chaos, "chaos.json")

    p_cluster = sub.add_parser("cluster", help="serve a phased trace on a "
                               "sharded multi-node fleet with a "
                               "model-guided autoscaler")
    _add_machine_args(p_cluster)
    p_cluster.add_argument("--nodes", type=int, default=4,
                           help="initial fleet size (default: 4)")
    p_cluster.add_argument("--gpus-per-node", type=int, default=2,
                           help="simulated GPUs per node (default: 2)")
    p_cluster.add_argument("--router", default="predicted",
                           choices=("predicted", "least_connections"),
                           help="routing policy (default: predicted)")
    _add_workload_args(p_cluster, arrival="bursty", rate=400.0,
                       requests=20000)
    _add_admission_args(p_cluster)
    p_cluster.add_argument("--no-autoscale", action="store_true",
                           help="freeze the fleet at --nodes")
    p_cluster.add_argument("--min-nodes", type=int, default=2,
                           help="autoscaler floor (default: 2)")
    p_cluster.add_argument("--max-nodes", type=int, default=8,
                           help="autoscaler ceiling (default: 8)")
    p_cluster.add_argument("--kill-node", action="append", default=None,
                           metavar="nodeN@T",
                           help="hard-kill a node at simulated time T "
                                "(repeatable, e.g. node1@0.5)")
    _add_out_dir(p_cluster, "cluster.json")

    p_sel = sub.add_parser("select", help="show per-tile predictions and "
                           "the selected tiling size")
    _add_problem_args(p_sel, tile=False)
    _add_machine_args(p_sel)

    p_exp = sub.add_parser("experiment", help="reproduce a paper "
                           "table/figure")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    p_exp.add_argument("--scale", default="quick",
                       choices=("tiny", "quick", "paper"))
    p_exp.add_argument("--workers", type=int, default=1,
                       help="processes for the per-problem sweeps; reported "
                            "numbers are identical for any count "
                            "(default: 1 = serial)")

    return parser


COMMANDS = {
    "machines": cmd_machines,
    "deploy": cmd_deploy,
    "run": cmd_run,
    "profile": cmd_profile,
    "summa": cmd_summa,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "cluster": cmd_cluster,
    "select": cmd_select,
    "experiment": cmd_experiment,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
