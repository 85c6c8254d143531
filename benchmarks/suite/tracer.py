"""Per-layer wall-clock attribution, from outside the program.

The tracer wraps each layer's entry points: methods on their class
attribute, functions on every loaded module global that binds them
(``serve/dispatcher.py`` imports ``select_tile`` by name, so patching
``repro.core.select`` alone would miss it).  It must be installed
before any object is built, because hot paths bind methods at
construction.

A wrapper keeps a stack of child time, so a span's *self* time is its
duration minus the spans it encloses.  Everything lands in counters
sized at install time (per entry point, per layer, and per request for
spans whose call takes a ``Request``); no per-span record is kept.
Whatever runs under an unwrapped frame belongs to the nearest wrapped
ancestor: ``sim.engine`` self time therefore includes the server and
coordinator callbacks the event loop fires.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

#: Layer -> wrapped entry points ("module:Class.method" or
#: "module:function").  Layer names are module paths, so a metric name
#: says where to look.
LAYERS: Dict[str, List[str]] = {
    "sim.engine": [f"repro.sim.engine:Simulator.{m}"
                   for m in ("run", "run_to", "run_done")],
    "sim.link": ["repro.sim.link:DuplexLink.submit"],
    "sim.device": [f"repro.sim.device:GpuDevice.{m}"
                   for m in ("memcpy_h2d_async", "memcpy_d2h_async",
                             "launch_async")],
    "sim.noise": [f"repro.sim.noise:NoiseModel.{m}"
                  for m in ("duration_factor", "latency_factor",
                            "rate_factor")],
    # Serving enters the scheduler only through the private _issue
    # (serve/server.py launches the pipeline and completes it from
    # stream callbacks), so it is wrapped alongside run.  No workload
    # runs gemv (Simulator.run_until has no caller either), and a
    # wrapper that never fires would hide a silent miss.
    "runtime.scheduler": [f"repro.runtime.scheduler:{c}.{m}"
                          for c in ("GemmTileScheduler", "AxpyTileScheduler")
                          for m in ("run", "_issue")],
    "runtime.library": [f"repro.runtime.routines:CoCoPeLiaLibrary.{m}"
                        for m in ("gemm", "axpy")],
    "baselines": ["repro.baselines.cublasxt:CublasXtLibrary.gemm",
                  "repro.baselines.blasx:BlasXLibrary.gemm",
                  "repro.baselines.unified:UnifiedMemoryLibrary.axpy"],
    "core.select": ["repro.core.select:select_tile",
                    "repro.core.predcache:PredictionCache.choice"],
    "serve.server": ["repro.serve.server:BlasServer.serve"],
    "serve.report": ["repro.serve.report:serve_document",
                     "repro.serve.report:dump_serve_document",
                     "repro.cluster.report:cluster_document",
                     "repro.cluster.report:dump_cluster_document"],
    "serve.dispatcher": ["repro.serve.dispatcher:Dispatcher.place",
                         "repro.serve.dispatcher:Dispatcher.admit",
                         "repro.serve.request:RequestQueue.push",
                         "repro.serve.request:RequestQueue.pop",
                         "repro.serve.request:RequestQueue.remove"],
    "cluster": ["repro.cluster.coordinator:ClusterCoordinator.run",
                "repro.cluster.node:ClusterNode.run_to",
                "repro.cluster.router:ClusterRouter.route",
                "repro.cluster.autoscaler:Autoscaler.decide"],
    "deploy": ["repro.experiments.harness:models_for",
               "repro.deploy.pipeline:deploy",
               "repro.serve.workload:generate_workload",
               "repro.cluster.workload:iter_cluster_workload"],
}

#: Entry points whose call takes a Request (argument 1 after self) or,
#: for pop, returns one: their spans are also keyed by req_id.
_REQUEST_ARG = {"Dispatcher.place", "Dispatcher.admit", "RequestQueue.push",
                "RequestQueue.remove", "ClusterRouter.route"}
_REQUEST_RESULT = {"RequestQueue.pop"}

#: Layers whose inclusive time is reported too (as total_share).
TOTAL_LAYERS = ("runtime.library", "baselines", "deploy")


def _resolve(target: str):
    """(owner object, attribute name, original callable) of a target."""
    module_name, _, qual = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(module, cls_name)
        if attr not in owner.__dict__:
            raise LookupError(f"{target}: not defined on the class")
        return owner, attr, owner.__dict__[attr]
    return module, qual, getattr(module, qual)


class Tracer:
    """Counters per entry point, per layer and per request."""

    def __init__(self, n_requests: int = 0) -> None:
        self.layers = list(LAYERS)
        self.targets: List[str] = []
        self.target_layer: List[int] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.layer_total = [0.0] * len(self.layers)
        self._depth = [0] * len(self.layers)
        self._stack = [0.0]       # child time of the open spans; [0] = root
        self._undo: List[Callable[[], None]] = []
        self.events = 0
        self.link_bytes = 0
        self.library = {"h2d_bytes": 0, "d2h_bytes": 0, "kernels": 0}
        self.prediction_errors: List[float] = []
        self.admit: Dict[str, int] = {"accept": 0, "shed": 0, "downgrade": 0}
        self.caches: list = []
        self.req_calls = {"serve.dispatcher": np.zeros(n_requests, np.int64),
                          "cluster": np.zeros(n_requests, np.int64)}
        self.req_self = {k: np.zeros(n_requests) for k in self.req_calls}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for li, layer in enumerate(self.layers):
            for target in LAYERS[layer]:
                self._install_one(li, target)
        from repro.core.predcache import PredictionCache

        original = PredictionCache.__init__
        caches = self.caches

        def init(cache, *args, **kwargs):
            original(cache, *args, **kwargs)
            caches.append(cache)

        PredictionCache.__init__ = init
        self._undo.append(lambda: setattr(PredictionCache, "__init__",
                                          original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _install_one(self, li: int, target: str) -> None:
        owner, attr, fn = _resolve(target)
        index = len(self.targets)
        self.targets.append(target)
        self.target_layer.append(li)
        self.calls.append(0)
        self.self_s.append(0.0)
        short = target.partition(":")[2]
        hook = self._hook(self.layers[li], short)
        if inspect.isgeneratorfunction(fn):
            span = self._span(index, li, None)

            def wrapper(*args, **kwargs):
                step = span(fn(*args, **kwargs).__next__)
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    yield item
        else:
            wrapper = self._span(index, li, hook)(fn)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append(lambda: setattr(owner, attr, fn))
            return
        # A module function: rebind it wherever it was imported by name
        # (vars() rather than getattr: some modules resolve unknown
        # attributes lazily, with warnings).
        for module in list(sys.modules.values()):
            if vars(module).get(attr) is fn:
                setattr(module, attr, wrapper)
                self._undo.append(
                    lambda m=module: setattr(m, attr, fn))

    def _span(self, index: int, li: int, hook):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        depth, total = self._depth, self.layer_total
        clock = time.perf_counter

        def decorate(fn):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                depth[li] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    own = elapsed - stack.pop()
                    stack[-1] += elapsed
                    calls[index] += 1
                    self_s[index] += own
                    depth[li] -= 1
                    if not depth[li]:
                        total[li] += elapsed
                if hook is not None:
                    hook(args, kwargs, result, own)
                return result
            return wrapper
        return decorate

    def _hook(self, layer: str, short: str) -> Optional[Callable]:
        """The per-call counter update of one entry point, if any."""
        if layer == "sim.engine":
            def count_events(args, kwargs, fired, own):
                self.events += fired
            return count_events
        if layer == "sim.link":
            def count_bytes(args, kwargs, result, own):
                self.link_bytes += (args[2] if len(args) > 2
                                    else kwargs["nbytes"])
            return count_bytes
        if layer == "runtime.library":
            lib = self.library

            def count_result(args, kwargs, res, own):
                lib["h2d_bytes"] += res.h2d_bytes
                lib["d2h_bytes"] += res.d2h_bytes
                lib["kernels"] += res.kernels
                if res.prediction_error is not None:
                    self.prediction_errors.append(res.prediction_error)
            return count_result
        if short in _REQUEST_ARG or short in _REQUEST_RESULT:
            calls, own_s = self.req_calls[layer], self.req_self[layer]
            from_result = short in _REQUEST_RESULT
            admit = self.admit if short == "Dispatcher.admit" else None

            def count_request(args, kwargs, result, own):
                rid = (result if from_result else args[1]).req_id
                if rid < len(calls):
                    calls[rid] += 1
                    own_s[rid] += own
                if admit is not None:
                    admit[result] += 1
            return count_request
        return None

    # -- results --------------------------------------------------------

    def record(self, wall_s: float) -> dict:
        """JSON-ready trace of one rep whose traced region took
        ``wall_s`` seconds."""
        layers = {}
        for li, layer in enumerate(self.layers):
            idx = [i for i, l in enumerate(self.target_layer) if l == li]
            layers[layer] = {"calls": sum(self.calls[i] for i in idx),
                             "self_s": sum(self.self_s[i] for i in idx),
                             "total_s": self.layer_total[li]}
        attributed = sum(self.self_s)
        per_request = {}
        for layer, calls in self.req_calls.items():
            if calls.size and calls.any():
                own = self.req_self[layer] * 1e6
                per_request[layer] = {
                    "requests": int(calls.size),
                    "calls_mean": float(calls.mean()),
                    "calls_max": int(calls.max()),
                    "self_us_p50": float(np.percentile(own, 50)),
                    "self_us_p99": float(np.percentile(own, 99)),
                    "self_us_max": float(own.max()),
                }
        lookups = sum(c.stats.lookups for c in self.caches)
        hits = sum(c.stats.hits for c in self.caches)
        errors = [abs(e) * 100.0 for e in self.prediction_errors]
        return {
            "wall_s": wall_s,
            "unattributed_s": wall_s - attributed,
            "layers": layers,
            "entries": [{"target": t, "layer": self.layers[l], "calls": c,
                         "self_s": s}
                        for t, l, c, s in zip(self.targets, self.target_layer,
                                              self.calls, self.self_s)],
            "counters": {
                "events": self.events,
                "link_bytes": self.link_bytes,
                "library": dict(self.library),
                "admit": dict(self.admit),
                "cache_lookups": lookups,
                "cache_hits": hits,
                "prediction_error_median_pct": (statistics.median(errors)
                                                if errors else 0.0),
            },
            "per_request": per_request,
        }


def per_layer_metrics(trace: dict, sim: dict, n_ops: int,
                      untraced_wall_s: float) -> Dict[str, tuple]:
    """name -> (value, unit) for every per-layer metric of the suite.

    ``trace`` is :meth:`Tracer.record` of the traced rep, ``sim`` the
    rep's simulated stats, ``n_ops`` its operation count and
    ``untraced_wall_s`` the same region's wall time without tracing.
    Layers a workload does not use report zero.  Layer times are shares
    of ``trace.wall_s`` (seconds are in the trace file): a time metric
    that reads zero on every run of a workload would pass for one that
    was never measured.
    """
    wall = trace["wall_s"]
    out: Dict[str, tuple] = {}
    for layer, agg in trace["layers"].items():
        out[f"{layer}.calls"] = (agg["calls"], "count")
        out[f"{layer}.share"] = (agg["self_s"] / wall, "fraction")
        if layer in TOTAL_LAYERS:
            out[f"{layer}.total_share"] = (agg["total_s"] / wall, "fraction")
    c = trace["counters"]
    lib = c["library"]
    out["sim.engine.events"] = (c["events"], "count")
    out["sim.link.bytes"] = (c["link_bytes"], "B")
    out["runtime.library.h2d_bytes"] = (lib["h2d_bytes"], "B")
    out["runtime.library.d2h_bytes"] = (lib["d2h_bytes"], "B")
    out["runtime.library.kernels"] = (lib["kernels"], "count")
    out["runtime.library.speedup_geomean"] = (sim.get("speedup_geomean", 0.0),
                                              "ratio")
    out["core.select.cache_lookups"] = (c["cache_lookups"], "count")
    out["core.select.cache_hit_rate"] = (
        c["cache_hits"] / c["cache_lookups"] if c["cache_lookups"] else 0.0,
        "fraction")
    out["core.select.prediction_error_median_pct"] = (
        c["prediction_error_median_pct"], "%")
    place = next(e["calls"] for e in trace["entries"]
                 if e["target"].endswith("Dispatcher.place"))
    out["serve.dispatcher.place_per_request"] = (place / n_ops,
                                                 "count/request")
    for outcome, count in c["admit"].items():
        out[f"serve.dispatcher.admit_{outcome}"] = (count, "count")
    for key, unit in (("wait_share", "fraction"),
                      ("gpu_busy_frac", "fraction"),
                      ("requests_per_batch", "count/batch"),
                      ("slo_attainment", "fraction")):
        out[f"serve.dispatcher.{key}"] = (sim.get(key, 0.0), unit)
    out["cluster.calls_per_request"] = (
        trace["layers"]["cluster"]["calls"] / n_ops, "count/request")
    for key in ("spills", "scale_ups", "scale_downs", "mean_nodes"):
        out[f"cluster.{key}"] = (sim.get(key, 0), "count")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_pct"] = (100.0 * (wall / untraced_wall_s - 1.0), "%")
    out["trace.unattributed_share"] = (trace["unattributed_s"] / wall,
                                       "fraction")
    return out
