"""End-to-end server tests: execution, batching, faults, determinism."""

import dataclasses

import numpy as np
import pytest

from repro.core.params import axpy_problem, gemm_problem
from repro.obs import MetricsRegistry
from repro.serve import (
    BlasServer,
    Request,
    RequestState,
    ServeError,
    ServerConfig,
    WorkloadSpec,
    dump_serve_document,
    generate_workload,
    serve_document,
    serve_report,
)
from repro.serve import server as server_module
from repro.sim.faults import DeviceDegradation, FaultPlan, resolve_plan
from repro.sim.link import Direction

from tests.sim.test_no_cycles import cyclic_garbage
from tests.test_golden_documents import EVENT_FAULTS, TIGHT


def small_gemm(req_id, arrival, group="g0", n=256):
    return Request(req_id=req_id,
                   problem=gemm_problem(256, n, 256, np.float64),
                   arrival=arrival, group=group)


class TestEndToEnd:
    def test_workload_runs_to_completion(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=24, rate=2000.0, seed=1)
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=1),
                            metrics=MetricsRegistry())
        outcome = server.serve(generate_workload(spec))
        states = {r.state for r in outcome.requests}
        assert states <= {RequestState.DONE, RequestState.SHED}
        done = outcome.done_requests()
        assert done and outcome.end_time > 0
        for r in done:
            assert r.enqueue_t <= r.dispatch_t <= r.completion_t
            assert r.worker is not None
            assert r.latency > 0 and r.service_seconds > 0
        # Worker accounting covers every completed request exactly once.
        counted = (sum(g.requests for g in outcome.gpus)
                   + outcome.host.requests)
        assert counted == len(done)

    def test_serve_twice_rejected(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=1))
        server.serve([small_gemm(0, 0.0)])
        with pytest.raises(ServeError, match="exactly once"):
            server.serve([small_gemm(1, 0.0)])

    def test_trace_mode_satisfies_invariants(self, tb2, models_tb2,
                                             check_trace):
        """Every batch trace and the request lifecycles verify clean."""
        spec = WorkloadSpec(n_requests=12, rate=4000.0, seed=3)
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=2, trace=True, seed=3))
        outcome = server.serve(generate_workload(spec))
        batch_traces = [events for gpu in outcome.gpus
                        for events in gpu.traces]
        assert batch_traces, "trace mode recorded no batches"
        for events in batch_traces:
            check_trace(events, requests=outcome.requests)
        for r in outcome.done_requests():
            if r.trace_events is not None:
                assert r.first_t == min(ev.start for ev in r.trace_events)


class TestBatching:
    def test_compatible_small_gemms_coalesce(self, tb2, models_tb2):
        # First arrival dispatches solo; the rest queue behind it and
        # coalesce into one wider gemm when the GPU frees up.
        requests = [small_gemm(i, arrival=1e-6 * i) for i in range(5)]
        config = ServerConfig(n_gpus=1, host_offload=False, seed=0)
        metrics = MetricsRegistry()
        server = BlasServer(tb2, models_tb2, config, metrics=metrics)
        outcome = server.serve(requests)
        assert all(r.state is RequestState.DONE for r in outcome.requests)
        assert outcome.n_batches < len(requests)
        sizes = {}
        for r in outcome.requests:
            sizes[r.batch_id] = sizes.get(r.batch_id, 0) + 1
        assert max(sizes.values()) == 4  # BATCH_MAX honoured
        counters = metrics.as_dict()["counters"]
        assert counters["serve.batches"] >= 1
        assert counters["serve.batched_requests"] >= 4
        report = serve_report(outcome)
        assert report["requests"]["batched"] == 4

    def test_batching_disabled_serves_singly(self, tb2, models_tb2):
        requests = [small_gemm(i, arrival=1e-6 * i) for i in range(5)]
        config = ServerConfig(n_gpus=1, host_offload=False, seed=0,
                              batching=False)
        outcome = BlasServer(tb2, models_tb2, config).serve(requests)
        assert outcome.n_batches == len(requests)
        assert serve_report(outcome)["requests"]["batched"] == 0


class TestFaultRecovery:
    def test_batches_draw_their_own_faults(self, tb2, models_tb2,
                                           monkeypatch):
        """Each GPU's fault sequence carries on from batch to batch:
        batches of one shape must not all replay one fault sequence."""
        settled = []
        real = server_module.BlasServer._settle

        def spy(self, batch, busy=None):
            injected = batch.worker.devices[-1].faults.injected
            settled.append((batch.worker.index, dict(injected)))
            real(self, batch, busy)

        monkeypatch.setattr(server_module.BlasServer, "_settle", spy)
        flaky = tb2.with_faults(FaultPlan(name="flaky", seed=3,
                                          transfer_fail_rate=0.05))
        problem = gemm_problem(2048, 2048, 2048, np.float64)
        requests = [Request(req_id=i, arrival=0.02 * i, problem=problem)
                    for i in range(12)]
        config = ServerConfig(n_gpus=2, seed=3, batching=False,
                              host_offload=False)
        outcome = BlasServer(flaky, models_tb2, config).serve(requests)
        # Per batch: the faults its GPU's device drew since the last
        # batch there settled.
        before, drawn = {}, set()
        for index, counts in settled:
            last = before.get(index, {})
            drawn.add(tuple(sorted((kind, n - last.get(kind, 0))
                                   for kind, n in counts.items())))
            before[index] = counts
        # One device drew the faults of every batch.
        assert sum(len(gpu.devices) for gpu in outcome.gpus) == 1
        assert len(settled) == len(requests)
        assert len(drawn) > 1, drawn

    def test_batches_that_settle_early_report_their_traffic(
            self, tb2, models_tb2, monkeypatch):
        """Batches that time out or are drained settle before their
        pipeline ends; the h2d bytes their devices moved still reach the
        GPU workers' counters."""
        devices = []
        real = server_module.GpuDevice

        def spy(*args, **kwargs):
            devices.append(real(*args, **kwargs))
            return devices[-1]

        monkeypatch.setattr(server_module, "GpuDevice", spy)
        machine = tb2.with_faults(resolve_plan(EVENT_FAULTS))
        metrics = MetricsRegistry()
        outcome = BlasServer(machine, models_tb2,
                             ServerConfig(n_gpus=2, seed=7),
                             metrics=metrics).serve(generate_workload(TIGHT))
        assert metrics.as_dict()["counters"]["serve.timeouts"] > 0
        assert (sum(gpu.h2d_bytes for gpu in outcome.gpus)
                == sum(d.bytes_moved(Direction.H2D) for d in devices))

    def test_wedged_gemms_fall_back_to_host(self, tb2, models_tb2):
        """With every transfer failing, retries exhaust, the pipeline
        wedges, the watchdog fires, and gemms re-serve on the host."""
        broken = tb2.with_faults(FaultPlan(name="always-fail", seed=5,
                                           transfer_fail_rate=1.0))
        requests = [
            Request(req_id=0, arrival=0.0,
                    problem=gemm_problem(2048, 2048, 2048, np.float64)),
            Request(req_id=1, arrival=0.0,
                    problem=axpy_problem(1 << 22, np.float64)),
        ]
        metrics = MetricsRegistry()
        server = BlasServer(broken, models_tb2,
                            ServerConfig(n_gpus=2, seed=5), metrics=metrics)
        outcome = server.serve(requests)
        gemm_req, axpy_req = outcome.requests
        assert gemm_req.state is RequestState.DONE
        assert gemm_req.fallback and gemm_req.worker == "host"
        # axpy has no host path: it fails loudly instead of silently.
        assert axpy_req.state is RequestState.FAILED
        counters = metrics.as_dict()["counters"]
        assert counters["serve.timeouts"] == 2
        assert counters["serve.host_fallbacks"] == 1
        assert counters["serve.failed"] == 1
        report = serve_report(outcome)
        assert report["requests"]["fallbacks"] == 1
        assert report["requests"]["failed"] == 1

    def test_fault_free_plan_changes_nothing(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=8, rate=1000.0, seed=2)
        clean = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=2))
        off = tb2.with_faults(FaultPlan(name="off"))
        noop = BlasServer(off, models_tb2, ServerConfig(n_gpus=2, seed=2))
        r1 = serve_report(clean.serve(generate_workload(spec)))
        r2 = serve_report(noop.serve(generate_workload(spec)))
        assert r1 == r2


class TestOneDevicePerGpu:
    def test_fault_free_serve_builds_one_device_per_gpu(
            self, tb2, models_tb2, monkeypatch):
        built = []
        real = server_module.GpuDevice

        def spy(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(server_module, "GpuDevice", spy)
        spec = WorkloadSpec(n_requests=24, rate=2000.0, seed=1)
        outcome = BlasServer(tb2, models_tb2, ServerConfig(
            n_gpus=2, seed=1)).serve(generate_workload(spec))
        assert len(built) == 2
        assert [gpu.devices for gpu in outcome.gpus] == [[d] for d in built]
        assert outcome.n_batches > 2

    def test_degradation_window_adds_a_device_per_key_change(
            self, tb2, models_tb2):
        """The window opens and closes between batches: one device
        before it, one inside it, one after it."""
        problem = gemm_problem(2048, 2048, 2048, np.float64)
        requests = [Request(req_id=i, arrival=0.05 * (i + 1), problem=problem)
                    for i in range(6)]
        plan = FaultPlan(name="window", lifecycle=(
            DeviceDegradation(device=0, onset=0.17, duration=0.1,
                              slowdown=4.0),))
        outcome = BlasServer(tb2.with_faults(plan), models_tb2, ServerConfig(
            n_gpus=1, seed=2, host_offload=False)).serve(requests)
        assert all(r.state is RequestState.DONE for r in outcome.requests)
        devices = outcome.gpus[0].devices
        assert len(devices) == 3
        assert [d.config.kernels is tb2.kernels for d in devices] == [
            True, False, True]

    def test_settled_batch_leftover_slows_the_next_batch(
            self, tb2, models_tb2, monkeypatch):
        """A batch settled by its watchdog leaves its transfers and
        kernels running on the GPU's device, and the next batch there
        contends with them."""
        quiet = dataclasses.replace(tb2, noise_sigma=0.0)
        config = ServerConfig(n_gpus=1, seed=1, batching=False,
                              host_offload=False)
        small = gemm_problem(512, 512, 512, np.float64)
        alone = BlasServer(quiet, models_tb2, config).serve(
            [Request(req_id=1, arrival=0.0095, problem=small)]).requests[0]
        # The 2048^3 gemm runs about 10 ms; its watchdog fires at 5 ms,
        # and the small gemm arrives before its work has run out.
        monkeypatch.setattr(server_module, "TIMEOUT_FACTOR", 0.0)
        monkeypatch.setattr(server_module, "TIMEOUT_FLOOR", 0.005)
        big = gemm_problem(2048, 2048, 2048, np.float64)
        first, after = BlasServer(quiet, models_tb2, config).serve(
            [Request(req_id=0, arrival=0.0, problem=big),
             Request(req_id=1, arrival=0.0095, problem=small)]).requests
        assert first.state is RequestState.FAILED
        assert after.state is alone.state is RequestState.DONE
        assert after.dispatch_t == alone.dispatch_t
        assert after.service_seconds > 1.2 * alone.service_seconds

    def test_dropped_faulted_server_leaves_no_cycle(self, tb2,
                                                    models_tb2):
        """A wedged batch's ops keep callbacks into the server; the
        device that outlives the batch must not keep those ops."""
        machine = tb2.with_faults(resolve_plan(EVENT_FAULTS))

        def serve_and_drop():
            server = BlasServer(machine, models_tb2,
                                ServerConfig(n_gpus=2, seed=7))
            return server.serve(generate_workload(TIGHT)).n_batches

        found, batches = cyclic_garbage(serve_and_drop)
        assert batches > 0
        assert found == 0


class TestRateSweep:
    def test_light_load_tracks_rate_and_tail_grows_with_load(
            self, tb2, models_tb2):
        """64 tiny Poisson requests on 4 GPUs, swept from light load to
        saturation."""
        rates = (200.0, 1000.0, 4000.0, 8000.0)
        reports = []
        for rate in rates:
            spec = WorkloadSpec(arrival="poisson", rate=rate, n_requests=64,
                                scale="tiny", seed=11)
            server = BlasServer(tb2, models_tb2,
                                ServerConfig(n_gpus=4, seed=11))
            reports.append(
                serve_report(server.serve(generate_workload(spec))))
        assert reports[0]["throughput_rps"] > 0.8 * rates[0]
        p99s = [r["latency"]["p99"] for r in reports]
        assert all(b >= a * 0.95 for a, b in zip(p99s, p99s[1:])), p99s
        for report in reports:
            counts = report["requests"]
            assert counts["completed"] + counts["shed"] == 64, counts
            assert counts["failed"] == 0, counts


class TestDeterminism:
    def _document(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=24, rate=3000.0, seed=7)
        metrics = MetricsRegistry()
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=2, seed=7), metrics=metrics)
        outcome = server.serve(generate_workload(spec))
        return serve_document(outcome, metrics=metrics,
                              context={"seed": 7, "machine": "testbed_ii"})

    def test_same_seed_byte_identical_documents(self, tb2, models_tb2):
        first = dump_serve_document(self._document(tb2, models_tb2))
        second = dump_serve_document(self._document(tb2, models_tb2))
        assert first == second

    def test_different_seed_differs(self, tb2, models_tb2):
        doc = self._document(tb2, models_tb2)
        spec = WorkloadSpec(n_requests=24, rate=3000.0, seed=8)
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=8))
        other = serve_document(server.serve(generate_workload(spec)),
                               context={"seed": 8, "machine": "testbed_ii"})
        assert (dump_serve_document(doc)
                != dump_serve_document(other))
