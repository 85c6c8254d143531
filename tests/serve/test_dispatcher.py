"""Dispatcher unit tests: scoring, admission, batching."""

import random

import numpy as np
import pytest

from repro.core.params import Loc, axpy_problem, gemm_problem
from repro.core.predcache import PredictionCache
from repro.core.tailbank import PercentileBank
from repro.serve import (BlasServer, Dispatcher, HOST_WORKER, HealthMonitor,
                         HealthState, Request, ServeError, ServerConfig,
                         generate_workload)
from repro.serve import dispatcher as dispatcher_module
from repro.serve.dispatcher import batchable, coalesce

from tests.test_golden_documents import TIGHT


def make(tb2, models_tb2, monitor=None, **fields):
    """A dispatcher over ``ServerConfig(**fields)``."""
    return Dispatcher(tb2, models_tb2, ServerConfig(**fields),
                      monitor=monitor)


@pytest.fixture()
def dispatcher(tb2, models_tb2):
    return make(tb2, models_tb2, n_gpus=4)


def req(req_id, problem=None, arrival=0.0, group=None, deadline=None,
        priority=0):
    if problem is None:
        problem = gemm_problem(2048, 2048, 2048, np.float64)
    return Request(req_id=req_id, problem=problem, arrival=arrival,
                   group=group, deadline=deadline, priority=priority)


class TestPredictions:
    def test_predict_gpu_is_memoized(self, dispatcher):
        p = gemm_problem(2048, 2048, 2048, np.float64)
        first = dispatcher.predict_gpu(p)
        again = dispatcher.predict_gpu(gemm_problem(2048, 2048, 2048,
                                                    np.float64))
        assert again is first
        assert first.predicted_time > 0 and first.t_best > 0

    def test_predict_host_gemm_only(self, dispatcher):
        assert dispatcher.predict_host(
            gemm_problem(512, 512, 512, np.float64)) > 0
        assert dispatcher.predict_host(
            axpy_problem(1 << 20, np.float64)) is None


class TestPlacement:
    def test_idle_ties_go_to_lowest_gpu(self, tb2, models_tb2):
        d = make(tb2, models_tb2, n_gpus=4, host_offload=False)
        placement = d.place(req(0), now=0.0)
        assert placement.worker is d.gpus[0]
        assert placement.predicted_completion == pytest.approx(
            placement.predicted_seconds)

    def test_ties_go_to_lowest_index_past_ten_gpus(self, tb2, models_tb2):
        # Idle GPUs tie; the lowest index wins, not the lowest name
        # ("gpu10" sorts before "gpu2").
        d = make(tb2, models_tb2, n_gpus=12, host_offload=False)
        d.gpus[0].occupy(object(), 100.0)
        d.gpus[1].occupy(object(), 100.0)
        assert d.place(req(0), now=0.0).worker is d.gpus[2]

    def test_backlog_steers_away_from_busy_gpu(self, tb2, models_tb2):
        d = make(tb2, models_tb2, n_gpus=2, host_offload=False)
        d.gpus[0].occupy(object(), 100.0)
        placement = d.place(req(0), now=0.0)
        assert placement.worker is d.gpus[1]

    def test_queued_predictions_count_as_backlog(self, tb2, models_tb2):
        d = make(tb2, models_tb2, n_gpus=2, host_offload=False)
        waiting = req(7)
        waiting.predicted_seconds = 50.0
        d.gpus[0].queue.push(waiting)
        placement = d.place(req(0), now=0.0)
        assert placement.worker is d.gpus[1]

    def test_round_robin_cycles(self, tb2, models_tb2):
        d = make(tb2, models_tb2, n_gpus=3, placement="round_robin",
                 host_offload=False)
        workers = [d.place(req(i), now=0.0).worker for i in range(6)]
        assert workers == [d.gpus[i % 3] for i in range(6)]

    def test_preview_takes_no_round_robin_turn(self, tb2, models_tb2):
        d = make(tb2, models_tb2, n_gpus=2, placement="round_robin",
                 host_offload=False)
        for i in range(4):
            preview = d.preview(req(i), now=0.0)
            assert preview == d.place(req(i), now=0.0)
            assert preview.worker is d.gpus[i % 2]

    @pytest.mark.parametrize("size", [256, 4096])
    def test_mean_admission_estimate_is_the_mean(self, dispatcher, size):
        """Mean admission is the percentile rule at multiplier 1: the
        admission estimate equals the mean prediction bit for bit, on
        the host and on a GPU."""
        r = req(0, gemm_problem(size, size, size, np.float64))
        placement = dispatcher.place(r, now=0.25)
        assert dispatcher.tail_multiplier(r.problem) == 1.0
        assert placement.admission_seconds == placement.predicted_seconds
        assert (placement.admission_completion
                == placement.predicted_completion)

    def test_health_penalizes_the_score_not_the_choice(self, tb2,
                                                       models_tb2):
        monitor = HealthMonitor(2)
        monitor.devices[0].state = HealthState.DEGRADED
        monitor.devices[0].ewma = 3.0
        d = make(tb2, models_tb2, n_gpus=2, monitor=monitor,
                 placement="round_robin", host_offload=False)
        r = req(0)
        choice = d.predict_gpu(r.problem)
        # Round-robin scores gpu0 (degraded) and then gpu1 (healthy).
        on_degraded = d.place(r, now=0.0)
        assert on_degraded.worker is d.gpus[0]
        assert on_degraded.predicted_seconds == choice.predicted_time * 3.0
        on_healthy = d.place(req(1), now=0.0)
        assert on_healthy.worker is d.gpus[1]
        assert on_healthy.predicted_seconds == choice.predicted_time

    def test_small_gemm_crosses_over_to_host(self, dispatcher):
        """A sub-crossover gemm beats any GPU placement on the host
        (no PCIe transfers), so the dispatcher routes it there."""
        small = req(0, gemm_problem(256, 256, 256, np.float64))
        placement = dispatcher.place(small, now=0.0)
        assert placement.worker is dispatcher.host

    def test_large_gemm_stays_on_gpu(self, dispatcher):
        large = req(0, gemm_problem(4096, 4096, 4096, np.float64))
        assert dispatcher.place(large, now=0.0).worker is not dispatcher.host

    def test_host_offload_off_never_routes_host(self, tb2, models_tb2):
        d = make(tb2, models_tb2, n_gpus=2, host_offload=False)
        small = req(0, gemm_problem(256, 256, 256, np.float64))
        assert d.place(small, now=0.0).worker is not d.host

    def test_invalid_construction(self, tb2, models_tb2):
        # The config validates its fields once; a dispatcher is never
        # built from a bad one.
        with pytest.raises(ServeError):
            make(tb2, models_tb2, n_gpus=0)
        with pytest.raises(ServeError):
            make(tb2, models_tb2, n_gpus=2, placement="random")
        with pytest.raises(ServeError):
            make(tb2, models_tb2, n_gpus=2, admission="maybe")

    def test_one_named_record_per_worker(self, dispatcher):
        names = [w.name for w in dispatcher.workers]
        assert names == ["gpu0", "gpu1", "gpu2", "gpu3", HOST_WORKER]
        assert dispatcher.workers == (*dispatcher.gpus, dispatcher.host)
        assert [g.index for g in dispatcher.gpus] == [0, 1, 2, 3]
        assert dispatcher.host.index is None


class TestAdmission:
    def _placed(self, dispatcher, deadline):
        r = req(0, deadline=deadline, priority=1)
        return r, dispatcher.place(r, now=0.0)

    def test_accept_when_deadline_met(self, dispatcher):
        r, placement = self._placed(dispatcher, deadline=1e6)
        assert dispatcher.admit(r, placement) == "accept"

    def test_none_mode_accepts_everything(self, tb2, models_tb2):
        d = make(tb2, models_tb2, n_gpus=2, admission="none")
        r, placement = self._placed(d, deadline=1e-9)
        assert d.admit(r, placement) == "accept"

    def test_shed_on_hopeless_deadline(self, dispatcher):
        r, placement = self._placed(dispatcher, deadline=1e-9)
        assert placement.predicted_completion > r.deadline
        assert dispatcher.admit(r, placement) == "shed"

    def test_downgrade_strips_deadline_and_priority(self, tb2, models_tb2):
        d = make(tb2, models_tb2, n_gpus=2, admission="downgrade")
        r, placement = self._placed(d, deadline=1e-9)
        assert d.admit(r, placement) == "downgrade"
        assert r.downgraded and r.deadline is None and r.priority == 0

    def test_no_deadline_is_always_accepted(self, dispatcher):
        r = req(0)
        placement = dispatcher.place(r, now=0.0)
        assert dispatcher.admit(r, placement) == "accept"


class TestBatching:
    def _small(self, req_id, n=256, group="g0"):
        return req(req_id, gemm_problem(256, n, 256, np.float64),
                   group=group)

    def test_same_group_same_mk_batches(self):
        assert batchable(self._small(0), self._small(1, n=512), 1e12)

    def test_group_mismatch_rejected(self):
        assert not batchable(self._small(0), self._small(1, group="g1"), 1e12)
        assert not batchable(self._small(0, group=None),
                             self._small(1, group=None), 1e12)

    def test_shape_and_flops_limits(self):
        big = req(1, gemm_problem(4096, 4096, 4096, np.float64), group="g0")
        assert not batchable(self._small(0), big, 1e12)  # (M, K) differ
        assert not batchable(self._small(0), self._small(1), 1.0)  # flops cap

    def test_routine_and_dtype_must_match(self):
        ax = req(1, axpy_problem(1 << 20, np.float64))
        assert not batchable(self._small(0), ax, 1e12)
        f32 = req(1, gemm_problem(256, 256, 256, np.float32), group="g0")
        assert not batchable(self._small(0), f32, 1e12)

    def test_location_mismatch_rejected(self):
        dev_a = req(1, gemm_problem(256, 256, 256, np.float64,
                                    Loc.DEVICE, Loc.HOST, Loc.HOST),
                    group="g0")
        assert not batchable(self._small(0), dev_a, 1e12)

    def test_axpy_always_compatible(self):
        a = req(0, axpy_problem(1 << 20, np.float64))
        b = req(1, axpy_problem(1 << 22, np.float64))
        assert batchable(a, b, 1e12)

    def test_coalesce_gemm_concatenates_n(self):
        members = [self._small(0, n=256), self._small(1, n=512)]
        combined = coalesce(members)
        assert combined.dims == (256, 768, 256)
        assert combined.dtype == np.float64

    def test_coalesce_axpy_concatenates_lengths(self):
        members = [req(0, axpy_problem(1 << 20, np.float64)),
                   req(1, axpy_problem(1 << 21, np.float64))]
        assert coalesce(members).dims[0] == (1 << 20) + (1 << 21)

    def test_coalesce_singleton_is_identity(self):
        r = self._small(0)
        assert coalesce([r]) is r.problem


# ---------------------------------------------------------------------------
# one placement pass: equivalence with per-GPU scoring, and its budget
# ---------------------------------------------------------------------------

def reference_place(d, request, now):
    """The placement of a per-GPU scorer, kept as the reference: every
    available GPU selects a tile on its own.  It takes no round-robin
    turn."""

    def score_gpu(gpu):
        service = d.predict_gpu(request.problem).predicted_time
        if d.monitor is not None:
            penalty = d.monitor.penalty(gpu.index)
            if penalty != 1.0:
                service = service * penalty
        return service

    mult = d.tail_multiplier(request.problem)
    monitor = d.monitor
    gpus = (d._round_robin(False)
            if d.config.placement == "round_robin" else d.gpus)
    best = best_at = None
    for gpu in gpus:
        if monitor is not None and not monitor.available(gpu.index):
            continue
        service = score_gpu(gpu)
        backlog = gpu.backlog(now)
        at = now + backlog + service * mult
        if best_at is None or at < best_at:
            best_at = at
            best = (gpu, backlog, service)
    placement = None if best is None else dispatcher_module._placement(
        best[0], now, best[1], best[2], mult)
    if d.config.host_offload or placement is None:
        service = d.predict_host(request.problem)
        if service is not None:
            host = dispatcher_module._placement(
                d.host, now, d.host.backlog(now), service, mult)
            if (placement is None or host.admission_completion
                    < placement.admission_completion):
                return host
    return placement


def _bits(placement):
    """A placement's worker record and the exact bits of its floats."""
    if placement is None:
        return None
    return (placement.worker,
            placement.predicted_seconds.hex(),
            placement.predicted_completion.hex(),
            placement.admission_seconds.hex(),
            placement.admission_completion.hex())


#: Problems of the generated states: grouped and groupless gemms around
#: the host crossover, an f32 gemm, a gemm with A already on the device
#: and an axpy (no host path).
POOL = (
    (gemm_problem(1024, 1024, 1024, np.float64), "g0"),
    (gemm_problem(1024, 512, 1024, np.float64), "g0"),
    (gemm_problem(2048, 2048, 2048, np.float64), "g1"),
    (gemm_problem(256, 256, 256, np.float64), "g2"),
    (gemm_problem(1024, 1024, 1024, np.float32), "g0"),
    (gemm_problem(1024, 1024, 1024, np.float64), None),
    (gemm_problem(1024, 1024, 1024, np.float64, Loc.DEVICE), "g0"),
    (axpy_problem(1 << 22, np.float64), None),
)


def _tail_bank(rng):
    """A bank fitted to ratios above 1, so p99 inflates some scores."""
    bank = PercentileBank()
    for problem, _group in POOL:
        for _ in range(40):
            bank.observe(problem, 1.0, rng.uniform(0.8, 3.0))
    return bank


def generated_state(rng, tb2, models_tb2):
    """A dispatcher in a generated state: any config of the policy,
    host offload and admission percentile, and per GPU any health,
    in-flight batch and queue."""
    n = rng.randint(1, 4)
    monitor = HealthMonitor(n)
    percentile = rng.choice((None, 99.0))
    d = Dispatcher(
        tb2, models_tb2,
        ServerConfig(n_gpus=n,
                     placement=rng.choice(("model", "round_robin")),
                     host_offload=rng.random() < 0.5,
                     admission_percentile=percentile),
        monitor=monitor,
        tail_bank=None if percentile is None else _tail_bank(rng))
    ids = iter(range(1000, 2000))
    for gpu, health in zip(d.gpus, monitor.devices):
        health.state = rng.choice(list(HealthState))
        health.ewma = rng.uniform(0.5, 4.0)
        if rng.random() < 0.4:
            gpu.occupy(object(), rng.uniform(0.0, 0.02))
        for _ in range(rng.randint(0, 2)):
            waiting = req(next(ids))
            waiting.predicted_seconds = rng.uniform(0.0, 0.01)
            gpu.queue.push(waiting)
    return d


class TestOnePlacementPass:
    def test_place_and_preview_equal_per_gpu_scoring(self, tb2, models_tb2):
        rng = random.Random(29)
        seen = {"inflated": 0, "penalized": 0, "none": 0, "host": 0}
        for _ in range(150):
            d = generated_state(rng, tb2, models_tb2)
            for i in range(4):
                problem, group = rng.choice(POOL)
                r = req(i, problem, group=group)
                now = rng.uniform(0.0, 0.01)
                want = _bits(reference_place(d, r, now))
                assert _bits(d.preview(r, now)) == want
                assert _bits(d.place(r, now)) == want
                seen["inflated"] += d.tail_multiplier(problem) > 1.0
                seen["penalized"] += any(
                    d.monitor.penalty(g.index) != 1.0 for g in d.gpus)
                seen["none"] += want is None
                seen["host"] += want is not None and want[0] is d.host
        # The generated states reach every branch of the pass.
        assert all(seen.values()), seen

    def test_one_placement_makes_one_selection(self, tb2, models_tb2):
        """On four GPUs, after gpu2 has run a batch of group g0, placing
        another g0 request selects a tile once for all four GPUs."""
        grouped = gemm_problem(1024, 1024, 1024, np.float64)
        large = gemm_problem(4096, 4096, 4096, np.float64)
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=4, host_offload=False))
        outcome = server.serve([req(0, large), req(1, large),
                                req(2, grouped, group="g0")])
        assert [r.worker for r in outcome.requests] == ["gpu0", "gpu1",
                                                        "gpu2"]
        d = server.dispatcher
        stats = d.prediction_cache.stats
        before = stats.lookups
        d.place(req(3, grouped, group="g0"), now=outcome.end_time)
        assert stats.lookups - before == 1

    def test_lookups_within_one_per_placement_and_one_per_batch(
            self, tb2, models_tb2):
        cache = PredictionCache()
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=4, seed=7),
                            prediction_cache=cache)
        d = server.dispatcher
        calls = []
        for name in ("place", "preview"):
            method = getattr(d, name)

            def counted(*args, method=method, **kwargs):
                calls.append(1)
                return method(*args, **kwargs)

            setattr(d, name, counted)
        outcome = server.serve(generate_workload(TIGHT))
        assert outcome.n_batches > 0 and calls
        assert cache.stats.lookups <= len(calls) + outcome.n_batches


# ---------------------------------------------------------------------------
# one residency model: a group steers batching, never placement
# ---------------------------------------------------------------------------

#: The dispatcher's former weight-group cache, by where it lived.  The
#: runtime's per-call TileCache is the only residency model; none of
#: these may come back.
REMOVED_RESIDENCY = (
    ("module", "LOCALITY"),
    ("module", "WEIGHT_CACHE_FRACTION"),
    ("module", "_residency_key"),
    ("worker", "resident"),
    ("worker", "resident_bytes"),
    ("worker", "locality_hits"),
    ("worker", "drop_residency"),
    ("dispatcher", "residency_key"),
    ("dispatcher", "gpu_view"),
    ("dispatcher", "note_resident"),
    ("dispatcher", "_device_a"),
    ("dispatcher", "_cache_capacity"),
)


class TestOneResidencyModel:
    @pytest.mark.parametrize("where,name", REMOVED_RESIDENCY,
                             ids=[f"{w}.{n}" for w, n in REMOVED_RESIDENCY])
    def test_no_dispatcher_residency(self, dispatcher, where, name):
        owner = {"module": dispatcher_module,
                 "worker": dispatcher.gpus[0],
                 "dispatcher": dispatcher}[where]
        assert not hasattr(owner, name)

    def test_group_never_changes_a_placement(self, tb2, models_tb2):
        """Over the generated states, a grouped request is placed bit
        for bit like the same request without its group."""
        rng = random.Random(31)
        for _ in range(60):
            d = generated_state(rng, tb2, models_tb2)
            for i in range(4):
                problem, group = rng.choice(POOL)
                now = rng.uniform(0.0, 0.01)
                grouped = req(i, problem, group=group or "g9")
                plain = req(i, problem)
                assert (_bits(d.preview(grouped, now))
                        == _bits(d.preview(plain, now)))

    def test_gpu_that_ran_a_group_draws_no_later_member(self, tb2,
                                                        models_tb2):
        """After gpu2 has run a g0 request and every GPU is idle again,
        the next g0 request ties like any other: it goes to gpu0 and is
        predicted as the plain problem."""
        grouped = gemm_problem(1024, 1024, 1024, np.float64)
        large = gemm_problem(4096, 4096, 4096, np.float64)
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=4, host_offload=False))
        outcome = server.serve([req(0, large), req(1, large),
                                req(2, grouped, group="g0"),
                                req(3, grouped, arrival=10.0, group="g0")])
        workers = [r.worker for r in outcome.requests]
        assert workers == ["gpu0", "gpu1", "gpu2", "gpu0"]
        later = outcome.requests[3]
        assert later.dispatch_t >= 10.0
        assert (later.predicted_seconds
                == server.dispatcher.predict_gpu(grouped).predicted_time)
