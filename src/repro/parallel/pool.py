"""Deterministic process-pool fan-out (``pmap``).

The determinism contract, relied on by the byte-identical CI gates:

* every task is a module-level function of explicit arguments (its
  seeds pre-derived via :mod:`repro.parallel.seeds`), never of shared
  mutable state, so a task computes the same result in any process;
* results merge in **submission order** — completion order, which
  varies with scheduling, is never observable;
* ``workers`` of None, 0 or 1 (or an unavailable pool) degrades to
  running the same task functions serially in-process, which is why
  serial and parallel runs are byte-identical rather than merely close.

Worker processes rebuild expensive shared state (deployed model
databases, prediction caches) once per process via the pool
initializer instead of pickling it per task; see
:func:`repro.experiments.harness.warm_payload`.

A task that raises inside a worker surfaces as :class:`WorkerError`
carrying the original traceback text.  Pool *infrastructure* failures
(fork unavailable, broken pool) are not task failures: ``pmap`` falls
back to the serial path, which the contract guarantees produces the
same results.
"""

from __future__ import annotations

import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

import multiprocessing

from ..errors import ParallelError, WorkerError

#: Set in worker processes by the pool initializer; forbids nested
#: pools (a worker calling ``pmap`` runs the serial path).
_IN_WORKER = False

#: Chunks submitted per worker; >1 smooths load imbalance without
#: drowning in submission overhead.
_CHUNKS_PER_WORKER = 4


def _worker_bootstrap(initializer: Optional[Callable[..., None]],
                      initargs: Tuple) -> None:
    """Pool initializer: mark the process as a worker, then warm it."""
    global _IN_WORKER
    _IN_WORKER = True
    if initializer is not None:
        initializer(*initargs)


def _run_chunk(fn: Callable, chunk: Sequence[Tuple]) -> List[Tuple[bool, Any]]:
    """Run one chunk of tasks in a worker; never raises.

    Each element is ``(True, result)`` or ``(False, traceback_text)``.
    A failing task ends its chunk (mirroring serial fail-fast), but the
    captured traceback travels back as text since traceback objects do
    not pickle.
    """
    out: List[Tuple[bool, Any]] = []
    for args in chunk:
        try:
            out.append((True, fn(*args)))
        except BaseException:
            out.append((False, traceback.format_exc()))
            break
    return out


def _run_serial(fn: Callable, tasks: Sequence[Tuple]) -> List[Any]:
    return [fn(*args) for args in tasks]


def _check_workers(workers: Optional[int]) -> int:
    """The process count asked for: None is serial (1); a negative
    count or a non-int is a configuration error."""
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ParallelError(
            f"workers must be None or an int, got {workers!r}")
    if workers < 0:
        raise ParallelError(f"workers must be >= 0, got {workers}")
    return workers


def _check_tasks(tasks: Sequence) -> List[Tuple]:
    checked = []
    for i, args in enumerate(tasks):
        if not isinstance(args, tuple):
            raise ParallelError(
                f"task {i} is {type(args).__name__}, not a tuple of "
                f"positional arguments")
        checked.append(args)
    return checked


def default_chunksize(ntasks: int, workers: int) -> int:
    """Balanced tasks-per-submission for a grid of ``ntasks``."""
    return max(1, math.ceil(ntasks / (workers * _CHUNKS_PER_WORKER)))


def pmap(
    fn: Callable,
    tasks: Sequence[Tuple],
    workers: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> List[Any]:
    """Map ``fn`` over pre-seeded argument tuples, deterministically.

    ``tasks`` is a sequence of positional-argument tuples; the result
    list matches its order exactly regardless of which worker finished
    first.  ``fn`` must be a module-level (picklable) function whose
    output depends only on its arguments.  ``workers`` is the process
    count; None, 0 and 1 all run serially in-process, and so does a
    call from inside a worker (no nested pools).

    ``initializer(*initargs)`` runs once per worker process before any
    task (warm caches); it does not run on the serial path, where the
    parent's caches are already warm.
    """
    workers = _check_workers(workers)
    tasks = _check_tasks(tasks)
    if not tasks:
        return []
    if workers <= 1 or _IN_WORKER or len(tasks) == 1:
        return _run_serial(fn, tasks)

    workers = min(workers, len(tasks))
    chunksize = default_chunksize(len(tasks), workers)
    chunks = [tasks[i:i + chunksize]
              for i in range(0, len(tasks), chunksize)]

    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        mp_context = None

    try:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=_worker_bootstrap,
            initargs=(initializer, initargs),
        )
    except (OSError, PermissionError, ValueError, NotImplementedError):
        # No pool available here (sandbox, resource limits): the serial
        # path is the same computation, so fall back silently.
        return _run_serial(fn, tasks)

    results: List[Any] = []
    try:
        with executor:
            futures = [executor.submit(_run_chunk, fn, chunk)
                       for chunk in chunks]
            # Submission-order merge: iterate futures in the order the
            # chunks were submitted, never as_completed().
            for future in futures:
                for ok, payload in future.result():
                    if not ok:
                        raise WorkerError(payload)
                    results.append(payload)
    except (BrokenProcessPool, OSError):
        # Workers died for infrastructure reasons (OOM killer, signal);
        # rerun the deterministic grid serially rather than failing.
        return _run_serial(fn, tasks)
    return results
