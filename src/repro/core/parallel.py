"""Parallel sweep execution over a process pool.

The paper's hybrid methodology exists to make design-space sweeps
cheap: one detailed simulation per configuration, then fast analytical
models.  The remaining cost is the set of trace-driven simulations
themselves, which are embarrassingly parallel -- every sweep point is
an independent, fully deterministic run.  This module fans those
points out across a :class:`concurrent.futures.ProcessPoolExecutor`
while keeping three guarantees:

* **Bit-identical results.**  A worker runs exactly the same
  ``run_simulation`` a serial caller would; all randomness flows from
  the per-point config seed (see :func:`derive_seed` for deterministic
  per-point seeding), and the kernel's event ordering is deterministic,
  so ``jobs=8`` produces the same :class:`SimulationResult` values as
  ``jobs=1``.  The determinism test suite asserts this.
* **Shared persistent cache.**  Workers read and write the
  content-addressed store of :mod:`repro.core.store`, so concurrent
  workers, later sweep points, and future sessions all reuse completed
  runs.  Results are also primed into the parent's in-process memo, so
  follow-up ``run_simulation_cached`` calls (model builders, tables)
  hit without touching disk.
* **Order preservation.**  ``execute_points`` returns results in input
  order regardless of completion order.

A lightweight :class:`SweepReport` carries per-point wall times and
cache-hit counts for progress/efficiency reporting (the CLI prints it
after ``--jobs N`` runs).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import (
    DEFAULT_DATA_REFS,
    cache_counters,
    prime_simulation_cache,
    run_simulation_cached,
)
from repro.core.results import SimulationResult

__all__ = [
    "SweepPoint",
    "PointOutcome",
    "PointScheduler",
    "SweepReport",
    "SweepPointError",
    "SweepCancelled",
    "TaskError",
    "derive_seed",
    "execute_points",
    "map_tasks",
    "worker_pool",
]


class TaskError(RuntimeError):
    """A task failed inside :func:`map_tasks`; carries which one.

    The generic analogue of :class:`SweepPointError`: the failing
    task's index (and a short repr of the task itself) travel with the
    traceback, and the worker exception remains ``__cause__``.
    """

    def __init__(self, index: int, task: Any, cause: BaseException):
        described = repr(task)
        if len(described) > 200:
            described = described[:197] + "..."
        super().__init__(
            f"task [{index}] failed: {described}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.index = index
        self.task = task


def map_tasks(
    fn: "Callable[[Any], Any]",
    tasks: Sequence[Any],
    jobs: int = 1,
) -> List[Any]:
    """Order-preserving parallel map over a process pool.

    The deterministic fan-out primitive shared by the sweep executor's
    clients that are *not* simulations -- the model checker's frontier
    expansion and the fuzzer's seed batches.  ``jobs<=1`` runs inline
    (no pool, no pickling); ``jobs>1`` fans out across a
    ``ProcessPoolExecutor`` and returns results **in task order**
    regardless of completion order, so callers observe identical
    output for identical input whatever the scheduling.  ``fn`` and
    every task must be picklable (module-level callables).

    A failing task cancels the outstanding work and raises
    :class:`TaskError` naming the task, with the worker exception as
    its cause.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if jobs <= 1 or len(tasks) == 1:
        results: List[Any] = []
        for index, task in enumerate(tasks):
            try:
                results.append(fn(task))
            except Exception as exc:
                raise TaskError(index, task, exc) from exc
        return results
    slots: List[Any] = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        pending = {
            pool.submit(fn, task): index
            for index, task in enumerate(tasks)
        }
        try:
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = pending.pop(future)
                    try:
                        slots[index] = future.result()
                    except Exception as exc:
                        raise TaskError(index, tasks[index], exc) from exc
        except BaseException:
            for future in pending:
                future.cancel()
            pool.shutdown(wait=True, cancel_futures=True)
            raise
    return slots


class SweepPointError(RuntimeError):
    """A sweep point failed; carries which one and why.

    A bare exception escaping a pool worker loses the one thing needed
    to reproduce the failure: which configuration (and seed) was being
    simulated.  The executor wraps worker exceptions in this type so
    the failing point travels with the traceback, and the original
    exception remains available as ``__cause__``.
    """

    def __init__(self, index: int, point: SweepPoint, cause: BaseException):
        config = point.resolved_config()
        super().__init__(
            f"sweep point [{index}] failed: {point.benchmark}"
            f"@{point.num_processors}p {point.protocol.value} "
            f"(data_refs={point.data_refs}, seed={config.seed}): "
            f"{type(cause).__name__}: {cause}"
        )
        self.index = index
        self.point = point

#: Splitmix-style increment for per-point seed derivation.
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """A well-separated deterministic seed for sweep point ``index``.

    Mirrors :func:`repro.sim.rng.substream_seed` so that sweeps needing
    distinct per-point randomness (e.g. replication batches built from
    one base seed) stay reproducible from ``(base_seed, index)`` alone,
    independent of worker scheduling.  Clamped to 63 bits so it stays a
    valid config seed everywhere.
    """
    z = (base_seed + (index + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & (_MASK64 >> 1)


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation in a sweep.

    ``config`` (when given) carries every machine parameter; ``seed``
    (when given) overrides the config's seed -- the executor applies it
    with ``dataclasses.replace`` so per-point RNG seeding is explicit
    and deterministic rather than inherited from ambient state.
    """

    benchmark: str
    num_processors: int
    protocol: Protocol
    data_refs: int = DEFAULT_DATA_REFS
    config: Optional[SystemConfig] = None
    seed: Optional[int] = None

    def resolved_config(self) -> SystemConfig:
        """The full config this point simulates."""
        base = self.config or SystemConfig(
            num_processors=self.num_processors, protocol=self.protocol
        )
        base = replace(
            base,
            num_processors=self.num_processors,
            protocol=self.protocol,
        )
        if self.seed is not None:
            base = replace(base, seed=self.seed)
        return base


@dataclass(frozen=True)
class PointOutcome:
    """Execution record for one sweep point.

    A point settles exactly once, successfully (``result`` set,
    ``error`` ``None``) or not (``error`` set, ``result`` ``None``) --
    failed points still produce an outcome so progress sinks observe
    every settled point, but they are not recorded as completed.
    Failed points carry the wall time actually spent before the
    failure and the worker that ran them (falling back to
    time-since-submission and worker 0 when the worker died without
    reporting).
    """

    point: SweepPoint
    result: Optional[SimulationResult]
    #: Whether any cache layer (memo or disk) supplied the result.
    cache_hit: bool
    #: Wall-clock seconds spent obtaining the result (lookup or run).
    wall_s: float
    #: Index of the worker that ran the point (0 for in-process).
    worker: int
    #: ``"ExcType: message"`` when the point failed, else ``None``.
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class SweepReport:
    """What a sweep execution did: results plus efficiency metrics."""

    outcomes: List[PointOutcome] = field(default_factory=list)
    total_wall_s: float = 0.0
    jobs: int = 1

    @property
    def results(self) -> List[SimulationResult]:
        """Results in input-point order."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def points_done(self) -> int:
        return len(self.outcomes)

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cache_hit)

    @property
    def hit_rate(self) -> float:
        done = self.points_done
        return self.cache_hits / done if done else 0.0

    @property
    def mean_wall_s(self) -> float:
        done = self.points_done
        if not done:
            return 0.0
        return sum(outcome.wall_s for outcome in self.outcomes) / done

    def render(self) -> str:
        """A one-paragraph human-readable execution summary."""
        lines = [
            f"sweep: {self.points_done} points, jobs={self.jobs}, "
            f"{self.cache_hits} cache hits ({self.hit_rate:.0%}), "
            f"{self.total_wall_s:.2f}s wall "
            f"({self.mean_wall_s:.2f}s/point mean)"
        ]
        for index, outcome in enumerate(self.outcomes):
            point = outcome.point
            source = "cache" if outcome.cache_hit else "simulated"
            lines.append(
                f"  [{index}] {point.benchmark}@{point.num_processors}p "
                f"{point.protocol.value}: {source}, "
                f"{outcome.wall_s:.2f}s (worker {outcome.worker})"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_init(
    cache_dir: Optional[str], cache_enabled: bool, generation: int
) -> None:
    """Configure the persistent store inside a pool worker.

    Explicit (rather than relying on fork-inherited globals) so the
    executor behaves identically under the ``spawn`` start method.  The
    parent's namespace ``generation`` is forwarded so entries it has
    invalidated (via ``clear_simulation_cache``) stay invisible to
    workers too.
    """
    from repro.core.store import configure_result_store

    store = configure_result_store(cache_dir, enabled=cache_enabled)
    store._generation = generation


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers share the active result store.

    The one place a simulation pool is built: a sweep's own pool and
    the daemon's long-lived shared pool both come from here, so their
    workers read and write the parent's store directory, enabled flag
    and namespace generation (:func:`_worker_init`).
    """
    from repro.core.store import get_result_store

    store = get_result_store()
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(
            os.fspath(store.directory) if store.enabled else None,
            store.enabled,
            store._generation,
        ),
    )


class _PointFailure(Exception):
    """Worker-side wrapper: a point failed, with its execution record.

    A bare exception crossing the process boundary loses where and for
    how long the point actually ran, so failed outcomes used to settle
    with ``wall_s=0.0`` / ``worker=0`` -- fabricated numbers that skew
    any progress sink averaging over them.  The worker wraps the
    original exception together with its pid and the wall time it
    spent before failing; the parent unwraps all three and reports the
    original exception (``cause``) onward.  ``__reduce__`` keeps the
    wrapper picklable across the pool boundary.
    """

    def __init__(self, pid: int, wall_s: float, cause: BaseException):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.pid = pid
        self.wall_s = wall_s
        self.cause = cause

    def __reduce__(self):
        return (type(self), (self.pid, self.wall_s, self.cause))


def _evaluate_point(
    indexed: Tuple[int, SweepPoint]
) -> Tuple[int, SimulationResult, bool, float, int]:
    """Run (or look up) one point; returns result + execution record.

    Failures raise :class:`_PointFailure` so the execution record
    (worker pid, wall time spent) survives alongside the original
    exception.
    """
    index, point = indexed
    start = time.perf_counter()
    try:
        config = point.resolved_config()
        before = cache_counters()
        result = run_simulation_cached(
            point.benchmark,
            point.num_processors,
            point.protocol,
            data_refs=point.data_refs,
            config=config,
        )
        wall = time.perf_counter() - start
        after = cache_counters()
    except Exception as exc:
        raise _PointFailure(
            os.getpid(), time.perf_counter() - start, exc
        ) from exc
    hit = after["misses"] == before["misses"]
    return index, result, hit, wall, os.getpid()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
ProgressCallback = Callable[[int, int, PointOutcome], None]

#: How often the pool loop wakes to notice an external cancel request.
_CANCEL_POLL_S = 0.2


class SweepCancelled(RuntimeError):
    """The scheduler was cancelled before every point settled.

    Outcomes that completed before the cancel remain available on
    :attr:`PointScheduler.outcomes`; their results are in the store,
    so a resubmission finds them as cache hits.
    """


class PointScheduler:
    """Cancellable executor for a set of sweep points.

    This is the engine behind :func:`execute_points` (which remains
    the one-shot convenience shim) and the unit of work the serving
    daemon (:mod:`repro.serve`) schedules jobs onto.  On top of the
    plain fan-out it guarantees:

    * **Exactly-once, monotonic progress.**  The ``progress`` sink is
      invoked exactly once per settled point -- cache hits, simulated
      points and *failed* points alike -- as
      ``progress(done, total, outcome)`` with ``done`` strictly
      increasing by one per event.  A failed point's outcome carries
      ``error`` (and no result); points that never settled (cancelled
      behind a failure) emit nothing.
    * **Cancellation.**  :meth:`cancel` (any thread) stops the run at
      the next point boundary: queued pool futures are cancelled,
      in-flight points finish in their workers (their results are
      discarded but still land in the persistent store), and
      :meth:`run` raises :class:`SweepCancelled`.  Passing ``cancel``
      shares the flag with a caller that owns it (the daemon's
      per-execution event), so one ``set()`` also reaches a scheduler
      that has not been built yet.
    * **Pool sharing.**  ``pool`` runs the points on an external,
      long-lived ``ProcessPoolExecutor`` (the daemon's shared worker
      pool, made by :func:`worker_pool`) instead of creating and
      tearing one down per run.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        jobs: int = 1,
        progress: Optional[ProgressCallback] = None,
        pool: Optional[ProcessPoolExecutor] = None,
        cancel: Optional[threading.Event] = None,
    ) -> None:
        self.points = list(points)
        self.jobs = max(1, jobs)
        self.progress = progress
        self._pool = pool
        self._cancel = cancel if cancel is not None else threading.Event()
        self._slots: List[Optional[PointOutcome]] = [None] * len(self.points)
        self._done = 0

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request a stop at the next point boundary (thread-safe)."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    @property
    def done(self) -> int:
        """Points settled so far (monotonic)."""
        return self._done

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def outcomes(self) -> Dict[int, PointOutcome]:
        """Completed outcomes by point index."""
        return {
            index: outcome
            for index, outcome in enumerate(self._slots)
            if outcome is not None
        }

    # ------------------------------------------------------------------
    def _settle(self, index: int, outcome: PointOutcome) -> None:
        """Record one settled point and emit its progress event."""
        self._done += 1
        if not outcome.failed:
            self._slots[index] = outcome
        if self.progress is not None:
            self.progress(self._done, len(self.points), outcome)

    def _check_cancel(self) -> None:
        if self._cancel.is_set():
            raise SweepCancelled(
                f"cancelled after {self._done}/{len(self.points)} points"
            )

    def run(self) -> SweepReport:
        """Evaluate every point; see :func:`execute_points`."""
        from repro.core.store import get_result_store

        report = SweepReport(jobs=self.jobs)
        if not self.points:
            return report
        started = time.perf_counter()
        owns_pool = self._pool is None
        try:
            self._check_cancel()
            if owns_pool and self.jobs == 1:
                self._run_serial()
            else:
                self._run_pooled(owns_pool)
        except BaseException:
            store = get_result_store()
            if store.enabled and owns_pool:
                # Interrupted workers can strand half-written temp
                # files; an external pool's workers are still alive,
                # so their temps are left for the age-guarded sweep.
                store.cleanup_stale_tmp()
            raise

        report.outcomes = [
            outcome for outcome in self._slots if outcome is not None
        ]
        report.total_wall_s = time.perf_counter() - started
        for outcome in report.outcomes:
            prime_simulation_cache(
                outcome.point.benchmark,
                outcome.point.data_refs,
                outcome.point.resolved_config(),
                outcome.result,
            )
        return report

    def _run_serial(self) -> None:
        for index, point in enumerate(self.points):
            self._check_cancel()
            try:
                _, result, hit, wall, pid = _evaluate_point((index, point))
            except _PointFailure as failure:
                cause = failure.cause
                self._settle(
                    index,
                    PointOutcome(
                        point,
                        None,
                        False,
                        failure.wall_s,
                        worker=0,
                        error=f"{type(cause).__name__}: {cause}",
                    ),
                )
                raise SweepPointError(index, point, cause) from cause
            self._settle(index, PointOutcome(point, result, hit, wall, 0))

    def _run_pooled(self, owns_pool: bool) -> None:
        if owns_pool:
            pool = worker_pool(min(self.jobs, len(self.points)))
        else:
            pool = self._pool
        # future -> input index, so a failure can be attributed to the
        # point (and seed) that caused it.  Submission times back the
        # wall clock of failures that never reached the worker's own
        # accounting (e.g. a worker killed mid-run).
        workers: Dict[int, int] = {}
        submitted: Dict[int, float] = {}
        pending = {}
        for index, point in enumerate(self.points):
            submitted[index] = time.perf_counter()
            pending[pool.submit(_evaluate_point, (index, point))] = index
        try:
            while pending:
                self._check_cancel()
                finished, _ = wait(
                    pending,
                    timeout=_CANCEL_POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                for future in finished:
                    failed_index = pending.pop(future)
                    try:
                        index, result, hit, wall, pid = future.result()
                    except Exception as exc:
                        point = self.points[failed_index]
                        cause: BaseException = exc
                        wall = (
                            time.perf_counter() - submitted[failed_index]
                        )
                        worker = 0
                        if isinstance(exc, _PointFailure):
                            cause = exc.cause if exc.cause else exc
                            wall = exc.wall_s
                            worker = workers.setdefault(
                                exc.pid, len(workers)
                            )
                        self._settle(
                            failed_index,
                            PointOutcome(
                                point,
                                None,
                                False,
                                wall,
                                worker=worker,
                                error=f"{type(cause).__name__}: {cause}",
                            ),
                        )
                        raise SweepPointError(
                            failed_index, point, cause
                        ) from cause
                    worker = workers.setdefault(pid, len(workers))
                    self._settle(
                        index,
                        PointOutcome(
                            self.points[index], result, hit, wall, worker
                        ),
                    )
        except BaseException:
            # Don't keep simulating points whose results will be
            # discarded; queued work is cancelled and (for an owned
            # pool) running workers are awaited so none outlive the
            # sweep.  A shared pool stays up for its other clients.
            for future in pending:
                future.cancel()
            if owns_pool:
                pool.shutdown(wait=True, cancel_futures=True)
            raise
        else:
            if owns_pool:
                pool.shutdown(wait=True)


def execute_points(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> SweepReport:
    """Evaluate every sweep point, fanning out across processes.

    ``jobs=1`` runs in-process (no pool overhead); ``jobs>1`` uses a
    ``ProcessPoolExecutor`` whose workers share the active result
    store (:func:`worker_pool`).  ``progress`` is invoked in the parent
    as ``progress(done, total, outcome)`` after each point settles
    (completion order, not input order) -- exactly once per point,
    with ``done`` strictly increasing, including cache hits and the
    failing point of an aborted sweep (see :class:`PointScheduler`).

    Returns a :class:`SweepReport` whose ``results`` are ordered like
    ``points``.

    A point that raises aborts the sweep: outstanding pool work is
    cancelled, the pool is shut down, and a :class:`SweepPointError`
    naming the failing point (and its seed) propagates with the worker
    exception as its cause.  Stale ``.tmp-*.json`` files left in the
    store by interrupted writers are cleaned up on the way out.

    This is the one-shot convenience shim over
    :class:`PointScheduler`; callers needing cancellation or a shared
    pool use the scheduler directly.
    """
    return PointScheduler(points, jobs=jobs, progress=progress).run()
