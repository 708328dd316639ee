"""The daemon's job scheduler: executions over a shared worker pool.

One :class:`JobScheduler` owns the bridge between the asyncio control
plane and the blocking experiment machinery:

* submissions are fingerprinted (:func:`repro.serve.protocol.
  spec_fingerprint`) and coalesced through the :class:`JobRegistry`;
* each new execution is driven by one asyncio task that runs the
  kind-specific *runner* in a worker thread (``asyncio.to_thread``);
* runners fan simulations out on the scheduler's **shared**
  :class:`ProcessPoolExecutor` via :class:`repro.core.parallel.
  PointScheduler`, so concurrent jobs share one pool instead of
  spawning one each;
* progress flows back thread-safely: the point scheduler's progress
  sink posts events with ``loop.call_soon_threadsafe``, which is FIFO
  -- every point event is applied on the loop before the driving task
  observes the runner's return value, so counters are consistent by
  the time a terminal event is emitted.

Runners are looked up in the instance's ``_runners`` mapping, so tests
can substitute a controllable runner (e.g. one that blocks until
cancelled) without touching sockets or simulations.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, AsyncIterator, Dict, Optional

from repro.core.config import Protocol
from repro.core.parallel import PointScheduler, SweepCancelled, _worker_init
from repro.core.store import get_result_store
from repro.serve.jobs import Execution, Job, JobRegistry, JobState
from repro.serve.protocol import (
    check_payload,
    grid_payload,
    parse_spec,
    points_for,
    simulate_payload,
    spec_fingerprint,
    sweep_payload,
)

__all__ = ["JobScheduler"]


# ----------------------------------------------------------------------
# Runners: one blocking function per job kind, executed in a worker
# thread.  Signature: runner(scheduler, execution) -> result payload.
# ----------------------------------------------------------------------
def _run_points(scheduler: "JobScheduler", ex: Execution):
    """Evaluate the execution's sweep points on the shared pool."""
    points = points_for(ex.spec)
    core = PointScheduler(
        points,
        jobs=scheduler.jobs,
        pool=scheduler.shared_pool(),
        progress=scheduler._progress_sink(ex),
    )
    ex.scheduler = core
    try:
        if ex.cancel_requested.is_set():
            core.cancel()
        return core.run()
    finally:
        ex.scheduler = None


def _run_sweep(scheduler: "JobScheduler", ex: Execution):
    from repro.core.hybrid import sweep_from_result

    params = ex.spec.params
    report = _run_points(scheduler, ex)
    extraction = report.results[0]
    sweep = sweep_from_result(
        extraction,
        params["processors"],
        Protocol(params["protocol"]),
        cycles_ns=params["cycles_ns"],
    )
    if extraction.telemetry is not None:
        scheduler._post(
            ex,
            {
                "event": "telemetry",
                "histograms": extraction.telemetry.to_jsonable(),
            },
        )
    return sweep_payload(sweep)


def _run_simulate(scheduler: "JobScheduler", ex: Execution):
    report = _run_points(scheduler, ex)
    result = report.results[0]
    if result.telemetry is not None:
        scheduler._post(
            ex,
            {
                "event": "telemetry",
                "histograms": result.telemetry.to_jsonable(),
            },
        )
    return simulate_payload(result)


def _run_check(scheduler: "JobScheduler", ex: Execution):
    from repro import check

    params = ex.spec.params
    if ex.cancel_requested.is_set():
        raise SweepCancelled("cancelled before exploration started")
    store = get_result_store() if params["resume"] else None
    report = check.explore(
        params["protocol"],
        nodes=params["nodes"],
        lines=params["lines"],
        races=params["races"],
        max_depth=params["max_depth"],
        max_states=params["max_states"],
        symmetry=params["symmetry"],
        jobs=scheduler.jobs,
        store=store,
        resume=params["resume"],
    )
    return check_payload(report)


def _run_grid(scheduler: "JobScheduler", ex: Execution):
    from repro.core.hybrid import surface_from_result
    from repro.models.grid import grid_available

    if not grid_available():
        raise RuntimeError("grid jobs need NumPy, which is not available")
    params = ex.spec.params
    report = _run_points(scheduler, ex)
    solution = surface_from_result(
        report.results[0],
        params["processors"],
        Protocol(params["protocol"]),
        parameters=params["parameters"],
        cycles_ns=params["cycles_ns"],
    )
    return grid_payload(solution)


DEFAULT_RUNNERS = {
    "sweep": _run_sweep,
    "simulate": _run_simulate,
    "check": _run_check,
    "grid": _run_grid,
}


class JobScheduler:
    """Coalescing scheduler driving executions on a shared pool."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, jobs)
        self.registry = JobRegistry()
        self._runners = dict(DEFAULT_RUNNERS)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Shared worker pool
    # ------------------------------------------------------------------
    def shared_pool(self) -> Optional[ProcessPoolExecutor]:
        """The long-lived simulation pool (``None`` when ``jobs<=1``).

        Created lazily from any runner thread; workers are initialised
        against the store active at creation time, exactly like the
        per-sweep pools of :func:`repro.core.parallel.execute_points`.
        """
        if self.jobs <= 1:
            return None
        with self._pool_lock:
            if self._pool is None:
                store = get_result_store()
                worker_dir = (
                    str(store.directory) if store.enabled else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_worker_init,
                    initargs=(worker_dir, store.enabled, store._generation),
                )
            return self._pool

    # ------------------------------------------------------------------
    # Submission and cancellation (event loop thread)
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Job:
        """Validate, fingerprint, coalesce, and (if new) start driving."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        spec = parse_spec(payload)
        key = spec_fingerprint(spec, get_result_store())
        job, created = self.registry.submit(spec, key)
        execution = job.execution
        if created:
            execution.update = asyncio.Event()
            execution.total_points = len(points_for(spec))
            execution.task = self._loop.create_task(self._drive(execution))
        return job

    def cancel_job(self, job_id: str) -> Optional[Job]:
        """Detach one subscriber; cancel the execution if it was the
        last one.  Returns the job, or ``None`` if unknown."""
        job = self.registry.jobs.get(job_id)
        if job is None:
            return None
        if self.registry.detach(job):
            self._cancel_execution(job.execution)
        return job

    def _cancel_execution(self, execution: Execution) -> None:
        # The flag covers a runner that has not started yet; a live
        # point scheduler is additionally cancelled directly so pooled
        # futures stop at the next boundary.
        execution.cancel_requested.set()
        core = execution.scheduler
        if core is not None:
            core.cancel()

    async def _drive(self, execution: Execution) -> None:
        execution.state = JobState.RUNNING
        execution.started_s = time.time()
        self._append_event(
            execution, {"event": "state", "state": JobState.RUNNING.value}
        )
        runner = self._runners[execution.spec.kind]
        try:
            result = await asyncio.to_thread(runner, self, execution)
        except SweepCancelled:
            self.registry.finish(execution, JobState.CANCELLED)
            self._append_event(execution, {"event": "cancelled"})
        except Exception as exc:
            # The runner thread is gone by the time a client asks what
            # happened; keep the full traceback, not just the
            # one-liner, and ship both in the terminal event.
            execution.error = f"{type(exc).__name__}: {exc}"
            execution.traceback = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            self.registry.finish(execution, JobState.FAILED)
            self._append_event(
                execution,
                {
                    "event": "failed",
                    "error": execution.error,
                    "traceback": execution.traceback,
                },
            )
        else:
            if execution.cancel_requested.is_set() and not execution.subscribers:
                # The runner finished before the cancel reached it;
                # nobody is subscribed, so honour the cancel.
                self.registry.finish(execution, JobState.CANCELLED)
                self._append_event(execution, {"event": "cancelled"})
                return
            execution.result = result
            self.registry.finish(execution, JobState.DONE)
            self._append_event(
                execution,
                {
                    "event": "done",
                    "simulated": execution.simulated,
                    "cache_hits": execution.cache_hits,
                },
            )

    # ------------------------------------------------------------------
    # Events: thread-safe posting, loop-side application, streaming
    # ------------------------------------------------------------------
    def _append_event(self, execution: Execution, event: Dict[str, Any]):
        """Loop thread only: append one event and wake streamers."""
        event = dict(event)
        event["seq"] = len(execution.events)
        execution.events.append(event)
        waiter = execution.update
        execution.update = asyncio.Event()
        waiter.set()

    def _post(self, execution: Execution, event: Dict[str, Any]) -> None:
        """Any thread: schedule an event append on the loop (FIFO)."""
        self._loop.call_soon_threadsafe(self._append_event, execution, event)

    def _progress_sink(self, execution: Execution):
        """A :class:`PointScheduler` progress callback wired to the
        execution's event stream and counters."""

        def sink(done, total, outcome):
            event = {
                "event": "point",
                "done": done,
                "total": total,
                "benchmark": outcome.point.benchmark,
                "processors": outcome.point.num_processors,
                "protocol": outcome.point.protocol.value,
                "cache_hit": outcome.cache_hit,
                "wall_s": outcome.wall_s,
            }
            if outcome.error is not None:
                event["error"] = outcome.error
            self._loop.call_soon_threadsafe(
                self._apply_point, execution, event, outcome.failed
            )

        return sink

    def _apply_point(
        self, execution: Execution, event: Dict[str, Any], failed: bool
    ) -> None:
        execution.done_points = event["done"]
        execution.total_points = event["total"]
        if not failed:
            if event["cache_hit"]:
                execution.cache_hits += 1
            else:
                execution.simulated += 1
        self._append_event(execution, event)

    async def events(
        self, execution: Execution, start: int = 0
    ) -> AsyncIterator[Dict[str, Any]]:
        """Replay events from ``start`` and follow until terminal."""
        seq = start
        while True:
            while seq < len(execution.events):
                yield execution.events[seq]
                seq += 1
            if execution.state.terminal:
                return
            waiter = execution.update
            await waiter.wait()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def shutdown(self) -> None:
        """Cancel every in-flight execution, drain drivers, stop pool."""
        for execution in list(self.registry.inflight.values()):
            self._cancel_execution(execution)
        tasks = [
            execution.task
            for execution in self.registry.executions.values()
            if execution.task is not None and not execution.task.done()
        ]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        pool, self._pool = self._pool, None
        if pool is not None:
            await asyncio.to_thread(pool.shutdown, True, cancel_futures=True)
