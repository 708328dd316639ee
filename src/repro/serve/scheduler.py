"""The daemon's job scheduler: executions over a shared worker pool.

One :class:`JobScheduler` owns the bridge between the asyncio control
plane and the blocking experiment machinery:

* submissions are fingerprinted (:func:`repro.serve.protocol.
  spec_fingerprint`, once per distinct canonical spec while the active
  store and its generation stay the same) and coalesced through the
  :class:`JobRegistry`;
* an execution whose fingerprint already has a finished answer in the
  registry still runs its points (a memo hit, which keeps its progress
  events and counters), then hands out that answer's payload and
  histograms instead of building them again;
* each new execution is driven by one asyncio task that runs the
  job through :func:`repro.serve.protocol.run_job` in a worker thread
  (``asyncio.to_thread``) -- the same executor the CLI verbs call;
* simulations fan out on the scheduler's **shared**
  :class:`ProcessPoolExecutor` (:func:`repro.core.parallel.
  worker_pool`), so concurrent jobs share one pool instead of
  spawning one each;
* progress flows back thread-safely: the point scheduler's progress
  sink posts events with ``loop.call_soon_threadsafe``, which is FIFO
  -- every point event is applied on the loop before the driving task
  observes the runner's return value, so counters are consistent by
  the time a terminal event is emitted.

The runner is looked up per kind in the instance's ``_runners``
mapping, so tests can substitute a controllable runner (e.g. one that
blocks until cancelled) without touching sockets or simulations.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from repro.core.parallel import SweepCancelled, worker_pool
from repro.core.store import get_result_store
from repro.serve.jobs import Execution, Job, JobRegistry, JobState
from repro.serve.protocol import (
    JOB_KINDS,
    JobSpec,
    parse_spec,
    points_for,
    run_job,
    spec_fingerprint,
)

__all__ = ["JobScheduler"]


def _run(scheduler: "JobScheduler", ex: Execution) -> Dict[str, Any]:
    """The runner of every job kind: :func:`run_job` wired to the
    daemon's shared pool, the execution's progress sink, its cancel
    event, its telemetry event and the fingerprint's finished answer,
    if there is one.  Blocking; runs in a worker thread.
    """
    # One dict read; the loop thread alone writes the index.
    previous = scheduler.registry.answers.get(ex.key)

    def telemetry(histograms):
        # Set before run_job returns, so before finish() indexes ``ex``.
        ex.telemetry = histograms
        scheduler._post(ex, {"event": "telemetry", "histograms": histograms})

    return run_job(
        ex.spec,
        jobs=scheduler.jobs,
        pool=None if ex.spec.kind == "check" else scheduler.shared_pool(),
        progress=scheduler._progress_sink(ex),
        cancel=ex.cancel_requested,
        telemetry=telemetry,
        key=ex.key,
        answer=(
            None if previous is None else (previous.result, previous.telemetry)
        ),
    )


DEFAULT_RUNNERS = {kind: _run for kind in JOB_KINDS}


class JobScheduler:
    """Coalescing scheduler driving executions on a shared pool."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, jobs)
        self.registry = JobRegistry()
        self._runners = dict(DEFAULT_RUNNERS)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: canonical spec JSON -> (fingerprint, point count), valid for
        #: the store and generation salt in :attr:`_fingerprint_epoch`.
        self._fingerprints: Dict[str, Tuple[str, int]] = {}
        self._fingerprint_epoch: Optional[Tuple[Any, str]] = None

    # ------------------------------------------------------------------
    # Shared worker pool
    # ------------------------------------------------------------------
    def shared_pool(self) -> Optional[ProcessPoolExecutor]:
        """The long-lived simulation pool (``None`` when ``jobs<=1``).

        Created lazily from any runner thread by
        :func:`repro.core.parallel.worker_pool`, the factory behind
        every sweep's own pool, so workers share the store active at
        creation time.
        """
        if self.jobs <= 1:
            return None
        with self._pool_lock:
            if self._pool is None:
                self._pool = worker_pool(self.jobs)
            return self._pool

    # ------------------------------------------------------------------
    # Submission and cancellation (event loop thread)
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Job:
        """Validate, fingerprint, coalesce, and (if new) start driving."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        spec = parse_spec(payload)
        key, total_points = self._fingerprint(spec)
        job, created = self.registry.submit(spec, key)
        execution = job.execution
        if created:
            execution.update = asyncio.Event()
            execution.total_points = total_points
            execution.task = self._loop.create_task(self._drive(execution))
        return job

    def _fingerprint(self, spec: JobSpec) -> Tuple[str, int]:
        """``spec``'s fingerprint and point count, computed once per
        canonical spec.  Simulation fingerprints hash the store's
        generation salt, so a swapped or invalidated store starts a new
        epoch: the memo and the finished answers are dropped."""
        store = get_result_store()
        epoch = (store, store._salt())
        if self._fingerprint_epoch != epoch:
            self._fingerprint_epoch = epoch
            self._fingerprints.clear()
            self.registry.answers.clear()
        canonical = json.dumps(
            spec.to_jsonable(), sort_keys=True, separators=(",", ":")
        )
        entry = self._fingerprints.get(canonical)
        if entry is None:
            points = points_for(spec)
            entry = (spec_fingerprint(spec, store, points), len(points))
            self._fingerprints[canonical] = entry
        return entry

    def cancel_job(self, job_id: str) -> Optional[Job]:
        """Detach one subscriber; cancel the execution if it was the
        last one.  Returns the job, or ``None`` if unknown."""
        job = self.registry.jobs.get(job_id)
        if job is None:
            return None
        if self.registry.detach(job):
            # The runner's point scheduler polls this very event, so
            # one set() stops a queued and a running execution alike.
            job.execution.cancel_requested.set()
        return job

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
        """Loop thread only: append one event and wake streamers.  The
        event after ``finish()`` is the terminal one, the last; it
        releases the execution's live-only handles."""
        event = dict(event)
        event["seq"] = len(execution.events)
        execution.events.append(event)
        waiter = execution.update
        if execution.state.terminal:
            execution.release()
        else:
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
            execution.cancel_requested.set()
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
