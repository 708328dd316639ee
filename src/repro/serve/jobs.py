"""Job and execution bookkeeping for the serving daemon.

The daemon separates what a client *holds* from what the machine
*does*:

* a :class:`Job` is one client-visible handle -- every submission gets
  its own job id, its own cancel button, its own view of the state;
* an :class:`Execution` is one unit of shared work, keyed by the
  submission's content fingerprint (:func:`repro.serve.protocol.
  spec_fingerprint`).

Request coalescing is the mapping between them: N identical
submissions while the first is still in flight attach N jobs to one
execution (one simulation, N subscribers), exactly as the paper reuses
one workload trace across many ring configurations.  Cancelling a job
detaches its subscription; the shared execution is only cancelled when
its last subscriber leaves.

All registry state is mutated on the daemon's event loop thread only
(worker threads post mutations through ``call_soon_threadsafe``), so
there are no locks here.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Set

from repro.serve.protocol import JobSpec

__all__ = ["JobState", "Job", "Execution", "JobRegistry"]


class JobState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Execution:
    """One unit of shared work: a spec being evaluated once."""

    id: str
    key: str
    spec: JobSpec
    state: JobState = JobState.PENDING
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Job ids still subscribed (cancelling detaches).
    subscribers: Set[str] = field(default_factory=set)
    #: Every job id ever attached (for reporting).
    job_ids: List[str] = field(default_factory=list)
    #: NDJSON event history; late subscribers replay it from index 0.
    events: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Full formatted traceback of a failed run -- the ``error``
    #: one-liner alone is often useless for diagnosing a runner bug
    #: (the frames died with the worker thread).
    traceback: Optional[str] = None
    #: Progress counters (mutated on the event loop thread).
    done_points: int = 0
    total_points: int = 0
    simulated: int = 0
    cache_hits: int = 0
    #: Set (from any thread) when the last subscriber cancels; the
    #: runner's point scheduler polls it as its own cancel flag.
    cancel_requested: threading.Event = field(default_factory=threading.Event)
    #: The asyncio task driving this execution.
    task: Any = None
    #: Replaced-and-set on every event append; streamers wait on it.
    update: Any = None

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "execution": self.id,
            "kind": self.spec.kind,
            "spec": self.spec.to_jsonable(),
            "state": self.state.value,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "subscribers": len(self.subscribers),
            "jobs": list(self.job_ids),
            "done_points": self.done_points,
            "total_points": self.total_points,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "error": self.error,
            "traceback": self.traceback,
        }


@dataclass
class Job:
    """One client-visible handle onto an execution."""

    id: str
    execution: Execution
    coalesced: bool
    created_s: float = field(default_factory=time.time)
    #: This handle detached (the shared execution may live on).
    cancelled: bool = False

    @property
    def state(self) -> JobState:
        if self.cancelled:
            return JobState.CANCELLED
        return self.execution.state

    def to_jsonable(self) -> Dict[str, Any]:
        execution = self.execution
        return {
            "job": self.id,
            "state": self.state.value,
            "kind": execution.spec.kind,
            "spec": execution.spec.to_jsonable(),
            "coalesced": self.coalesced,
            "execution": execution.id,
            "created_s": self.created_s,
            "done_points": execution.done_points,
            "total_points": execution.total_points,
            "simulated": execution.simulated,
            "cache_hits": execution.cache_hits,
            "error": execution.error,
            "traceback": execution.traceback,
        }


class JobRegistry:
    """Jobs, executions, and the in-flight coalescing index."""

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        self.executions: Dict[str, Execution] = {}
        #: fingerprint -> execution currently pending/running.
        self.inflight: Dict[str, Execution] = {}
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "coalesced": 0,
            "executions_started": 0,
            "completed": 0,
            "failed": 0,
            "cancelled_jobs": 0,
            "cancelled_executions": 0,
        }
        self._next_job = 0
        self._next_execution = 0

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, key: str) -> "tuple[Job, bool]":
        """Attach a new job to the in-flight execution for ``key`` (or
        create one).  Returns ``(job, created)`` where ``created``
        says whether a new execution must be driven."""
        self.counters["submitted"] += 1
        execution = self.inflight.get(key)
        created = execution is None
        if created:
            self._next_execution += 1
            execution = Execution(
                id=f"x{self._next_execution}", key=key, spec=spec
            )
            self.executions[execution.id] = execution
            self.inflight[key] = execution
            self.counters["executions_started"] += 1
        else:
            self.counters["coalesced"] += 1
        self._next_job += 1
        job = Job(
            id=f"j{self._next_job}",
            execution=execution,
            coalesced=not created,
        )
        self.jobs[job.id] = job
        execution.subscribers.add(job.id)
        execution.job_ids.append(job.id)
        return job, created

    def detach(self, job: Job) -> bool:
        """Cancel one subscription.  Returns whether the underlying
        execution lost its last subscriber (and should be cancelled)."""
        if job.cancelled or job.state.terminal:
            return False
        job.cancelled = True
        self.counters["cancelled_jobs"] += 1
        execution = job.execution
        execution.subscribers.discard(job.id)
        if execution.subscribers or execution.state.terminal:
            return False
        self.counters["cancelled_executions"] += 1
        return True

    def finish(self, execution: Execution, state: JobState) -> None:
        """Move an execution out of the in-flight index, terminally."""
        execution.state = state
        execution.finished_s = time.time()
        if self.inflight.get(execution.key) is execution:
            del self.inflight[execution.key]
        if state is JobState.DONE:
            self.counters["completed"] += 1
        elif state is JobState.FAILED:
            self.counters["failed"] += 1

    def stats(self) -> Dict[str, Any]:
        return {
            **self.counters,
            "jobs": len(self.jobs),
            "inflight": len(self.inflight),
        }
