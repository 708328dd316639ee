"""Sweep-as-a-service: an async job daemon over the experiment stack.

The paper's hybrid methodology makes each experiment cheap; this
package makes *queues* of them cheap.  A long-lived daemon
(:class:`~repro.serve.server.ServeDaemon`) accepts sweep / simulate /
check / grid submissions over HTTP/JSON, fingerprints each one with
the persistent store's content hash, coalesces identical in-flight
requests onto a single execution, runs the underlying simulations on
one shared process pool, and streams NDJSON progress back to every
subscriber.  Everything is stdlib-only.

Layering::

    protocol.py    job kinds, validation, fingerprints, payloads, and
                   run_job: the one executor (the CLI's too)
    jobs.py        Job / Execution / JobRegistry (coalescing index)
    scheduler.py   asyncio drivers running run_job on a shared pool
    server.py      the HTTP daemon (routes, NDJSON streaming)
    client.py      stdlib client (CLI, tests, CI smoke job)

See ``docs/SERVING.md`` for the protocol walk-through and operational
notes.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import Execution, Job, JobRegistry, JobState
from repro.serve.protocol import (
    JobSpec,
    SpecError,
    parse_spec,
    run_job,
    spec_fingerprint,
)
from repro.serve.scheduler import JobScheduler
from repro.serve.server import ServeDaemon

__all__ = [
    "Execution",
    "Job",
    "JobRegistry",
    "JobScheduler",
    "JobSpec",
    "JobState",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "SpecError",
    "parse_spec",
    "run_job",
    "spec_fingerprint",
]
