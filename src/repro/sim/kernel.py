"""Process-oriented discrete-event simulation kernel.

This module is the reproduction's substitute for the CSIM package the
paper used (Schwetman, "CSIM: A C-Based, Process-Oriented Simulation
Language", 1986).  It provides the same modelling paradigm -- simulation
*processes* written as sequential code that suspends on timed waits and
synchronisation primitives -- implemented with Python generators.

Time is an integer number of **picoseconds**.  Integer time keeps the
simulation exactly deterministic (no floating-point drift when mixing a
2 ns ring clock with, say, a 7 ns processor clock) and makes every clock
domain in the paper representable exactly:

* 500 MHz ring clock  -> 2_000 ps
* 250 MHz ring clock  -> 4_000 ps
* 100 MHz bus clock   -> 10_000 ps
* processor cycles    -> 1_000 .. 20_000 ps
* memory bank access  -> 140_000 ps

A process is any generator that yields *wait requests*:

* ``yield sim.timeout(delay_ps)``   -- resume after ``delay_ps``.
* ``yield event``                   -- resume when ``event`` fires
  (the value passed to :meth:`Event.succeed` becomes the yield result).

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def ticker(sim, period, n):
...     for _ in range(n):
...         yield sim.timeout(period)
...         log.append(sim.now)
>>> _ = sim.spawn(ticker(sim, 2000, 3))
>>> sim.run()
>>> log
[2000, 4000, 6000]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generator, List, Optional, Tuple

__all__ = [
    "Event",
    "Process",
    "Relay",
    "SimulationError",
    "Simulator",
    "Timeout",
]

#: A simulation process body: a generator yielding wait requests.
ProcessBody = Generator[Any, Any, Any]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double-fire, run-after-finish...)."""


class Event:
    """A one-shot synchronisation point processes can wait on.

    An event starts *pending*; :meth:`succeed` fires it, waking every
    waiting process and recording a value that each waiter receives as
    the result of its ``yield``.  Firing twice is an error -- coherence
    transactions in this codebase use one event per reply, so a double
    fire always indicates a protocol bug and should fail loudly.
    """

    __slots__ = ("_sim", "_fired", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._fired = False
        self._value: Any = None
        self._waiters: List["Process"] = []
        self.name = name

    @property
    def fired(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value the event fired with (``None`` while pending)."""
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event, scheduling every waiter to resume *now*."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        for process in self._waiters:
            self._sim._schedule(self._sim.now, process, value)
        self._waiters.clear()

    def _add_waiter(self, process: "Process") -> None:
        if self._fired:
            # Late waiters resume immediately with the recorded value.
            self._sim._schedule(self._sim.now, process, self._value)
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout:
    """A pure delay request; ``yield sim.timeout(d)`` resumes after *d* ps."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class Relay:
    """A periodic-hop sleep: consume tie-break ranks without resuming.

    ``yield Relay(first, step, final)`` (absolute picosecond times)
    schedules a heap entry at ``first`` that, on every pop, silently
    re-enqueues itself ``step`` later -- drawing a fresh sequence number
    per hop exactly where a polling loop's wakeup would -- until the hop
    grid reaches ``final``, where the process resumes with ``None``.

    This exists for the slot scheduler's fast path: a blocked sender
    knows (by the free-time monotonicity argument in
    :mod:`repro.ring.scheduler`) that every slot arrival before its
    predicted grab is dead, but the *global order* of sequence numbers
    still decides same-time tie-breaks across all processes.  Relay
    hops keep the ``(time, seq)`` allocation stream bit-identical to
    per-arrival polling while skipping the generator resume and the
    scheduler loop body at each dead arrival.
    """

    __slots__ = ("first", "step", "final")

    def __init__(self, first: int, step: int, final: int) -> None:
        if step <= 0:
            raise ValueError(f"relay step must be positive: {step}")
        if not first <= final:
            raise ValueError(f"relay first {first} past final {final}")
        self.first = first
        self.step = step
        self.final = final

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relay(first={self.first}, step={self.step}, final={self.final})"


class Process:
    """A running simulation process wrapping a generator body."""

    __slots__ = (
        "body",
        "name",
        "alive",
        "result",
        "_done_event",
        "_wake_token",
        "_sim",
    )

    def __init__(self, body: ProcessBody, name: str, sim: "Simulator") -> None:
        self.body = body
        self.name = name
        self.alive = True
        self.result: Any = None
        #: Completion event, created lazily on first ``done`` access.
        #: Most processes (every memory-bank service timer, every
        #: background write-back) are never joined, so the eager
        #: per-process ``Event`` was pure allocation churn.  Laziness
        #: is invisible: event creation draws no sequence numbers, and
        #: firing an event nobody waits on schedules nothing.
        self._done_event: Optional[Event] = None
        self._sim = sim
        #: Wake-validity token: every heap entry records the token at
        #: scheduling time, and :meth:`kill` bumps it, so a cancelled
        #: process's wakeups scheduled *after* the kill (a pending
        #: event firing late) become dead timeouts discarded at pop.
        self._wake_token = 0

    @property
    def done(self) -> Event:
        """Event fired (with the process return value) on termination."""
        event = self._done_event
        if event is None:
            event = self._done_event = Event(self._sim, name=f"done:{self.name}")
            if not self.alive:
                # Joined after the fact: resolve immediately.
                event.succeed(self.result)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The event loop: schedules processes on an integer picosecond clock.

    The public surface is intentionally small -- :meth:`spawn`,
    :meth:`timeout`, :meth:`event`, :meth:`run` -- because protocol code
    in ``repro.ring`` and ``repro.bus`` builds its own higher-level
    abstractions (slot schedulers, arbiters) on top of it.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Tuple[int, int, int, "Process", Any]] = []
        self._sequence = itertools.count()
        self._active_processes = 0
        #: Dead timeouts discarded lazily at pop time (statistics).
        self.cancelled_wakes = 0
        #: Relay hops performed (dead slot arrivals skipped; statistics).
        self.relay_hops = 0
        #: Heap entries popped over the simulator's lifetime.  A
        #: deterministic measure of event-loop work, used by the perf
        #: harness (``repro bench``) where wall-clock would be noisy.
        self.events_processed = 0
        #: Optional telemetry sinks (see ``repro.obs``).  Both default
        #: to ``None`` and are duck-typed: the kernel and the modules
        #: built on it never import the observability package, they
        #: only check these attributes, so telemetry is zero-cost when
        #: disabled and cannot alter event ordering when enabled.
        self.tracer: Optional[Any] = None
        self.histograms: Optional[Any] = None
        #: Optional runtime coherence checker (see ``repro.check``).
        #: Same duck-typed contract as the telemetry sinks: protocol
        #: engines call ``monitor.on_commit(engine, node, address,
        #: action)`` after each coherence-action commit when attached;
        #: ``None`` (the default) keeps every hook on its no-op path.
        self.monitor: Optional[Any] = None

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Picklable state, with the sequence counter as its next number.

        ``itertools.count`` loses copy and pickle support in Python
        3.14 (3.12 warns on every copy), so the counter travels as a
        plain int.  Reading it draws that number, so the counter is
        restarted at the same number: the next ``_schedule`` still
        draws it.
        """
        state = self.__dict__.copy()
        sequence = next(self._sequence)
        self._sequence = itertools.count(sequence)
        state["_sequence"] = sequence
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._sequence = itertools.count(state["_sequence"])

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def spawn(self, body: ProcessBody, name: str = "process") -> Process:
        """Register a generator as a process starting at the current time."""
        process = Process(body, name, self)
        self._active_processes += 1
        self._schedule(self.now, process, None)
        tracer = self.tracer
        if tracer is not None:
            tracer.process_spawn(self.now, process.name)
        return process

    def timeout(self, delay: int) -> Timeout:
        """Create a delay request for ``yield`` (delay in picoseconds).

        Delays must be an integral number of picoseconds: the integer
        clock is the determinism contract of this kernel, so a
        non-integral float is rejected with :class:`TypeError` rather
        than silently truncated (truncation would let two call sites
        that differ by sub-picosecond rounding diverge invisibly).
        Integral floats (e.g. the result of ``1e6 / mhz`` arithmetic
        that happens to land exactly) are accepted and converted.
        """
        if type(delay) is not int:
            if isinstance(delay, float):
                if not delay.is_integer():
                    raise TypeError(
                        f"timeout delay must be an integral number of "
                        f"picoseconds, got {delay!r}"
                    )
                delay = int(delay)
            elif isinstance(delay, int):  # bool / int subclass
                delay = int(delay)
            else:
                raise TypeError(
                    f"timeout delay must be an int (picoseconds), "
                    f"got {type(delay).__name__}"
                )
        return Timeout(delay)

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------
    def _schedule(self, when: int, process: Process, value: Any) -> None:
        heapq.heappush(
            self._heap,
            (when, next(self._sequence), process._wake_token, process, value),
        )

    def kill(self, process: Process) -> None:
        """Terminate a process without resuming it.

        Wakeups the process already has on the heap are removed
        eagerly.  Lazy discarding (the wake-token mechanism, still used
        for event fires that schedule the dead process *after* the
        kill) is not enough for entries that are already scheduled:
        popping one advances the clock to its timestamp, so killing a
        process sleeping far into the future -- in particular one
        parked on a heap-absorbed :class:`Relay` hop grid, whose entry
        silently re-arms toward ``final`` -- would drag ``run()``'s
        finish time and event count to a moment nothing real ever
        reaches.  Kills are rare (no hot path calls this), so the
        O(heap) sweep is free in practice.

        The ``done`` event fires with ``None``, exactly as if the body
        had returned.
        """
        if not process.alive:
            return
        process.alive = False
        process._wake_token += 1
        process.body.close()
        heap = self._heap
        pending = sum(1 for entry in heap if entry[3] is process)
        if pending:
            # Sweep IN PLACE: run()'s inlined loop drains a local alias
            # of this list, so rebinding ``self._heap`` to a filtered
            # copy would leave a mid-run killer popping the stale list
            # -- the dead process's relay entry would still advance the
            # clock to its next hop, and anything scheduled through
            # ``self._schedule`` afterwards would land in a heap the
            # running loop never reads.
            self.cancelled_wakes += pending
            heap[:] = [entry for entry in heap if entry[3] is not process]
            heapq.heapify(heap)
        self._active_processes -= 1
        done_event = process._done_event
        if done_event is not None:
            done_event.succeed(None)
        tracer = self.tracer
        if tracer is not None:
            tracer.process_finish(self.now, process.name)

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event heap drains (or past time ``until``).

        Returns the final simulation time.  Resumability contract:

        * ``run(until=T)`` processes every event with timestamp <= T,
          then leaves the clock at exactly ``T`` -- whether events
          remain beyond it or the heap drained early -- so interleaved
          ``run(until)`` / ``run()`` calls observe one monotonic clock.
        * Events left on the heap stay scheduled; a subsequent ``run``
          resumes them.  New processes spawned between runs schedule at
          the current (resumed) time, so they may run *before* the
          wakeup a prior :meth:`peek` reported -- but never before
          ``now``.
        * ``until`` in the past is a caller bug and raises
          :class:`ValueError` instead of silently rewinding the clock
          (which would corrupt every pending-event invariant).

        Every per-event attribute lookup is hoisted into locals: the
        simulator spends the bulk of each run here, and the method-call
        + lookup overhead was a measurable fraction of total wall time.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"run(until={until}) would move time backwards "
                f"(now={self.now})"
            )
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        next_seq = self._sequence.__next__
        timeout_type = Timeout
        event_type = Event
        relay_type = Relay
        relay_hops = 0
        events = 0
        now = self.now
        try:
            while heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return until
                when, _, token, process, value = heappop(heap)
                events += 1
                if when < now:
                    self.now = now
                    raise SimulationError("time went backwards")
                self.now = now = when
                if not process.alive or token != process._wake_token:
                    self.cancelled_wakes += token != process._wake_token
                    continue
                if value.__class__ is relay_type:
                    # Silent hop: burn the sequence number the polling
                    # wake would have drawn, without resuming the body.
                    relay_hops += 1
                    nxt = when + value.step
                    if nxt >= value.final:
                        heappush(
                            heap,
                            (value.final, next_seq(), token, process, None),
                        )
                    else:
                        heappush(
                            heap,
                            (nxt, next_seq(), token, process, value),
                        )
                    continue
                try:
                    request = process.body.send(value)
                except StopIteration as stop:
                    process.alive = False
                    process.result = stop.value
                    self._active_processes -= 1
                    done_event = process._done_event
                    if done_event is not None:
                        done_event.succeed(stop.value)
                    tracer = self.tracer
                    if tracer is not None:
                        tracer.process_finish(now, process.name)
                    continue
                request_type = type(request)
                if request_type is timeout_type:
                    heappush(
                        heap,
                        (
                            now + request.delay,
                            next_seq(),
                            process._wake_token,
                            process,
                            None,
                        ),
                    )
                elif request_type is event_type:
                    request._add_waiter(process)
                elif request_type is relay_type:
                    first = request.first
                    if first < now:
                        raise SimulationError(
                            f"relay first hop {first} is in the past "
                            f"(now={now})"
                        )
                    heappush(
                        heap,
                        (
                            first,
                            next_seq(),
                            process._wake_token,
                            process,
                            request if first < request.final else None,
                        ),
                    )
                elif request_type is Process:
                    request.done._add_waiter(process)
                else:
                    raise SimulationError(
                        f"process {process.name!r} yielded unsupported "
                        f"request {request!r}; yield a Timeout, Event, "
                        f"Relay or Process"
                    )
        finally:
            self.relay_hops += relay_hops
            self.events_processed += events
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def peek(self) -> Optional[int]:
        """Time of the next scheduled wakeup, or ``None`` if drained."""
        return self._heap[0][0] if self._heap else None

    @property
    def active_process_count(self) -> int:
        """Number of spawned processes that have not yet terminated."""
        return self._active_processes
