"""Layer attribution for traced benchmark runs.

Two pieces, both driven from outside the program:

* :class:`Tracer` wraps the public calls at layer boundaries
  (``run_simulation``, ``ResultStore.get``/``put``, model ``sweep``/
  ``solve``, ``solve_grid``, ``explore``, the ``ServeClient`` calls and
  the renderers) and records a span per call -- name, start, end,
  parent, run id -- plus the counters those calls expose.  Spans stay
  in memory and are written as JSONL when the run ends.
* :class:`Sampler` attributes CPU time to layers named after the
  modules in ``src/repro``.  It samples every thread's stack and
  charges the CPU time the thread used since its last sample to the
  innermost ``repro`` function on the stack, so time in stdlib and
  builtin code (``random``, ``heapq``, ``copy``, ``json``...) goes to the
  ``repro`` code that called it.  It costs a few percent, where
  cProfile slowed the checker fourfold.

Run as a script, this module starts ``repro`` under the tracer and
writes the trace beside ``PREFIX``; the ``serve`` workload launches its
traced daemon that way::

    python bench/tracing.py PREFIX serve --port 0 --jobs 1 --cache-dir DIR
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Every layer, named after the modules it covers (see ``_MODULE_RULES``).
LAYERS = (
    "traces",
    "sim.kernel",
    "ring.scheduler",
    "ring.engines",
    "memory",
    "proc",
    "obs",
    "core.experiment",
    "core.store",
    "models",
    "models.grid",
    "analysis",
    "check",
    "check.clone",
    "check.symmetry",
    "check.state",
    "serve",
    "cli",
)

#: Time with no ``repro`` function above it, or in the benchmark's own
#: code: interpreter start-up, idle threads, calibration.
OTHER = "other"

#: The benchmark's own files, whose time is never a layer's.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: ``(path prefix under src/repro/, layer)``; the first match wins.
_MODULE_RULES = (
    ("sim/rng.py", "traces"),
    ("traces/", "traces"),
    ("sim/", "sim.kernel"),
    ("ring/scheduler.py", "ring.scheduler"),
    ("ring/slots.py", "ring.scheduler"),
    ("ring/topology.py", "ring.scheduler"),
    ("ring/", "ring.engines"),
    ("bus/", "ring.engines"),
    ("memory/", "memory"),
    ("proc/", "proc"),
    ("obs/", "obs"),
    ("core/store.py", "core.store"),
    ("core/", "core.experiment"),
    ("models/grid.py", "models.grid"),
    ("models/", "models"),
    ("analysis/", "analysis"),
    ("check/symmetry.py", "check.symmetry"),
    ("check/state.py", "check.state"),
    ("check/", "check"),
    ("spec/", "check"),
    ("serve/", "serve"),
    ("perf/", "cli"),
    ("cli.py", "cli"),
    ("__main__.py", "cli"),
    ("__init__.py", "cli"),
)

#: Functions charged apart from their module.  Harness clones are a
#: deep copy of the whole simulated machine and the checker's largest
#: cost, so they are a layer of their own; the daemon's event loop
#: runs under ``repro serve``'s CLI handler but is the daemon's work.
_FUNCTION_RULES = {
    ("check/state.py", "clone"): "check.clone",
    ("check/specmode.py", "clone"): "check.clone",
    ("cli.py", "_command_serve"): "serve",
    ("cli.py", "_main"): "serve",
}


def module_layer(relative: str) -> str:
    """The layer of one module, given its path under ``src/repro/``."""
    for prefix, layer in _MODULE_RULES:
        if relative.startswith(prefix):
            return layer
    return OTHER


def function_layer(filename: str, name: str, repro_dir: str) -> Optional[str]:
    """The layer of one function, or None outside ``repro``."""
    if not filename.startswith(repro_dir):
        return None
    relative = filename[len(repro_dir):]
    return _FUNCTION_RULES.get((relative, name)) or module_layer(relative)


def stack_layer(
    stack: Iterable[Tuple[str, str]], repro_dir: str, bench_dir: str = BENCH_DIR
) -> str:
    """The layer charged for a stack of ``(filename, function)`` pairs,
    innermost first: that of the innermost ``repro`` function, or
    :data:`OTHER` when no ``repro`` function is on the stack or a
    benchmark function is inside the innermost one (the benchmark's
    wrappers and calibration loops run inside ``repro`` calls)."""
    for filename, name in stack:
        if filename.startswith(bench_dir):
            return OTHER
        layer = function_layer(filename, name, repro_dir)
        if layer is not None:
            return layer
    return OTHER


def _frames(frame) -> Iterator[Tuple[str, str]]:
    while frame is not None:
        code = frame.f_code
        yield code.co_filename, code.co_name
        frame = frame.f_back


#: Innermost frames of a thread that is blocked: on a lock or condition,
#: a queue, a socket, or the event loop's ``select``.
_WAITS = {
    ("threading.py", "wait"),
    ("threading.py", "_wait_for_tstate_lock"),
    ("queue.py", "get"),
    ("thread.py", "_worker"),
    ("selectors.py", "select"),
    ("socket.py", "readinto"),
    ("socket.py", "accept"),
}


class Sampler:
    """CPU seconds per layer, from periodic samples of every thread.

    Each sample charges a thread's CPU time since its previous sample
    (its own CPU clock, so waiting costs nothing) to :func:`stack_layer`
    of its current stack.  A thread found blocked (:data:`_WAITS`) spent
    that time on the work it did before it blocked, so it is charged to
    the layer of the thread's last sample that found it running; the
    daemon's threads and the serve clients work in bursts of a few
    milliseconds and are mostly found blocked.  Sampling needs the
    interpreter lock, so the sampler shortens the switch interval while
    it runs to take samples inside such bursts too.
    """

    SWITCH_INTERVAL_S = 0.0005

    def __init__(self, repro_dir: str, interval_s: float = 0.001) -> None:
        self.repro_dir = repro_dir
        self.interval_s = interval_s
        self.seconds: Counter = Counter()
        self._cpu: Dict[int, float] = {}
        self._busy: Dict[int, str] = {}
        self._switch_interval = sys.getswitchinterval()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-sampler", daemon=True)

    @staticmethod
    def _cpu_time(ident: int) -> float:
        return time.clock_gettime(time.pthread_getcpuclockid(ident))

    def _sample(self, skip: int) -> None:
        for ident, frame in sys._current_frames().items():
            if ident == skip:
                continue
            try:
                cpu = self._cpu_time(ident)
            except OSError:
                continue
            # A thread seen for the first time started after the
            # sampler: all of its CPU time is new.
            used = cpu - self._cpu.get(ident, 0.0)
            self._cpu[ident] = cpu
            code = frame.f_code
            if (os.path.basename(code.co_filename), code.co_name) in _WAITS:
                layer = self._busy.get(ident, OTHER)
            else:
                layer = self._busy[ident] = stack_layer(_frames(frame), self.repro_dir)
            if used > 0.0:
                self.seconds[layer] += used

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample(me)
        self._sample(me)

    def __enter__(self) -> "Sampler":
        for ident in sys._current_frames():
            self._cpu[ident] = self._cpu_time(ident)
        sys.setswitchinterval(self.SWITCH_INTERVAL_S)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)


def _model_classes():
    from repro.models.bus import BusModel
    from repro.models.ring_directory import DirectoryRingModel
    from repro.models.ring_linkedlist import LinkedListRingModel
    from repro.models.ring_snooping import SnoopingRingModel

    return (SnoopingRingModel, DirectoryRingModel, LinkedListRingModel, BusModel)


class Tracer:
    """Spans and counters at the layer boundaries, and CPU time per layer.

    Entering patches the boundary calls and starts a :class:`Sampler`;
    leaving restores them.  Counters are read from what the wrapped calls
    return and from the program's own counter tables
    (``cache_counters()``, ``SOLVER_STATS``, ``GRID_STATS``,
    ``last_kernel_counters()``).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``(id, parent, name, start_ns, end_ns, thread)`` per call.
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._sampler: Optional[Sampler] = None
        self._tables_before: Dict[str, Dict[str, int]] = {}
        #: CPU seconds per layer, once the tracer has been left.
        self.self_s: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident())
                )

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: "str | Callable[..., str]",
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``;
        ``after(result, *args, **kwargs)`` reads counters off a call."""
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def add(self, counts: Dict[str, float]) -> None:
        with self._lock:
            self.counts.update(counts)

    # ------------------------------------------------------------------
    def _install(self) -> None:
        import repro.analysis
        import repro.check.explorer
        import repro.core.experiment
        import repro.models.grid
        from repro.core.store import ResultStore
        from repro.serve.client import ServeClient

        self.wrap(
            repro.core.experiment,
            "run_simulation",
            "core.experiment.run_simulation",
            after=self._after_simulation,
        )
        self.wrap(
            ResultStore,
            "get",
            "core.store.get",
            after=lambda result, *args, **kwargs: self.add(
                {"store.gets": 1, "store.hits": result is not None}
            ),
        )
        store_put = ResultStore.put

        def put(store, *args, **kwargs):
            # lost_writes is the store's running total; count this call's.
            lost = store.lost_writes
            with self.span("core.store.put"):
                store_put(store, *args, **kwargs)
            self.add({"store.puts": 1, "store.lost_writes": store.lost_writes - lost})

        self._patches.append((ResultStore, "put", store_put))
        ResultStore.put = put
        for model in _model_classes():
            self.wrap(model, "sweep", "models.sweep")
            self.wrap(model, "solve", "models.solve")
        self.wrap(repro.models.grid, "solve_grid", "models.grid.solve_grid")
        self.wrap(
            repro.check.explorer,
            "explore",
            lambda protocol, *args, **kwargs: f"check.explore.{protocol}",
            after=self._after_explore,
        )
        for call in ("submit", "wait", "result"):
            self.wrap(ServeClient, call, f"serve.client.{call}")
        for renderer in ("render_table", "render_sweeps", "series_summary"):
            self.wrap(repro.analysis, renderer, "analysis.render")

    def _after_simulation(self, result, *args, **kwargs) -> None:
        from repro.core.config import Protocol
        from repro.core.experiment import last_kernel_counters

        kernel = last_kernel_counters()
        trace = result.trace
        counts = {
            "traces.refs": trace.data_refs,
            "sim.events": kernel.get("events_processed", 0),
            "sim.relay_hops": kernel.get("relay_hops", 0),
            "sim.cancelled_wakes": kernel.get("cancelled_wakes", 0),
            "memory.refs": trace.data_refs,
            "memory.misses": trace.total_miss_rate_percent * trace.data_refs / 100.0,
            "proc.instructions": result.instructions,
            "proc.util_sum": result.processor_utilization,
            "proc.runs": 1,
        }
        if result.config.protocol is not Protocol.BUS:
            clock_ns = result.config.ring.clock_ps / 1000.0
            waits = result.telemetry.slot_wait.values() if result.telemetry else ()
            counts.update(
                {
                    "ring.util_sum": result.network_utilization,
                    "ring.runs": 1,
                    "ring.wait_ns": sum(h.total for h in waits) * clock_ns,
                    "ring.grants": sum(h.count for h in waits),
                }
            )
        self.add(counts)

    def _after_explore(self, report, *args, **kwargs) -> None:
        counters = report.counters()
        self.add(
            {
                "check.states": counters["states"],
                "check.steps": counters["steps_applied"],
                "check.canonicalized": counters["states_canonicalized"],
            }
        )

    @staticmethod
    def _tables() -> Dict[str, Dict[str, int]]:
        from repro.core.experiment import cache_counters
        from repro.models.base import SOLVER_STATS
        from repro.models.grid import GRID_STATS

        return {
            "memo": cache_counters(),
            "solver": dict(SOLVER_STATS),
            "grid": dict(GRID_STATS),
        }

    def __enter__(self) -> "Tracer":
        import repro

        self._install()
        self._tables_before = self._tables()
        self._sampler = Sampler(os.path.dirname(repro.__file__) + os.sep)
        self._sampler.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._sampler.__exit__(*exc_info)
        self.self_s = dict(self._sampler.seconds)
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        for table, after in self._tables().items():
            before = self._tables_before[table]
            self.add({f"{table}.{key}": after[key] - before[key] for key in after})

    # ------------------------------------------------------------------
    def durations(self) -> Dict[str, List[float]]:
        """Seconds per call, by span name."""
        out: Dict[str, List[float]] = defaultdict(list)
        for _id, _parent, name, start, end, _thread in self.spans:
            out[name].append((end - start) / 1e9)
        return out

    def write(self, prefix: pathlib.Path) -> None:
        """Spans as ``PREFIX.spans.jsonl``; counters, span durations and
        CPU seconds per layer as ``PREFIX.trace.json``."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{prefix}.spans.jsonl", "w") as handle:
            for span_id, parent, name, start, end, thread in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
        payload = {
            "counts": dict(self.counts),
            "durations": self.durations(),
            "self_s": self.self_s,
        }
        pathlib.Path(f"{prefix}.trace.json").write_text(json.dumps(payload))


def main(argv: List[str]) -> int:
    """``tracing.py PREFIX REPRO-ARGS...``: run the CLI under a tracer."""
    from repro.cli import main as repro_main

    prefix = pathlib.Path(argv[0])
    tracer = Tracer(run_id=prefix.name)
    with tracer:
        code = repro_main(argv[1:])
    tracer.write(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
