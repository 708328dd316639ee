"""The four benchmark workloads.

Each workload repeats identical *rounds* until the run's time is up.
A round times the operations of two paths, a slow one and a fast one
(see README.md for why these four):

========  ===========================  ===============================
workload  slow path                    fast path
========  ===========================  ===============================
paper     cold pass: every artefact    warm pass: the same artefacts
          from an empty result store   from the filled store
design    scalar solves of a seeded    the full products on the
          sample of the design spaces  vectorized grid (both per
                                       1,000 points)
check     exhaustive 2p/2l search of   exhaustive 2p/1l search of the
          the five protocols           five protocols
serve     a simulation job the daemon  a sweep job answered from its
          has never seen, sent alone   cache
========  ===========================  ===============================

Every timed operation belongs to an *item* -- one artefact, one design
space, one protocol's search -- and the items of a round are the same
in every round, so one pass over a path's items has a mean time (see
:meth:`Workload.path_ms`).  A round's work depends only on the seed and
the round's index, so a traced run can replay exactly the rounds an
untraced run timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent

#: Seed whose paper artefacts are pinned by digest in ``baseline.json``.
DIGEST_SEED = 1993

#: The workload process's CPU, and the serve daemon's: another one where
#: the host has two or more.  Read at import, before ``run.py`` pins the
#: workload process.
BENCH_CPU = max(os.sched_getaffinity(0))
DAEMON_CPU = min(os.sched_getaffinity(0))


def _calibration_loop() -> int:
    """Fixed pure-Python work in the simulator's style: heap events and
    dict traffic.  It calls nothing in ``repro``, so no change to the
    program can move its time; only the host can.  It allocates no
    object the garbage collector tracks (events are packed into ints),
    so its time does not depend on how much the workload keeps alive."""
    heap: List[int] = []
    state: Dict[int, int] = {}
    total = 0
    for i in range(2_500):
        heapq.heappush(heap, (i * 7_919) % 1_009 << 12 | i)
        state[i % 61] = state.get(i % 61, 0) + i
    while heap:
        event = heapq.heappop(heap)
        total += (event >> 12) ^ state[(event & 4_095) % 61]
    return total


#: The calibration time that time metrics are scaled to: about the mean
#: time of :func:`_calibration_loop` on the host the baseline in
#: ``baseline.json`` was measured on (2-vCPU Xeon container, Python 3.11)
#: in its quiet spells.
REFERENCE_CALIBRATION_S = 0.002
#: Share of a run's timed window spent calibrating.
CALIBRATION_SHARE = 0.1


def _import_seconds(modules: str) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {modules}"], check=True)
    return time.perf_counter() - start


class Workload:
    """Setup, rounds and output checks of one workload.

    Subclasses add to :attr:`samples` (``path -> item -> reference
    seconds`` of every timed operation, usually through :meth:`timed`;
    ``serve`` also keeps each job's host seconds under ``latency``),
    count
    :attr:`attempted` and :attr:`failed` operations, and append a message
    to :attr:`errors` for every wrong output.
    """

    name = ""
    #: What a fresh process must import before the workload can start.
    imports = "repro"

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        #: Per-layer values only the workload can see.
        self.values: Dict[str, float] = {}
        #: Seconds of every :func:`_calibration_loop` run so far.
        self.calibration: List[float] = []
        self._clock_start: Optional[float] = None
        #: Reference seconds so far, loops before, and start of the
        #: current segment of the operation :meth:`timed` is timing.
        self._segment: Optional[list] = None

    def setup(self) -> float:
        """Prepare the timed part; returns its wall time."""
        return _import_seconds(self.imports)

    def start_phase(self, trace_prefix: Optional[pathlib.Path]) -> None:
        """Called before a series of rounds (traced when a prefix is given)."""

    def end_phase(self) -> None:
        """Called after a series of rounds."""

    def round(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Output checks that run after the timed window."""

    def close(self) -> None:
        """Stop everything the workload started."""

    def peak_rss_kb(self) -> int:
        """Peak RSS of processes the workload started, KiB."""
        return 0

    def calibrate(self) -> List[float]:
        """Run the calibration loop once, then on until it has taken
        :data:`CALIBRATION_SHARE` of the time since the first call;
        returns the seconds of each loop run."""
        now = time.perf_counter()
        if self._clock_start is None:
            self._clock_start = now
        batch: List[float] = []
        while not batch or sum(self.calibration) < CALIBRATION_SHARE * (now - self._clock_start):
            start = time.perf_counter()
            _calibration_loop()
            now = time.perf_counter()
            batch.append(now - start)
            self.calibration.append(now - start)
        return batch

    @staticmethod
    def scaled(seconds: float, loops: List[float]) -> float:
        """``seconds`` of host time as reference seconds, given the
        calibration loops run just before and just after them.

        Other tenants of a shared host slow work down, up to about 1.7
        times, for a fraction of a second to a few seconds at a time;
        CPU time is slowed as much as wall time.  The loops that
        bracket an operation ran in the same spell as it did, so they
        have been slowed down as much; this takes that slow-down out.
        """
        return seconds * REFERENCE_CALIBRATION_S * len(loops) / sum(loops)

    @contextlib.contextmanager
    def timed(self, path: str, item: str):
        """Time one operation of ``path``, bracketed by calibration.

        A :meth:`checkpoint` inside the operation splits it into
        segments, each scaled by the loops just around it."""
        self._segment = [0.0, self.calibrate(), time.perf_counter()]
        yield
        self.checkpoint()
        self.samples[path][item].append(self._segment[0])
        self._segment = None

    def checkpoint(self) -> None:
        """Inside :meth:`timed`: end the current segment, calibrate, and
        start the next; the calibration is not part of the operation."""
        if self._segment is None:
            return
        seconds = time.perf_counter() - self._segment[2]
        after = self.calibrate()
        self._segment[0] += self.scaled(seconds, self._segment[1] + after)
        self._segment[1:] = [after, time.perf_counter()]

    def time_scale(self) -> float:
        """Reference seconds per host second over the whole run so far."""
        return REFERENCE_CALIBRATION_S * len(self.calibration) / sum(self.calibration)

    def path_ms(self, path: str) -> float:
        """Reference milliseconds of one pass over ``path``: the sum over
        its items of each item's mean time."""
        return 1000.0 * sum(sum(times) / len(times) for times in self.samples[path].values())

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


# ----------------------------------------------------------------------
class PaperWorkload(Workload):
    """Tables 1-4, Figures 3-6 and the model validation, cold then warm.

    Round 0 reproduces the paper at the run's seed, and every later round
    at a seed derived from it, as a replication would.  A cold pass takes
    over ten seconds, so a run holds two; the warm passes are short, so
    each round times several.  Each path's items are the nine artefacts.
    A cold artefact runs for seconds, longer than the host keeps one
    speed, so its time is split at every simulation it runs, and each
    piece is scaled by the calibration loops around it.
    """

    name = "paper"
    imports = "repro.core.hybrid, repro.analysis, repro.models.matching"
    #: Warm passes per cold pass.
    WARM_PASSES = 4

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        super().__init__(seed, scratch)
        self.expected_digest = json.loads(
            (BENCH_DIR / "baseline.json").read_text()
        )["paper_sha256_seed1993"]
        self._first_cold: Optional[List[str]] = None

    def _pass(self, paper, path: str) -> List[str]:
        """Build every artefact once, each timed as an item of ``path``."""
        texts = []
        for artefact, build in paper.builders().items():
            self.attempted += 1
            with self.timed(path, artefact):
                try:
                    texts.append(build())
                except Exception as error:  # one artefact failing is a result
                    self.fail(f"{artefact}: {type(error).__name__}: {error}")
                    texts.append("")
        return texts

    @contextlib.contextmanager
    def _checkpoint_around_simulations(self):
        """:meth:`checkpoint` before and after every ``run_simulation``."""
        import repro.core.experiment as experiment

        simulate = experiment.run_simulation

        def run_simulation(*args, **kwargs):
            self.checkpoint()
            try:
                return simulate(*args, **kwargs)
            finally:
                self.checkpoint()

        experiment.run_simulation = run_simulation
        try:
            yield
        finally:
            experiment.run_simulation = simulate

    def round(self, index: int) -> None:
        from artefacts import Paper
        from repro.core.experiment import clear_simulation_cache
        from repro.core.parallel import derive_seed
        from repro.core.store import temp_result_store

        paper = Paper(self.seed if index == 0 else derive_seed(self.seed, index))
        with temp_result_store():
            clear_simulation_cache(disk=False)
            with self._checkpoint_around_simulations():
                cold = self._pass(paper, "slow")
            for _ in range(self.WARM_PASSES):
                clear_simulation_cache(disk=False)
                if self._pass(paper, "fast") != cold:
                    self.errors.append(f"round {index}: a warm pass differs from its cold pass")
            clear_simulation_cache(disk=False)
        if index == 0:
            self._first_cold = cold
            self.values["models.lat_err_pct"] = paper.worst_latency_error_pct

    def finish(self) -> None:
        if self.seed != DIGEST_SEED or self._first_cold is None:
            return
        digest = hashlib.sha256("\n\n".join(self._first_cold).encode()).hexdigest()
        if digest != self.expected_digest:
            self.errors.append(
                f"paper artefacts at seed {DIGEST_SEED} hash to {digest}, "
                f"expected {self.expected_digest}"
            )


# ----------------------------------------------------------------------
CYCLES_NS = [float(cycle) for cycle in range(1, 21)]
RING_AXES = {
    "ring_clock_ps": list(range(1_000, 6_000, 500)),
    "memory_access_ps": list(range(40_000, 290_000, 10_000)),
    "ring_width_bits": [16, 32, 64],
}
BUS_AXES = {
    "bus_clock_ps": list(range(5_000, 55_000, 5_000)),
    "memory_access_ps": list(range(40_000, 290_000, 10_000)),
    "cache_response_ps": [70_000, 140_000, 210_000],
}


class DesignWorkload(Workload):
    """Design-space exploration on the analytical models.

    Setup extracts six input sets (three SPLASH benchmarks under
    snooping and directory at 16 processors).  Each snooping set drives
    the snooping-ring and bus families, each directory set the
    directory and linked-list families: twelve design spaces of 750
    configurations by 20 processor cycles.  The seed draws which
    configurations the scalar solver samples; every round solves the
    same ones.  Each path's items are the twelve spaces.
    """

    name = "design"
    imports = "repro.core.hybrid, repro.models.grid, numpy"
    PROCESSORS = 16
    DATA_REFS = 1_000
    #: Scalar-solved configurations per design space per round.
    SAMPLE = 20
    TOLERANCE = 1e-9

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        super().__init__(seed, scratch)
        self.spaces: list = []
        self.picks: List[List[int]] = []

    def setup(self) -> float:
        from repro.core.config import Protocol, SystemConfig
        from repro.core.experiment import clear_simulation_cache, run_simulation_cached
        from repro.core.hybrid import extraction_point
        from repro.core.store import temp_result_store

        seconds = super().setup()
        start = time.perf_counter()
        spaces = []
        with temp_result_store():
            clear_simulation_cache(disk=False)
            for name in ("mp3d", "water", "cholesky"):
                for extraction, families in (
                    (Protocol.SNOOPING, (Protocol.SNOOPING, Protocol.BUS)),
                    (Protocol.DIRECTORY, (Protocol.DIRECTORY, Protocol.LINKED_LIST)),
                ):
                    point = extraction_point(
                        name,
                        self.PROCESSORS,
                        extraction,
                        config=SystemConfig(num_processors=self.PROCESSORS, seed=self.seed),
                        data_refs=self.DATA_REFS,
                    )
                    result = run_simulation_cached(
                        name,
                        self.PROCESSORS,
                        point.protocol,
                        data_refs=point.data_refs,
                        config=point.config,
                    )
                    for family in families:
                        axes = BUS_AXES if family is Protocol.BUS else RING_AXES
                        base = SystemConfig(
                            num_processors=self.PROCESSORS, protocol=family, seed=self.seed
                        )
                        combos = list(itertools.product(*axes.values()))
                        spaces.append((f"{name}.{family.value}", result, base, axes, combos))
            clear_simulation_cache(disk=False)
        self.spaces = spaces
        rng = random.Random(self.seed)
        self.picks = [
            sorted(rng.sample(range(len(combos)), self.SAMPLE))
            for *_rest, combos in self.spaces
        ]
        return seconds + time.perf_counter() - start

    def round(self, index: int) -> None:
        from repro.core.hybrid import model_for
        from repro.core.sensitivity import apply_parameter
        from repro.models import grid
        from repro.models.base import FixedPointDiverged

        scalar = []
        for (label, result, base, axes, combos), chosen in zip(self.spaces, self.picks):
            with self.timed("slow", label):
                for position in chosen:
                    config = base
                    for parameter, value in zip(axes, combos[position]):
                        config = apply_parameter(config, parameter, value)
                    try:
                        scalar.append(model_for(config, result).sweep(CYCLES_NS))
                    except FixedPointDiverged as error:
                        self.fail(f"{label} config {position}: scalar sweep diverged: {error}")
                        scalar.append(None)
        self.attempted += len(scalar) * len(CYCLES_NS)

        solutions = []
        for label, result, base, axes, _combos in self.spaces:
            with self.timed("fast", label):
                product = grid.ModelGrid.from_product(
                    grid.family_for_protocol(base.protocol),
                    base,
                    result.inputs,
                    cycles_ns=CYCLES_NS,
                    parameters=axes,
                )
                solutions.append(grid.solve_grid(product))
        self.attempted += sum(solution.size for solution in solutions)
        self.failed += sum(solution.n_failed for solution in solutions)
        if index == 0:
            self._compare(scalar, solutions)

    def path_ms(self, path: str) -> float:
        """Milliseconds per 1,000 solved points."""
        configurations = self.SAMPLE if path == "slow" else len(self.spaces[0][-1])
        points = len(CYCLES_NS) * configurations * len(self.spaces)
        return super().path_ms(path) * 1000.0 / points

    def _compare(self, scalar, solutions) -> None:
        """Every scalar point must equal its grid lane to 1e-9."""
        sweeps = iter(scalar)
        for chosen, solution in zip(self.picks, solutions):
            for position in chosen:
                sweep = next(sweeps)
                if sweep is None:
                    continue
                for offset, point in enumerate(sweep.points):
                    lane = solution.operating_point(position * len(CYCLES_NS) + offset)
                    for field in (
                        "processor_utilization",
                        "network_utilization",
                        "shared_miss_latency_ns",
                        "upgrade_latency_ns",
                        "time_per_instruction_ps",
                    ):
                        a, b = getattr(point, field), getattr(lane, field)
                        if not abs(a - b) <= self.TOLERANCE * max(1.0, abs(b)):
                            self.errors.append(
                                f"{sweep.label} config {position} cycle {point.processor_cycle_ns}: "
                                f"scalar {field} {a!r} != grid {b!r}"
                            )
                            return


# ----------------------------------------------------------------------
#: Canonical states and transitions of each exhaustive search, by
#: ``(processors, lines)`` and protocol.
CHECK_EXPECTED = {
    (2, 2): {
        "snooping": (13, 312),
        "directory": (13, 312),
        "linkedlist": (16, 384),
        "bus": (13, 312),
        "hierarchical": (13, 312),
    },
    (2, 1): {
        "snooping": (4, 32),
        "directory": (4, 32),
        "linkedlist": (4, 32),
        "bus": (4, 32),
        "hierarchical": (4, 32),
    },
}


class CheckWorkload(Workload):
    """Exhaustive exploration of all five protocols, at 2 processors
    by 2 lines (the slow path) and 2 by 1 (the fast path, mostly
    per-search set-up).  Each path's items are the five protocols.  The
    search is exhaustive, so the seed plays no part."""

    name = "check"
    imports = "repro.check.explorer"

    def round(self, index: int) -> None:
        from repro.check import explorer

        for path, size in (("slow", (2, 2)), ("fast", (2, 1))):
            for protocol, (states, steps) in CHECK_EXPECTED[size].items():
                self.attempted += 1
                with self.timed(path, protocol):
                    report = explorer.explore(protocol, *size, max_depth=64, max_states=100_000)
                found = (report.outcome, report.states, report.steps_applied)
                if found != ("exhaustive", states, steps):
                    self.fail(
                        f"{protocol} {size}: {found} != ('exhaustive', {states}, {steps}): "
                        f"{report.summary()}"
                    )


# ----------------------------------------------------------------------
#: Served sweeps: benchmark x processors x protocol x references.
SERVE_CATALOGUE = [
    {
        "kind": "sweep",
        "benchmark": benchmark,
        "processors": processors,
        "protocol": protocol,
        "data_refs": refs,
    }
    for benchmark in ("mp3d", "water", "cholesky")
    for processors in (4, 8)
    for protocol in ("snooping", "directory")
    for refs in (1_000, 2_000)
]


def _key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


class ServeWorkload(Workload):
    """``repro serve`` under a closed loop of two clients.

    Each client sends its next job only once the previous one's result
    is back.  A round starts with cold probes, the slow path: simulation
    jobs whose trace seed no earlier job used, so the daemon must
    simulate each and write the result to its store.  The seed then
    draws the round's other jobs from :data:`SERVE_CATALOGUE` with Zipf
    weights (the k-th entry has weight 1/k), so most are repeats the
    daemon answers from its cache -- the fast path -- and a few are
    first sightings it must simulate, which count for neither path.
    """

    name = "serve"
    CLIENTS = 2
    #: One probe's time varies by a quarter from the next, so a round
    #: times several.
    PROBES_PER_ROUND = 3
    JOBS_PER_ROUND = 100
    #: Cached jobs sent between two calibrations: about 0.3 s of them,
    #: short enough that the host rarely changes speed in between.
    BATCH = 25
    #: The daemon keeps every job's record, so its memory grows with the
    #: jobs served; its peak is read after this many rounds, a fixed
    #: number of jobs, rather than after however many a run fits in.
    RSS_ROUNDS = 5

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        super().__init__(seed, scratch)
        self._weights = [1.0 / rank for rank in range(1, len(SERVE_CATALOGUE) + 1)]
        self._rng = random.Random(seed)
        self._plan: List[List[dict]] = []
        self._daemons = 0
        self._process: Optional[subprocess.Popen] = None
        self._client = None
        self._lock = threading.Lock()
        #: First answer per distinct job, and its digest, which every
        #: later answer to the same job must match.
        self._payloads: Dict[str, dict] = {}
        self._digests: Dict[str, str] = {}
        self._executions: Dict[str, tuple] = {}
        self._daemon_rss_kb = 0

    # ------------------------------------------------------------------
    def _start_daemon(self, trace_prefix: Optional[pathlib.Path] = None) -> None:
        from repro.serve.client import ServeClient

        self._daemons += 1
        cache = self.scratch / f"serve-{self._daemons}"
        cache.mkdir(parents=True)
        command = ["serve", "--port", "0", "--jobs", "1", "--cache-dir", str(cache)]
        if trace_prefix is None:
            argv = [sys.executable, "-m", "repro", *command]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_prefix), *command]
        log_path = cache / "daemon.log"
        with open(log_path, "w") as log:
            self._process = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)
        # The daemon gets a CPU of its own rather than sharing the load
        # generator's; its pool workers, started later, inherit it.
        os.sched_setaffinity(self._process.pid, {DAEMON_CPU})
        deadline = time.perf_counter() + 60.0
        while True:
            text = log_path.read_text()
            if "listening on " in text:
                url = text.split("listening on ", 1)[1].split()[0]
                break
            if self._process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"repro serve did not start:\n{text}")
            time.sleep(0.005)
        self._client = ServeClient(url, timeout=120.0)
        self._client.health()

    def calibrate(self) -> List[float]:
        """The loops on the workload's CPU, then as many on the daemon's:
        a job's time is spent on both, and the host slows each CPU down
        at its own times."""
        loops = super().calibrate()
        if DAEMON_CPU == BENCH_CPU:
            return loops
        os.sched_setaffinity(0, {DAEMON_CPU})
        try:
            for _ in range(len(loops)):
                start = time.perf_counter()
                _calibration_loop()
                loops.append(time.perf_counter() - start)
                self.calibration.append(loops[-1])
        finally:
            os.sched_setaffinity(0, {BENCH_CPU})
        return loops

    def _daemon_peak_kb(self) -> int:
        status = pathlib.Path(f"/proc/{self._process.pid}/status")
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def _stop_daemon(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        try:
            self._client.shutdown()
            process.wait(timeout=60)
        except Exception:
            process.kill()
            process.wait()
            raise

    def setup(self) -> float:
        self._stop_daemon()
        start = time.perf_counter()
        self._start_daemon()
        return time.perf_counter() - start

    def start_phase(self, trace_prefix: Optional[pathlib.Path]) -> None:
        if trace_prefix is not None:
            self._stop_daemon()
            self._start_daemon(trace_prefix)
        self._executions.clear()

    def end_phase(self) -> None:
        if not self._daemon_rss_kb:
            self._daemon_rss_kb = self._daemon_peak_kb()
        stats = self._client.stats()
        self.values.update(
            {
                "serve.executions": stats["executions_started"],
                "serve.coalesced": stats["coalesced"],
                "serve.simulated": sum(simulated for simulated, _ in self._executions.values()),
                "serve.cache_hits": sum(hits for _, hits in self._executions.values()),
            }
        )

    # ------------------------------------------------------------------
    def _probe(self, index: int, number: int) -> dict:
        """Round ``index``'s cold probe ``number``: its trace seed is new."""
        return {
            "kind": "simulate",
            "benchmark": "mp3d",
            "processors": 8,
            "protocol": "snooping",
            "data_refs": 1_000,
            "seed": self.seed * 10_000 + index * self.PROBES_PER_ROUND + number,
        }

    def round(self, index: int) -> None:
        while len(self._plan) <= index:
            self._plan.append(
                self._rng.choices(SERVE_CATALOGUE, self._weights, k=self.JOBS_PER_ROUND)
            )
        # Each probe goes alone, so it times the daemon's cold path rather
        # than how it interleaves with the other client.  The clients
        # time their own jobs; calibrate between batches, while nothing
        # else runs, and scale each batch by the loops around it.
        plan = self._plan[index]
        batches = [([self._probe(index, number)], 1) for number in range(self.PROBES_PER_ROUND)]
        batches += [
            (plan[start : start + self.BATCH], self.CLIENTS)
            for start in range(0, len(plan), self.BATCH)
        ]
        before = self.calibrate()
        for specs, clients in batches:
            timings = self._serve(specs, clients)
            after = self.calibrate()
            for path, item, seconds in timings:
                self.samples[path][item].append(self.scaled(seconds, before + after))
            before = after
        if index + 1 == self.RSS_ROUNDS:
            self._daemon_rss_kb = self._daemon_peak_kb()

    def _serve(self, specs: List[dict], clients: int) -> List[tuple]:
        """Send ``specs`` from ``clients`` closed-loop client threads;
        returns ``(path, item, host seconds)`` of each job on a path."""
        pending = iter(specs)
        timings: List[tuple] = []
        threads = [
            threading.Thread(target=self._client_loop, args=(pending, timings))
            for _ in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return timings

    def _client_loop(self, pending, timings: List[tuple]) -> None:
        client = self._client
        while True:
            with self._lock:
                spec = next(pending, None)
            if spec is None:
                return
            key = _key(spec)
            start = time.perf_counter()
            try:
                job = client.submit(spec)["job"]
                record = client.wait(job)
                payload = client.result(job) if record["state"] == "done" else None
            except Exception as error:  # a failed request is a failed job
                with self._lock:
                    self.attempted += 1
                    self.fail(f"job {key}: {type(error).__name__}: {error}")
                continue
            seconds = time.perf_counter() - start
            digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
            with self._lock:
                self.attempted += 1
                if payload is None:
                    self.fail(f"job {job} {key} ended {record['state']}: {record['error']}")
                    continue
                self.samples["latency"]["job"].append(seconds)
                if spec["kind"] == "simulate":
                    timings.append(("slow", "probe", seconds))
                elif not record["simulated"]:
                    timings.append(("fast", "cached", seconds))
                self._executions[record["execution"]] = (record["simulated"], record["cache_hits"])
                self._payloads.setdefault(key, payload)
                if self._digests.setdefault(key, digest) != digest:
                    self.errors.append(f"job {job}: {key} answered differently")

    def finish(self) -> None:
        """Every distinct answer must equal the same work done in-process."""
        from repro.core.config import Protocol
        from repro.core.experiment import clear_simulation_cache
        from repro.core.hybrid import hybrid_sweep
        from repro.core.parallel import SweepPoint, execute_points
        from repro.core.store import temp_result_store
        from repro.serve.protocol import simulate_payload, sweep_payload

        with temp_result_store():
            clear_simulation_cache(disk=False)
            for key, payload in sorted(self._payloads.items()):
                spec = json.loads(key)
                protocol = Protocol(spec["protocol"])
                if spec["kind"] == "simulate":
                    point = SweepPoint(
                        spec["benchmark"],
                        spec["processors"],
                        protocol,
                        spec["data_refs"],
                        seed=spec["seed"],
                    )
                    expected = simulate_payload(execute_points([point]).results[0])
                else:
                    expected = sweep_payload(
                        hybrid_sweep(
                            spec["benchmark"],
                            spec["processors"],
                            protocol,
                            data_refs=spec["data_refs"],
                        )
                    )
                if payload != json.loads(json.dumps(expected)):
                    self.errors.append(f"{key}: daemon result != the same work in-process")
            clear_simulation_cache(disk=False)

    def close(self) -> None:
        self._stop_daemon()

    def peak_rss_kb(self) -> int:
        return self._daemon_rss_kb


WORKLOADS = {
    workload.name: workload
    for workload in (PaperWorkload, DesignWorkload, CheckWorkload, ServeWorkload)
}
