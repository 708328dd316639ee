"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's layers:

* ``simulate``  -- one trace-driven simulation, headline metrics.
* ``sweep``     -- hybrid methodology curves for one configuration.
* ``compare``   -- snooping vs directory (Figure 3/4 style panels).
* ``ringbus``   -- ring vs bus (Figure 6 style panels).
* ``grid``      -- vectorized design surface.
* ``validate``  -- model-vs-simulation error report.
* ``snooprate`` -- the closed-form Table 3.
* ``benchmarks``-- list available workload configurations.
* ``check``     -- coherence model checker (``explore`` / ``fuzz``).
* ``spec``      -- guarded-action protocol specs: print, diff, verify.
* ``serve``     -- the sweep-as-a-service daemon (``repro.serve``).
* ``submit``    -- send a job to a running daemon and follow it.
* ``jobs``      -- list a daemon's jobs and coalescing counters.
* ``cancel``    -- detach one submission from its shared execution.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from repro.analysis.figures import render_sweeps
from repro.analysis.tables import render_table
from repro.core.config import (
    BusConfig,
    ProcessorConfig,
    Protocol,
    RingConfig,
    SystemConfig,
)
from repro.core.experiment import (
    DEFAULT_DATA_REFS,
    cache_counters,
    run_simulation,
)
from repro.core.hybrid import validate_model
from repro.core.sweep import figure3_panels, ring_vs_bus, snooping_vs_directory
from repro.models.snoop_rate import snoop_rate_table
from repro.traces.benchmarks import available_configurations

__all__ = ["main", "build_parser"]

_PROTOCOLS = {protocol.value: protocol for protocol in Protocol}

#: Where ``repro submit``/``jobs``/``cancel`` look for the daemon when
#: ``--url`` is omitted (the default ``repro serve`` port).
DEFAULT_SERVE_URL = "http://127.0.0.1:8787"


class _ParamAxis(argparse.Action):
    """``--param NAME VALUE...``: collects the axes into one
    ``{name: [int, ...]}`` dict; a malformed or repeated axis is a
    usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        name, *raw = values
        if not raw:
            parser.error(f"{option_string} {name}: needs at least one value")
        try:
            axis = [int(value) for value in raw]
        except ValueError:
            parser.error(f"{option_string} {name}: values must be integers")
        axes = dict(getattr(namespace, self.dest) or {})
        if name in axes:
            parser.error(f"{option_string} {name}: axis given more than once")
        axes[name] = axis
        setattr(namespace, self.dest, axes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cache-coherent slotted-ring multiprocessor study "
            "(Barroso & Dubois, ISCA 1993 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_workload_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("benchmark", help="workload name (see 'benchmarks')")
        sub.add_argument(
            "-p",
            "--processors",
            type=int,
            default=16,
            help="system size (default 16)",
        )
        sub.add_argument(
            "-r",
            "--refs",
            type=int,
            default=DEFAULT_DATA_REFS,
            help="data references per processor "
            f"(default {DEFAULT_DATA_REFS})",
        )
        sub.add_argument(
            "-j",
            "--jobs",
            type=int,
            default=1,
            help="worker processes for independent simulations "
            "(default 1 = serial; results are identical either way)",
        )
        sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persistent result-cache directory "
            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        sub.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the persistent on-disk result cache",
        )
        sub.set_defaults(usage_error=sub.error, check_workload=True)

    simulate = commands.add_parser(
        "simulate", help="run one trace-driven simulation"
    )
    add_workload_arguments(simulate)
    simulate.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOLS),
        default=Protocol.SNOOPING.value,
    )
    simulate.add_argument(
        "--mips",
        type=float,
        default=50.0,
        help="processor speed (default 50 MIPS, the paper's)",
    )
    simulate.add_argument(
        "--ring-mhz", type=float, default=500.0, help="ring clock"
    )
    simulate.add_argument(
        "--bus-mhz", type=float, default=50.0, help="bus clock"
    )
    simulate.add_argument(
        "--weak-ordering",
        action="store_true",
        help="overlap permission upgrades (paper section 6 extension)",
    )
    simulate.add_argument(
        "--clusters",
        type=int,
        default=4,
        help="local rings for --protocol hierarchical (default 4)",
    )
    simulate.add_argument(
        "--emit-trace",
        default=None,
        metavar="PATH",
        help="record a structured event trace and write it to PATH",
    )
    simulate.add_argument(
        "--trace-format",
        choices=("chrome", "jsonl"),
        default=None,
        help="trace file format: 'chrome' (trace_event JSON, loadable "
        "in Perfetto / chrome://tracing) or 'jsonl' (one event per "
        "line); default: jsonl when PATH ends in .jsonl, else chrome",
    )
    simulate.add_argument(
        "--histograms",
        action="store_true",
        help="print slot-occupancy / latency / queue-depth histograms",
    )
    simulate.add_argument(
        "--check-invariants",
        action="store_true",
        help="assert coherence invariants at every commit point "
        "(aborts at the first violation; see docs/CHECKING.md)",
    )

    sweep = commands.add_parser(
        "sweep", help="hybrid-methodology curves for one configuration"
    )
    add_workload_arguments(sweep)
    sweep.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOLS),
        default=Protocol.SNOOPING.value,
    )
    sweep.add_argument(
        "--check-invariants",
        action="store_true",
        help="run the extraction simulation under the coherence "
        "monitor (bypasses the result cache)",
    )

    compare = commands.add_parser(
        "compare", help="snooping vs directory panels (Figure 3/4 style)"
    )
    add_workload_arguments(compare)
    compare.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="render one panel per system size (e.g. --sizes 8 16 32 "
        "for a Figure 3 column); default: just --processors",
    )

    ringbus = commands.add_parser(
        "ringbus", help="ring vs bus panels (Figure 6 style)"
    )
    add_workload_arguments(ringbus)

    grid = commands.add_parser(
        "grid",
        help="vectorized design surface",
        description=(
            "Cross one or more machine-parameter axes with the "
            "processor-cycle sweep and solve the whole surface in one "
            "vectorized pass (repro.models.grid).  One trace "
            "extraction feeds every point; results match the scalar "
            "models bit for bit."
        ),
    )
    add_workload_arguments(grid)
    grid.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOLS),
        default=Protocol.SNOOPING.value,
    )
    grid.add_argument(
        "--param",
        action=_ParamAxis,
        nargs="+",
        default=None,
        metavar=("NAME", "VALUE"),
        help="a parameter axis: name (see repro.core.sensitivity."
        "SUPPORTED_PARAMETERS) followed by its values; repeatable "
        "(e.g. --param ring_clock_ps 2000 4000 --param block_size 32 64)",
    )
    grid.add_argument(
        "--cycles",
        type=float,
        nargs="+",
        default=None,
        metavar="NS",
        help="processor-cycle axis in ns (default: the paper's 1..20)",
    )
    grid.add_argument(
        "--metric",
        choices=(
            "processor_utilization",
            "network_utilization",
            "bank_utilization",
            "shared_miss_latency_ns",
            "upgrade_latency_ns",
            "time_per_instruction_ps",
        ),
        default="processor_utilization",
        help="surface to render (default processor_utilization)",
    )

    validate = commands.add_parser(
        "validate", help="model-vs-simulation error report"
    )
    add_workload_arguments(validate)
    validate.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOLS),
        default=Protocol.SNOOPING.value,
    )

    commands.add_parser("snooprate", help="print Table 3 (snooping rate)")
    commands.add_parser("benchmarks", help="list workload configurations")

    bench = commands.add_parser(
        "bench",
        help="perf microbenchmarks (kernel + model hot paths)",
        description=(
            "Time the simulation-kernel and analytical-model workloads "
            "and report deterministic work counters.  --check compares "
            "the counters against the committed BENCH_<suite>.json "
            "baselines and fails on regression; --baseline rewrites "
            "them.  See docs/PERFORMANCE.md."
        ),
    )
    bench.add_argument(
        "--suite",
        choices=["all", "kernel", "models", "check"],
        default="all",
        help="which suite to run (default all)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workloads (the committed baselines are quick-mode)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 2) on >tolerance regression vs the baselines",
    )
    bench.add_argument(
        "--baseline",
        action="store_true",
        help="write BENCH_<suite>.json baselines instead of checking",
    )
    bench.add_argument(
        "--baseline-dir",
        default=".",
        metavar="DIR",
        help="where baselines live (default: current directory)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRACTION",
        help="override the gate tolerance (default 0.20)",
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: suites, counters, timings and "
        "(with --check) the regression verdict as one JSON object",
    )

    check = commands.add_parser(
        "check",
        help="coherence model checker (exhaustive / randomized)",
        description=(
            "Check the coherence protocols against the invariant "
            "catalogue in docs/CHECKING.md.  'explore' enumerates every "
            "reachable quiescent state of a small configuration "
            "(symmetry-reduced, optionally parallel and resumable) and "
            "reports a minimal counterexample on failure; 'fuzz' runs "
            "seeded random walks over a larger one."
        ),
    )
    verbs = check.add_subparsers(dest="verb", required=True)

    def add_check_arguments(sub: argparse.ArgumentParser, verb: str) -> None:
        sub.set_defaults(usage_error=sub.error)
        sub.add_argument(
            "--protocol",
            choices=(
                "snooping",
                "directory",
                "linkedlist",
                "bus",
                "hierarchical",
            ),
            required=True,
        )
        sub.add_argument(
            "--nodes",
            type=int,
            default=2 if verb == "explore" else 8,
            help="system size (default %(default)s)",
        )
        sub.add_argument(
            "--lines",
            type=int,
            default=1 if verb == "explore" else 24,
            help="shared lines in play (default %(default)s)",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes (default 1: serial; results are "
            "bit-identical either way)",
        )

    explore = verbs.add_parser(
        "explore", help="exhaustive BFS over a tiny configuration"
    )
    add_check_arguments(explore, "explore")
    explore.add_argument(
        "--max-depth",
        type=int,
        default=12,
        help="step-script depth bound (default 12)",
    )
    explore.add_argument(
        "--max-states",
        type=int,
        default=20_000,
        help="visited-state bound (default 20000)",
    )
    explore.add_argument(
        "--no-races",
        action="store_true",
        help="single references only (skip two-node race steps)",
    )
    explore.add_argument(
        "--symmetry",
        choices=("full", "none"),
        default="full",
        help="canonicalization group: 'full' = processor/line "
        "relabeling (cluster-respecting on hierarchical), 'none' = "
        "raw state space (default full)",
    )
    explore.add_argument(
        "--expansion",
        choices=("engine", "spec", "spec-only"),
        default="engine",
        help="what expands frontier states: the live engine, the "
        "engine cross-checked step-by-step against the guarded-action "
        "spec ('spec': bit-identical to 'engine' when they agree; any "
        "mismatch is a spec-divergence counterexample), or the spec "
        "alone ('spec-only', requires --no-races) (default engine)",
    )
    explore.add_argument(
        "--require-exhaustive",
        action="store_true",
        help="exit 3 when the search was clean but truncated by "
        "max-depth/max-states (CI guard: a bounded pass is not a "
        "proof)",
    )
    explore.add_argument(
        "--counterexample",
        default=None,
        metavar="PATH",
        help="write a failing script as JSON to PATH",
    )
    explore.add_argument(
        "--emit-trace",
        default=None,
        metavar="PATH",
        help="replay a failing script under the tracer and write the "
        "event trace to PATH (jsonl)",
    )

    fuzz = verbs.add_parser(
        "fuzz", help="seeded random walk over a mid-size configuration"
    )
    add_check_arguments(fuzz, "fuzz")
    fuzz.add_argument(
        "--steps",
        type=int,
        default=10_000,
        help="walk length (default 10000)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=1, help="base seed (default 1)"
    )
    fuzz.add_argument(
        "--num-seeds",
        type=int,
        default=1,
        metavar="N",
        help="independent walks; walk i uses the seed derived from "
        "(--seed, i), so findings replay regardless of --jobs "
        "(default 1: a single walk with --seed itself)",
    )

    spec = commands.add_parser(
        "spec",
        help="guarded-action protocol specs: print, diff, verify",
        description=(
            "Work with the declarative guarded-action transition specs "
            "(repro.spec) that the model checker holds the engines to.  "
            "By default prints the spec table(s); --diff shows "
            "rule-level differences between two protocols; --verify "
            "validates the spec and runs a spec-checked exhaustive "
            "exploration that fails on any engine/spec divergence.  "
            "See docs/SPECS.md."
        ),
    )
    spec.add_argument(
        "--protocol",
        choices=(
            "snooping",
            "directory",
            "linkedlist",
            "bus",
            "hierarchical",
            "all",
        ),
        default="all",
        help="which spec to print or verify (default all)",
    )
    spec.add_argument(
        "--diff",
        default=None,
        metavar="OTHER",
        choices=(
            "snooping",
            "directory",
            "linkedlist",
            "bus",
            "hierarchical",
        ),
        help="print rule-level differences against OTHER's spec "
        "instead of the full table (needs a single --protocol)",
    )
    spec.add_argument(
        "--verify",
        action="store_true",
        help="validate the spec(s) and run a spec-checked exhaustive "
        "exploration (exit 1 on any engine/spec divergence)",
    )
    spec.add_argument(
        "--nodes",
        type=int,
        default=2,
        help="system size for the --verify exploration (default 2; "
        "hierarchical needs an even count)",
    )
    spec.add_argument(
        "--lines",
        type=int,
        default=1,
        help="shared lines for the --verify exploration (default 1)",
    )
    spec.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the --verify exploration "
        "(default 1: serial; results are bit-identical either way)",
    )
    spec.add_argument(
        "--no-races",
        action="store_true",
        help="single references only in the --verify exploration",
    )

    store = commands.add_parser(
        "store",
        help="inspect and maintain the persistent result store",
    )
    store_verbs = store.add_subparsers(dest="verb", required=True)
    cleanup = store_verbs.add_parser(
        "cleanup",
        help="delete temp files stranded by crashed writers",
        description=(
            "Sweep orphaned .tmp-*.json files out of the result store. "
            "Stores already sweep hour-old orphans every time they "
            "open; this command forces an immediate sweep."
        ),
    )
    cleanup.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-store directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cleanup.add_argument(
        "--min-age",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="only remove temp files older than this (default 0: all)",
    )
    info = store_verbs.add_parser(
        "info", help="show the store location and entry count"
    )
    info.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-store directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    info.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (one JSON object)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the sweep-as-a-service daemon",
        description=(
            "Start a long-lived HTTP/JSON daemon (repro.serve) that "
            "accepts sweep/simulate/check/grid jobs, coalesces "
            "identical in-flight submissions onto one execution, runs "
            "simulations on a shared worker pool backed by the "
            "persistent result store, and streams NDJSON progress.  "
            "See docs/SERVING.md."
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1: loopback only)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="bind port (default 8787; 0 picks a free port)",
    )
    serve.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes in the shared simulation pool "
        "(default 1: simulations run serially, in a thread)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent on-disk result cache",
    )

    def add_client_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url",
            default=DEFAULT_SERVE_URL,
            help=f"daemon endpoint (default {DEFAULT_SERVE_URL})",
        )
        sub.add_argument(
            "--json",
            action="store_true",
            help="machine-readable output (one JSON object)",
        )

    submit = commands.add_parser(
        "submit",
        help="submit a job to a running daemon and follow it",
        description=(
            "Send one job to 'repro serve' and (by default) stream its "
            "progress until it finishes, then print the result.  Omitted "
            "options take the daemon's defaults; the server validates "
            "everything."
        ),
    )
    add_client_arguments(submit)
    submit.add_argument(
        "kind",
        choices=("sweep", "simulate", "check", "grid"),
        help="job kind",
    )
    submit.add_argument(
        "benchmark",
        nargs="?",
        default=None,
        help="workload name (sweep/simulate/grid jobs)",
    )
    submit.add_argument("-p", "--processors", type=int, default=None)
    submit.add_argument("-r", "--refs", type=int, default=None)
    submit.add_argument(
        "--protocol",
        default=None,
        help="simulation protocol, or the checker's for 'check' jobs",
    )
    submit.add_argument(
        "--seed", type=int, default=None, help="config seed (simulate)"
    )
    submit.add_argument(
        "--cycles",
        type=float,
        nargs="+",
        default=None,
        metavar="NS",
        help="processor-cycle axis in ns (sweep/grid)",
    )
    submit.add_argument(
        "--param",
        action=_ParamAxis,
        nargs="+",
        default=None,
        metavar=("NAME", "VALUE"),
        help="a grid parameter axis: name followed by values; repeatable",
    )
    submit.add_argument("--nodes", type=int, default=None, help="(check)")
    submit.add_argument("--lines", type=int, default=None, help="(check)")
    submit.add_argument(
        "--max-depth", type=int, default=None, help="(check)"
    )
    submit.add_argument(
        "--max-states", type=int, default=None, help="(check)"
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without following",
    )

    jobs_cmd = commands.add_parser(
        "jobs", help="list a running daemon's jobs"
    )
    add_client_arguments(jobs_cmd)

    cancel = commands.add_parser(
        "cancel",
        help="cancel one submission on a running daemon",
        description=(
            "Detach one job from its execution.  A coalesced execution "
            "keeps running for its other subscribers; cancelling the "
            "last subscriber cancels the shared execution itself."
        ),
    )
    add_client_arguments(cancel)
    cancel.add_argument("job", help="job id (as printed by submit/jobs)")
    return parser


def _check_workload(args: argparse.Namespace) -> None:
    """Refuse, as a usage error naming the option, a trace length or a
    system size the simulator would refuse; the size's message is the
    one :class:`SystemConfig` gives."""
    if args.refs < 1:
        args.usage_error(f"-r/--refs: must be >= 1, got {args.refs}")
    option = "--sizes" if getattr(args, "sizes", None) else "-p/--processors"
    protocol = _PROTOCOLS[getattr(args, "protocol", Protocol.SNOOPING.value)]
    ring = RingConfig(clusters=getattr(args, "clusters", RingConfig.clusters))
    for processors in getattr(args, "sizes", None) or [args.processors]:
        try:
            SystemConfig(
                num_processors=processors, protocol=protocol, ring=ring
            )
        except ValueError as error:
            args.usage_error(f"{option}: {error}")


def _configure_execution(args: argparse.Namespace) -> None:
    """Apply --cache-dir / --no-cache to the process-wide store."""
    from repro.core.store import configure_result_store

    if args.command == "store":
        # Maintenance commands open the store themselves (without the
        # open-time sweep, which would skew their reported counts).
        return
    cache_dir = getattr(args, "cache_dir", None)
    no_cache = getattr(args, "no_cache", False)
    if cache_dir is not None or no_cache:
        configure_result_store(cache_dir, enabled=not no_cache)


def _progress_printer(args: argparse.Namespace):
    """A per-point progress callback writing to stderr (or None)."""
    if getattr(args, "jobs", 1) <= 1:
        return None

    def emit(done: int, total: int, outcome) -> None:
        point = outcome.point
        source = "cache hit" if outcome.cache_hit else "simulated"
        print(
            f"[{done}/{total}] {point.benchmark}@{point.num_processors}p "
            f"{point.protocol.value}: {source} in {outcome.wall_s:.2f}s",
            file=sys.stderr,
        )

    return emit


def _print_cache_summary(
    args: argparse.Namespace, before: dict, wall_s: float
) -> None:
    if getattr(args, "jobs", 1) > 1:
        # Worker activity is reported per point by the progress
        # callback; parent counters would only show cache lookups.
        print(f"done in {wall_s:.2f}s", file=sys.stderr)
        return
    after = cache_counters()
    hits = (
        after["memo_hits"]
        - before["memo_hits"]
        + after["disk_hits"]
        - before["disk_hits"]
    )
    misses = after["misses"] - before["misses"]
    print(
        f"done in {wall_s:.2f}s: {misses} simulated, {hits} cache hits",
        file=sys.stderr,
    )


def _period_ps(args: argparse.Namespace, option: str, rate: float) -> int:
    """The clock period in ps of a rate in MHz (or MIPS); a rate whose
    period is not a whole number of at least 1 ps is a usage error
    naming ``option``."""
    period = 1e6 / rate if rate > 0 else 0.0
    if not 0.5 < period < math.inf:
        args.usage_error(
            f"{option}: must be > 0 with a clock period of at least "
            f"1 ps, got {rate:g}"
        )
    return round(period)


def _system_config(args: argparse.Namespace) -> SystemConfig:
    # Built in one step: a hierarchical size is checked against the
    # cluster count given, not against the default one.
    return SystemConfig(
        num_processors=args.processors,
        protocol=_PROTOCOLS[args.protocol],
        ring=RingConfig(
            clock_ps=_period_ps(args, "--ring-mhz", args.ring_mhz),
            clusters=args.clusters,
        ),
        bus=BusConfig(clock_ps=_period_ps(args, "--bus-mhz", args.bus_mhz)),
        processor=ProcessorConfig(
            cycle_ps=_period_ps(args, "--mips", args.mips),
            weak_ordering=args.weak_ordering,
        ),
    )


def _command_simulate(args: argparse.Namespace) -> int:
    config = _system_config(args)
    tracer = None
    if args.emit_trace:
        from repro.obs import Tracer

        tracer = Tracer()
    monitor = None
    if args.check_invariants:
        from repro.check import InvariantMonitor

        monitor = InvariantMonitor()
    result = run_simulation(
        args.benchmark,
        config=config,
        data_refs=args.refs,
        num_processors=args.processors,
        tracer=tracer,
        monitor=monitor,
    )
    if monitor is not None:
        print(monitor.summary(), file=sys.stderr)
    if tracer is not None:
        trace_format = args.trace_format or (
            "jsonl" if args.emit_trace.endswith(".jsonl") else "chrome"
        )
        if trace_format == "jsonl":
            tracer.write_jsonl(args.emit_trace)
        else:
            tracer.write_chrome(args.emit_trace)
        dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
        print(
            f"trace: {tracer.emitted} events{dropped} -> "
            f"{args.emit_trace} [{trace_format}]",
            file=sys.stderr,
        )
    print(f"benchmark             : {result.benchmark} @ {args.processors}p")
    print(f"protocol              : {result.protocol.value}")
    print(f"processor speed       : {result.mips:.0f} MIPS")
    print(f"simulated time        : {result.elapsed_ps / 1e6:.1f} us")
    print(f"processor utilization : {result.processor_utilization:.1%}")
    print(f"network utilization   : {result.network_utilization:.1%}")
    print(f"shared-miss latency   : {result.shared_miss_latency_ns:.0f} ns")
    print(f"upgrade latency       : {result.upgrade_latency_ns:.0f} ns")
    print()
    print(render_table([result.trace.as_row()], title="Trace characteristics"))
    breakdown = result.stats.miss_class_percentages()
    populated = {
        klass.value: round(share, 1)
        for klass, share in breakdown.items()
        if share > 0.0
    }
    if populated:
        print()
        print(render_table([populated], title="Remote-miss classes (%)"))
    if args.histograms and result.telemetry is not None:
        print()
        print(result.telemetry.render())
    return 0


def _print_sweeps(sweeps, title: str) -> None:
    for metric, label in (
        ("processor_utilization", "processor utilization"),
        ("network_utilization", "network utilization"),
        ("shared_miss_latency_ns", "miss latency (ns)"),
    ):
        print(render_sweeps(sweeps, metric, title=f"{title}: {label}"))
        print()


def _verb_spec(args: argparse.Namespace):
    """The served job a CLI verb's flags describe, validated by the
    daemon's own parser; ``None`` (reason on stderr) when invalid."""
    from repro.serve.protocol import SpecError, parse_spec

    try:
        return parse_spec(_submit_spec(args))
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return None


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.core.experiment import run_simulation_cached
    from repro.serve.protocol import points_for, run_job

    spec = _verb_spec(args)
    if spec is None:
        return 2
    if args.check_invariants:
        # The checked run publishes to the memo, where run_job's
        # extraction then finds it.
        (point,) = points_for(spec)
        run_simulation_cached(
            point.benchmark,
            point.num_processors,
            point.protocol,
            data_refs=point.data_refs,
            config=point.config,
            check_invariants=True,
        )
    result = run_job(spec, jobs=args.jobs, progress=_progress_printer(args))
    _print_job_result(spec.to_jsonable(), result)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    import time

    sizes = args.sizes or [args.processors]
    before = cache_counters()
    started = time.perf_counter()
    if len(sizes) == 1:
        sweeps = snooping_vs_directory(
            args.benchmark,
            sizes[0],
            data_refs=args.refs,
            jobs=args.jobs,
            progress=_progress_printer(args),
        )
        _print_sweeps(sweeps, f"{args.benchmark}-{sizes[0]}")
    else:
        panels = [(args.benchmark, procs) for procs in sizes]
        grid, report = figure3_panels(
            panels,
            data_refs=args.refs,
            jobs=args.jobs,
            progress=_progress_printer(args),
        )
        for name, procs in panels:
            _print_sweeps(grid[(name, procs)], f"{name}-{procs}")
        if args.jobs > 1:
            print(report.render(), file=sys.stderr)
    _print_cache_summary(args, before, time.perf_counter() - started)
    return 0


def _command_ringbus(args: argparse.Namespace) -> int:
    import time

    before = cache_counters()
    started = time.perf_counter()
    sweeps = ring_vs_bus(
        args.benchmark,
        args.processors,
        data_refs=args.refs,
        jobs=args.jobs,
        progress=_progress_printer(args),
    )
    _print_sweeps(sweeps, f"{args.benchmark}-{args.processors}")
    _print_cache_summary(args, before, time.perf_counter() - started)
    return 0


def _command_grid(args: argparse.Namespace) -> int:
    import time

    from repro.models.grid import GRID_STATS, reset_grid_stats
    from repro.serve.protocol import run_job

    spec = _verb_spec(args)
    if spec is None:
        return 2
    reset_grid_stats()
    started = time.perf_counter()
    result = run_job(spec, jobs=args.jobs, progress=_progress_printer(args))
    print(
        f"{result['points']} points: {result['converged']} converged, "
        f"{result['failed']} failed, {GRID_STATS['grid_evals']} grid evals "
        f"in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    _print_job_result(spec.to_jsonable(), result, metric=args.metric)
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    report = validate_model(
        args.benchmark,
        args.processors,
        _PROTOCOLS[args.protocol],
        data_refs=args.refs,
    )
    rows = [
        {
            "metric": "processor utilization",
            "simulation": round(report.sim_processor_utilization, 3),
            "model": round(report.model_processor_utilization, 3),
            "error": round(report.utilization_error, 3),
        },
        {
            "metric": "network utilization",
            "simulation": round(report.sim_network_utilization, 3),
            "model": round(report.model_network_utilization, 3),
            "error": round(report.network_error, 3),
        },
        {
            "metric": "shared-miss latency (ns)",
            "simulation": round(report.sim_shared_miss_latency_ns, 1),
            "model": round(report.model_shared_miss_latency_ns, 1),
            "error": f"{report.latency_error_percent:.1f}%",
        },
    ]
    print(
        render_table(
            rows,
            title=(
                f"Model validation: {report.benchmark} @ "
                f"{args.processors}p, {report.protocol.value}, "
                f"{report.processor_cycle_ns:.0f} ns cycle"
            ),
        )
    )
    within = (
        report.utilization_error < 0.05
        and report.latency_error_percent < 15.0
    )
    print(
        "\nwithin the paper's tolerances (15% latency / 5 pt utilization): "
        + ("yes" if within else "NO")
    )
    return 0 if within else 1


def _command_snooprate(_: argparse.Namespace) -> int:
    print(
        render_table(
            snoop_rate_table(),
            title="Table 3: probe inter-arrival per dual-directory bank (ns)",
            decimals=0,
        )
    )
    return 0


def _command_benchmarks(_: argparse.Namespace) -> int:
    rows = [
        {"benchmark": name, "processors": processors}
        for name, processors in available_configurations()
    ]
    print(render_table(rows, title="Available workload configurations"))
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.perf import bench as perf_bench

    suites = (
        perf_bench.suite_names() if args.suite == "all" else [args.suite]
    )
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else perf_bench.DEFAULT_TOLERANCE
    )
    problems = []
    reports = []
    for suite in suites:
        report = perf_bench.run_suite(suite, quick=args.quick)
        reports.append(report)
        if not args.json:
            print(report.render())
        if args.baseline:
            path = perf_bench.write_baseline(report, args.baseline_dir)
            if not args.json:
                print(f"  baseline -> {path}")
        elif args.check:
            baseline = perf_bench.load_baseline(suite, args.baseline_dir)
            if baseline is None:
                problems.append(
                    f"{suite}: no baseline at "
                    f"{perf_bench.baseline_path(suite, args.baseline_dir)} "
                    "(generate one with 'repro bench --quick --baseline')"
                )
                continue
            problems.extend(
                f"{suite}: {problem}"
                for problem in perf_bench.check_against_baseline(
                    report, baseline, tolerance=tolerance
                )
            )
    checked = args.check and not args.baseline
    if args.json:
        import json

        payload = {
            "suites": [report.to_jsonable() for report in reports],
            "checked": checked,
        }
        if checked:
            payload["ok"] = not problems
            payload["problems"] = problems
            payload["tolerance"] = tolerance
        print(json.dumps(payload, indent=2))
    if checked:
        if problems:
            if not args.json:
                print("perf regression check FAILED:", file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"perf regression check passed ({', '.join(suites)})")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    from repro import check
    from repro.check.explorer import validate_setup
    from repro.check.fuzz import validate_walks

    try:
        if args.verb == "explore":
            validate_setup(
                args.protocol,
                args.nodes,
                args.lines,
                args.symmetry,
                expansion=args.expansion,
                races=not args.no_races,
            )
        else:
            validate_walks(
                args.protocol, args.nodes, args.lines, args.steps, args.num_seeds
            )
    except ValueError as error:
        # Each message starts with the field it refuses ("nodes=12,
        # lines=3: symmetry group ..." refuses the node count).
        field = str(error).split()[0].split("=")[0]
        args.usage_error(f"--{field.replace('_', '-')}: {error}")

    if args.verb == "explore":
        report = check.explore(
            args.protocol,
            nodes=args.nodes,
            lines=args.lines,
            races=not args.no_races,
            max_depth=args.max_depth,
            max_states=args.max_states,
            symmetry=args.symmetry,
            jobs=args.jobs,
            expansion=args.expansion,
        )
        print(report.summary())
        if report.ok:
            if args.require_exhaustive and not report.complete:
                print(
                    "exploration did not exhaust the state space "
                    f"(truncated by {', '.join(report.truncated_by)}); "
                    "raise --max-depth/--max-states or drop "
                    "--require-exhaustive",
                    file=sys.stderr,
                )
                return 3
            return 0
        counterexample = report.counterexample
        if args.counterexample:
            counterexample.write_json(args.counterexample)
            print(
                f"counterexample -> {args.counterexample}",
                file=sys.stderr,
            )
        if args.emit_trace:
            from repro.obs import Tracer
            from repro.ring.base import ProtocolError

            tracer = Tracer()
            try:
                counterexample.replay(tracer=tracer)
            except ProtocolError as failure:
                # The replay fails by construction -- it re-drives the
                # engine into the violation the explorer found -- but
                # only a coherence violation is expected here; anything
                # else (an ImportError, a TypeError from an API drift)
                # must not be silently swallowed.
                print(
                    f"replay reproduced the violation: {failure}",
                    file=sys.stderr,
                )
            else:
                print(
                    "warning: counterexample replay did not reproduce "
                    "the violation",
                    file=sys.stderr,
                )
            tracer.write_jsonl(args.emit_trace)
            print(
                f"failure trace: {tracer.emitted} events -> "
                f"{args.emit_trace}",
                file=sys.stderr,
            )
        return 1

    if args.num_seeds > 1:
        batch = check.fuzz_many(
            args.protocol,
            nodes=args.nodes,
            lines=args.lines,
            steps=args.steps,
            seed=args.seed,
            num_seeds=args.num_seeds,
            jobs=args.jobs,
        )
        print(batch.summary())
        for failure in batch.failures:
            print(failure.summary(), file=sys.stderr)
        return 0 if batch.ok else 1
    report = check.fuzz(
        args.protocol,
        nodes=args.nodes,
        lines=args.lines,
        steps=args.steps,
        seed=args.seed,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _command_spec(args: argparse.Namespace) -> int:
    # Imported lazily: the module-level namespace already binds
    # render_table (the analysis-table renderer), and the spec layer
    # is not needed by any other command.
    import repro.spec as spec_mod

    protocols = (
        list(spec_mod.SPECS)
        if args.protocol == "all"
        else [args.protocol]
    )

    if args.diff is not None:
        if args.protocol == "all":
            print(
                "--diff needs a single --protocol to diff against",
                file=sys.stderr,
            )
            return 2
        print(
            spec_mod.diff_tables(
                spec_mod.spec_for(args.protocol),
                spec_mod.spec_for(args.diff),
            )
        )
        return 0

    if not args.verify:
        for index, protocol in enumerate(protocols):
            if index:
                print()
            print(spec_mod.render_table(spec_mod.spec_for(protocol)))
        return 0

    from repro import check

    failures = 0
    for protocol in protocols:
        protocol_spec = spec_mod.spec_for(protocol)
        try:
            spec_mod.validate_spec(protocol_spec)
        except spec_mod.SpecValidationError as error:
            print(f"{protocol}: spec INVALID: {error}")
            failures += 1
            continue
        report = check.explore(
            protocol,
            nodes=args.nodes,
            lines=args.lines,
            races=not args.no_races,
            jobs=args.jobs,
            expansion="spec",
        )
        if report.ok:
            print(
                f"{protocol}: spec valid, {len(protocol_spec.rules)} "
                f"rules, {len(spec_mod.commit_table(protocol))} commits; "
                f"engine/spec agree on "
                f"{report.states} states "
                f"({args.nodes}p/{args.lines}l"
                f"{', no races' if args.no_races else ''})"
            )
        else:
            print(f"{protocol}: engine/spec DIVERGENCE")
            print(report.counterexample.describe(), file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def _command_store(args: argparse.Namespace) -> int:
    from repro.core.store import ResultStore

    # enabled=False keeps the constructor from running its own
    # open-time sweep, so the counts reported here are complete.
    store = ResultStore(args.cache_dir, enabled=False)
    if args.verb == "cleanup":
        removed = store.cleanup_stale_tmp(min_age_seconds=args.min_age)
        print(
            f"removed {removed} stale temp file(s) from "
            f"{store.results_dir}"
        )
        return 0
    info = store.info()
    # "enabled" describes this (deliberately inert) inspection handle,
    # not the directory being inspected -- drop it rather than mislead.
    info.pop("enabled", None)
    if args.json:
        import json

        print(json.dumps(info, indent=2))
        return 0
    print(f"store: {info['directory']}")
    print(f"entries: {info['entries']}")
    print(f"temp files: {info['tmp_files']}")
    if info["blobs"]:
        blobs = " ".join(
            f"{kind}={count}" for kind, count in sorted(info["blobs"].items())
        )
        print(f"blobs: {blobs}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeDaemon

    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )

    async def _main() -> None:
        await daemon.start()
        print(
            f"repro serve: listening on {daemon.url} "
            f"(workers={daemon.jobs})",
            file=sys.stderr,
        )
        await daemon.serve()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: interrupted", file=sys.stderr)
    return 0


def _submit_spec(args: argparse.Namespace) -> dict:
    """The submission payload of ``submit``, ``sweep`` or ``grid``
    (whose verb is the job kind); only the fields the verb set are
    sent, so the daemon's defaulting stays the single source of
    truth."""
    spec: dict = {"kind": getattr(args, "kind", args.command)}
    for field, option in (
        ("benchmark", "benchmark"),
        ("processors", "processors"),
        ("data_refs", "refs"),
        ("protocol", "protocol"),
        ("seed", "seed"),
        ("cycles_ns", "cycles"),
        ("nodes", "nodes"),
        ("lines", "lines"),
        ("max_depth", "max_depth"),
        ("max_states", "max_states"),
        ("parameters", "param"),
    ):
        value = getattr(args, option, None)
        if value is not None:
            spec[field] = value
    return spec


def _print_grid(
    spec: dict, result: dict, metric: str = "processor_utilization"
) -> None:
    """A grid payload as a table, or as a heatmap of ``metric`` when
    the job has exactly one parameter axis."""
    points = result["operating_points"]
    title = (
        f"{spec['benchmark']}-{spec['processors']} {spec['protocol']}: "
        f"{metric}"
    )
    axes = spec["parameters"]
    if axes is not None and len(axes) == 1:
        from repro.analysis.figures import render_heatmap

        (name, values), = axes.items()
        width = len(points) // len(values)
        cycle_axis = [point["processor_cycle_ns"] for point in points[:width]]
        print(
            render_heatmap(
                [
                    [point[metric] for point in points[row : row + width]]
                    for row in range(0, len(points), width)
                ],
                title=title,
                x_label=(
                    f"processor cycle {cycle_axis[0]:g}.."
                    f"{cycle_axis[-1]:g} ns ({width} columns)"
                ),
                y_label=name,
                row_labels=[str(value) for value in values],
            )
        )
        return
    rows = [
        {
            "cycle (ns)": point["processor_cycle_ns"],
            "proc util": round(point["processor_utilization"], 3),
            "net util": round(point["network_utilization"], 3),
            "miss latency (ns)": round(point["shared_miss_latency_ns"], 1),
        }
        for point in points
    ]
    print(render_table(rows, title=title))


def _print_job_result(
    spec: dict, result: dict, metric: str = "processor_utilization"
) -> None:
    """Render a job's result payload (``repro.serve.protocol``) for its
    canonical ``spec``; ``repro sweep`` and ``repro grid`` render their
    in-process results through here too, so a served job prints
    exactly what its synchronous verb does."""
    kind = spec["kind"]
    if kind == "sweep":
        rows = [
            {
                "cycle (ns)": point["processor_cycle_ns"],
                "MIPS": round(point["mips"]),
                "proc util": round(point["processor_utilization"], 3),
                "net util": round(point["network_utilization"], 3),
                "miss latency (ns)": round(
                    point["shared_miss_latency_ns"], 1
                ),
            }
            for point in result["points"]
        ]
        print(render_table(rows, title=result["label"]))
    elif kind == "grid":
        _print_grid(spec, result, metric)
    elif kind == "check":
        print(result["summary"])
    elif kind == "simulate":
        print(
            "processor utilization : "
            f"{result['processor_utilization']:.1%}"
        )
        print(
            "network utilization   : "
            f"{result['network_utilization']:.1%}"
        )
        print(
            "shared-miss latency   : "
            f"{result['shared_miss_latency_ns']:.0f} ns"
        )


def _command_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        job = client.submit(_submit_spec(args))
    except (ServeError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    coalesced = "true" if job["coalesced"] else "false"
    print(
        f"submitted job={job['job']} kind={job['kind']} "
        f"coalesced={coalesced} to {args.url}",
        file=sys.stderr,
    )
    if args.no_wait:
        print(job["job"])
        return 0
    try:
        for event in client.events(job["job"]):
            if event["event"] == "point":
                source = (
                    "cache hit" if event["cache_hit"] else "simulated"
                )
                suffix = (
                    f" FAILED: {event['error']}" if "error" in event else ""
                )
                print(
                    f"[{event['done']}/{event['total']}] "
                    f"{event['benchmark']}@{event['processors']}p "
                    f"{event['protocol']}: {source} in "
                    f"{event['wall_s']:.2f}s{suffix}",
                    file=sys.stderr,
                )
        final = client.job(job["job"])
    except (ServeError, OSError) as exc:
        print(f"follow failed: {exc}", file=sys.stderr)
        return 2
    done = final["state"] == "done"
    if args.json:
        payload = dict(final)
        if done:
            payload["result"] = client.result(job["job"])
        print(json.dumps(payload, indent=2))
        return 0 if done else 1
    print(
        f"job={final['job']} state={final['state']} "
        f"simulated={final['simulated']} cache_hits={final['cache_hits']} "
        f"coalesced={coalesced}"
    )
    if done:
        _print_job_result(final["spec"], client.result(job["job"]))
    elif final.get("error"):
        print(f"error: {final['error']}", file=sys.stderr)
    return 0 if done else 1


def _command_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        jobs = client.jobs()
        stats = client.stats()
    except (ServeError, OSError) as exc:
        print(f"jobs query failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"jobs": jobs, "stats": stats}, indent=2))
        return 0
    if jobs:
        rows = [
            {
                "job": job["job"],
                "kind": job["kind"],
                "state": job["state"],
                "points": f"{job['done_points']}/{job['total_points']}",
                "simulated": job["simulated"],
                "cache hits": job["cache_hits"],
                "coalesced": "yes" if job["coalesced"] else "",
            }
            for job in jobs
        ]
        print(render_table(rows, title=f"Jobs on {args.url}"))
    else:
        print(f"no jobs on {args.url}")
    print(
        f"submitted={stats['submitted']} coalesced={stats['coalesced']} "
        f"executions_started={stats['executions_started']} "
        f"completed={stats['completed']} failed={stats['failed']} "
        f"answers_reused={stats['answers_reused']} "
        f"inflight={stats['inflight']}",
        file=sys.stderr,
    )
    return 0


def _command_cancel(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        job = client.cancel(args.job)
    except (ServeError, OSError) as exc:
        print(f"cancel failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(job, indent=2))
        return 0
    print(f"job={job['job']} state={job['state']}")
    return 0


_HANDLERS = {
    "simulate": _command_simulate,
    "sweep": _command_sweep,
    "compare": _command_compare,
    "ringbus": _command_ringbus,
    "grid": _command_grid,
    "validate": _command_validate,
    "snooprate": _command_snooprate,
    "benchmarks": _command_benchmarks,
    "bench": _command_bench,
    "check": _command_check,
    "spec": _command_spec,
    "store": _command_store,
    "serve": _command_serve,
    "submit": _command_submit,
    "jobs": _command_jobs,
    "cancel": _command_cancel,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "check_workload", False):
        _check_workload(args)
    _configure_execution(args)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
