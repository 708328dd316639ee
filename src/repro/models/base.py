"""Iterative fixed-point machinery for the analytical models.

The paper (section 4.0) uses "an approximate iterative methodology
similar to Menasce and Barroso's": an estimate of the average memory
latencies gives an estimate of execution time, which gives new event
rates, which give new contention estimates and therefore new
latencies, iterating until convergence.

Every model family writes its equations once, as three functions over
a flat *field row* (:func:`config_row`).  ``frequencies(a)`` gives the
per-instruction event frequencies in solver order (the *mix*).
``prepare(a, xp)`` returns the row extended with every other term that
does not depend on the execution time.  ``latencies(p, T, xp)`` does
only the arithmetic that depends on ``T``: the latency each event
class would see when every processor retires one instruction per
``T`` ps, plus the network and bank utilisations.  Hoisting keeps
every operation's operands and order, so the split changes no bit of
any result; the mix and the prepared row are built once per model
(once per grid).  A row's values are
either Python floats -- the scalar models below -- or NumPy arrays,
one lane per design point -- the grid engine,
:mod:`repro.models.grid`.  ``xp`` is the array namespace the equations
draw ``where``/``minimum``/``maximum`` from: ``numpy`` for the grid,
:data:`SCALAR` (the same three functions over builtins) here, so the
scalar path never imports NumPy.

The fixed point of

    T = cycle + sum_k f_k * L_k(T)

is found by a bracketed secant iteration (:func:`fixed_point` for one
point, :func:`repro.models.grid.solve_grid` for a grid); all models
converge in a handful of rounds because the latency terms are smooth
in the offered load.  Every sum over event classes accumulates left to
right (:func:`ordered_sum`), so results do not depend on the Python
version's float ``sum()`` (3.12 compensates its rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.core.results import ModelInputs, OperatingPoint, SweepResult
from repro.ring.topology import RingTopology

__all__ = [
    "CONFIG_FIELDS",
    "DEFAULT_GUESS_PS",
    "GEOMETRY_FIELDS",
    "INPUT_FIELDS",
    "MAX_ITERATIONS",
    "TOLERANCE",
    "FixedPointDiverged",
    "FixedPointModel",
    "LatencyBreakdown",
    "SCALAR",
    "SOLVER_STATS",
    "SYSTEM_FIELDS",
    "SYSTEM_PATHS",
    "config_row",
    "converged",
    "family_for_protocol",
    "fixed_point",
    "geometry_values",
    "guarded_ratio",
    "input_values",
    "latency_weights",
    "md1_wait",
    "mm1_wait",
    "ordered_sum",
    "reset_solver_stats",
    "slot_wait",
    "solve_time_per_instruction",
    "system_values",
    "weighted_latencies",
    "weighted_sum",
]


class FixedPointDiverged(RuntimeError):
    """The iteration failed to converge (offered load beyond saturation)."""


#: Deterministic solver counters, used by the perf-regression harness
#: (``repro bench``): wall-clock is noisy on shared CI runners, but the
#: number of model evaluations a sweep needs is exact, so a regression
#: in solver efficiency shows up here reproducibly.
SOLVER_STATS = {
    "solves": 0,
    "model_evals": 0,
    "accelerated_steps": 0,
    "bisection_steps": 0,
}


def reset_solver_stats() -> None:
    """Zero :data:`SOLVER_STATS` (start of a measured workload)."""
    for key in SOLVER_STATS:
        SOLVER_STATS[key] = 0


def _where(condition, if_true, if_false):
    return if_true if condition else if_false


#: The array functions the model equations use, over Python floats.
SCALAR = SimpleNamespace(where=_where, minimum=min, maximum=max)

#: Default bracket seed of both solvers.
DEFAULT_GUESS_PS = 50_000.0

#: Relative stopping tolerance and iteration budget of both solvers.
TOLERANCE = 1e-6
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latencies (ps) per event class plus the implied utilisations."""

    #: Mean latency per event class, ps, keyed by a model-chosen name.
    latencies: Mapping[str, float]
    #: Interconnect utilisation in [0, 1].
    network_utilization: float
    #: Memory-bank utilisation in [0, 1].
    bank_utilization: float


#: A model: time-per-instruction -> latency breakdown.
LatencyModel = Callable[[float], LatencyBreakdown]


def converged(residual, span, time_ps, tolerance: float):
    """The solvers' shared stopping test: the residual, or the bracket,
    is within ``tolerance`` of the iterate (elementwise for arrays)."""
    return (abs(residual) <= tolerance * time_ps) | (span <= tolerance * time_ps)


def ordered_sum(terms):
    """``sum(terms)`` added strictly left to right from 0.0, for floats
    and arrays alike.  From 3.12 on the builtin ``sum()`` of floats
    compensates its rounding, so the model equations never use it on
    floats: their results must not depend on the Python version."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


def weighted_sum(pairs, values):
    """``ordered_sum(weight * values[name] for name, weight in pairs)``
    (the solvers' inner loop, so without the generator)."""
    total = 0.0
    for name, weight in pairs:
        total = total + weight * values[name]
    return total


def fixed_point(
    busy_ps_per_instr: float,
    mix: Sequence[Tuple[str, float]],
    evaluate: Callable[[float], tuple],
    initial_guess_ps: float = DEFAULT_GUESS_PS,
    tolerance: float = TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> "tuple[float, tuple]":
    """Find T with  T = busy + sum_k f_k * L_k(T).

    ``mix`` holds ``(class name, events per instruction)`` pairs in
    solver order; ``evaluate(T)`` returns a tuple whose first item maps
    every one of those names to its latency at ``T`` (a family's
    ``latencies``).  Returns ``(T, evaluate(T))`` for the returned T.

    The residual ``g(T) = busy + sum f_k L_k(T) - T`` is strictly
    decreasing in T (longer execution means lighter load means shorter
    latencies), so the fixed point is the unique root of ``g``.  The
    root is bracketed by doubling, then located by Aitken-accelerated
    iteration: each step extrapolates through the last two residual
    evaluations (the delta-squared update, equivalent to a secant step
    on ``g``), which converges superlinearly on these smooth latency
    curves.  A convergence guard keeps every iterate inside the
    bracket -- an extrapolation that escapes it, stalls, or repeats is
    replaced by a plain bisection step -- so the accelerated solver
    finds exactly the root bisection would, in far fewer model
    evaluations (typically 6-8 instead of ~45).

    ``initial_guess_ps`` seeds the bracket; sweeps warm-start it with
    the previous operating point, which tightens the initial bracket
    and saves the doubling walk.  The work is counted in locals and
    added to :data:`SOLVER_STATS` on every exit, a raise included.
    """
    evals = accelerated = bisections = 0
    try:
        low = max(busy_ps_per_instr, 1.0)
        result = evaluate(low)
        evals += 1
        implied = busy_ps_per_instr + weighted_sum(mix, result[0])
        r_low = implied - low
        if r_low <= 0.0:
            # No contention at all: latencies at idle already satisfy T.
            return implied, evaluate(implied)
        high = max(initial_guess_ps, 2.0 * low)
        evals += 1
        r_high = busy_ps_per_instr + weighted_sum(mix, evaluate(high)[0]) - high
        doublings = 0
        while r_high > 0.0:
            low, r_low = high, r_high
            high *= 2.0
            doublings += 1
            if doublings > 80:
                raise FixedPointDiverged(
                    f"residual still positive at T = {high:.3g} ps"
                )
            evals += 1
            r_high = busy_ps_per_instr + weighted_sum(mix, evaluate(high)[0]) - high
        # Invariant: r(low) > 0 >= r(high).  (t0, r0)/(t1, r1) are the
        # two most recent evaluations the Aitken step extrapolates
        # through.
        t0, r0 = low, r_low
        t1, r1 = high, r_high
        for _ in range(max_iterations):
            denom = r1 - r0
            if denom != 0.0:
                candidate = t1 - r1 * (t1 - t0) / denom
            else:
                candidate = low  # force the guard below to bisect
            span = high - low
            if low < candidate < high and abs(candidate - t1) <= span:
                accelerated += 1
            else:
                # Convergence guard: extrapolation left the bracket (or
                # stalled on a flat pair); fall back to bisection,
                # which always halves the bracket.
                candidate = low + 0.5 * span
                bisections += 1
            result = evaluate(candidate)
            evals += 1
            r_cand = busy_ps_per_instr + weighted_sum(mix, result[0]) - candidate
            if converged(r_cand, span, candidate, tolerance):
                return candidate, result
            if r_cand > 0.0:
                low = candidate
            else:
                high = candidate
            t0, r0, t1, r1 = t1, r1, candidate, r_cand
        mid = 0.5 * (low + high)
        return mid, evaluate(mid)
    finally:
        SOLVER_STATS["solves"] += 1
        SOLVER_STATS["model_evals"] += evals
        SOLVER_STATS["accelerated_steps"] += accelerated
        SOLVER_STATS["bisection_steps"] += bisections


def solve_time_per_instruction(
    busy_ps_per_instr: float,
    event_frequencies: Mapping[str, float],
    model: LatencyModel,
    initial_guess_ps: float = DEFAULT_GUESS_PS,
    tolerance: float = TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> "tuple[float, LatencyBreakdown]":
    """:func:`fixed_point` for a model given as ``model(T) ->``
    :class:`LatencyBreakdown`, with ``event_frequencies`` mapping class
    names to events per instruction.  Returns (T, final breakdown)."""

    def evaluate(time_ps: float):
        breakdown = model(time_ps)
        return breakdown.latencies, breakdown

    time_ps, (_, breakdown) = fixed_point(
        busy_ps_per_instr,
        list(event_frequencies.items()),
        evaluate,
        initial_guess_ps,
        tolerance,
        max_iterations,
    )
    return time_ps, breakdown


# ----------------------------------------------------------------------
# Queueing building blocks (floats by default; pass ``xp`` for arrays)
# ----------------------------------------------------------------------
def _clamp(utilization, xp):
    """Keep utilisation in [0, 0.995] so waits stay finite; the
    fixed-point iteration interprets a near-ceiling value as
    saturation (latency grows until demand matches capacity)."""
    return xp.where(utilization < 0.0, 0.0, xp.minimum(utilization, 0.995))


def mm1_wait(utilization: float, service_ps: float) -> float:
    """M/M/1 mean queueing delay (service excluded)."""
    rho = _clamp(utilization, SCALAR)
    return rho * service_ps / (1.0 - rho)


def md1_wait(utilization, service_ps, xp=SCALAR):
    """M/D/1 mean queueing delay -- memory banks and bus transfers have
    deterministic service, which halves the M/M/1 wait."""
    rho = _clamp(utilization, xp)
    return rho * service_ps / (2.0 * (1.0 - rho))


def slot_wait(utilization, slot_period_ps, xp=SCALAR):
    """Expected wait for a free slot on the slotted ring.

    Slots of a type pass a node every ``slot_period_ps``; each is busy
    independently with probability ``utilization`` (the geometric-
    trials view of a symmetric slotted ring).  The sender waits half a
    period for alignment plus a full period per busy slot it lets by:

        W = period/2 + period * rho / (1 - rho)
    """
    rho = _clamp(utilization, xp)
    return slot_period_ps * (0.5 + rho / (1.0 - rho))


def guarded_ratio(numerator, denominator, predicate, xp):
    """``numerator / denominator`` where ``predicate``, else 0.0 (the
    denominator is never divided by where ``predicate`` is false)."""
    return xp.where(predicate, numerator / xp.where(predicate, denominator, 1.0), 0.0)


def latency_weights(mix, shared_classes):
    """The ``T``-independent half of :func:`weighted_latencies` for a
    family's frequency pairs ``mix``: the shared classes' weights and
    their total, and the ``upgrade*`` classes' weights and theirs."""
    weights = dict(mix)
    shared = [(name, weights[name]) for name in shared_classes]
    upgrades = [(name, weight) for name, weight in mix if name.startswith("upgrade")]
    shared_total = ordered_sum(weight for _, weight in shared)
    upgrade_total = ordered_sum(weight for _, weight in upgrades)
    return shared, shared_total, upgrades, upgrade_total


def weighted_latencies(latencies, weights, xp):
    """Shared-miss and upgrade latency at a solved point (the figures'
    metrics): means over the shared classes and over the ``upgrade*``
    classes, weighted by their frequencies (``weights`` from
    :func:`latency_weights`).  With no upgrades at all, the upgrade
    latency is the plain mean of the upgrade classes."""
    shared_pairs, total, upgrades, upgrade_total = weights
    weighted = weighted_sum(shared_pairs, latencies)
    shared = guarded_ratio(weighted, total, total > 0.0, xp)

    upgrade_weighted = weighted_sum(upgrades, latencies)
    upgrade_mean = ordered_sum(latencies[name] for name, _ in upgrades) / len(
        upgrades
    )
    upgrade = xp.where(
        upgrade_total > 0.0,
        guarded_ratio(upgrade_weighted, upgrade_total, upgrade_total > 0.0, xp),
        upgrade_mean,
    )
    return shared, upgrade


# ----------------------------------------------------------------------
# Field rows: one (config, inputs) pair flattened for the equations
# ----------------------------------------------------------------------
#: The field row is three pieces, each flattened by one function:
#: fields read straight off the config (:func:`system_values`), the
#: ring geometry (:func:`geometry_values`) and the extracted event
#: frequencies (:func:`input_values`).  The grid engine flattens each
#: piece once per distinct value; :func:`config_row` joins all three
#: for one point.  All values are exactly representable in float64
#: (small ints and ps quantities far below 2**53).
#:
#: Each system field with where :func:`system_values` reads it, as
#: ``(part, field)`` in the form of
#: ``repro.core.sensitivity.SUPPORTED_PARAMETERS``: the grid engine
#: matches a parameter axis to the columns it sets by this path.
SYSTEM_PATHS = {
    "processors": (None, "num_processors"),
    "clock_ps": ("ring", "clock_ps"),
    "access_ps": ("memory", "access_ps"),
    "cache_response_ps": ("memory", "cache_response_ps"),
    "lookup_ps": ("memory", "directory_lookup_ps"),
    "bus_clock_ps": ("bus", "clock_ps"),
    "bus_request_cycles": ("bus", "request_cycles"),
    "bus_reply_cycles": ("bus", "reply_cycles"),
    "bus_writeback_cycles": ("bus", "writeback_cycles"),
}
SYSTEM_FIELDS = tuple(SYSTEM_PATHS)
GEOMETRY_FIELDS = (
    "ring_cycles",
    "frame_stages",
    "probe_stages",
    "block_stages",
    "probe_slots",
    "block_slots",
    "num_frames",
)
INPUT_FIELDS = (
    "f_private",
    "f_local_clean",
    "f_remote_clean",
    "f_remote_dirty",
    "f_dirty_one",
    "f_two_cycle",
    "f_upgrade_with",
    "f_upgrade_without",
    "f_writeback",
    "f_sharing_writeback",
    "f_probes",
    "f_broadcast_probes",
    "f_blocks",
    "f_memory_accesses",
    "f_forwards",
    "mean_upgrade_traversals",
)
#: Every per-configuration field of a row.
CONFIG_FIELDS = SYSTEM_FIELDS + GEOMETRY_FIELDS + INPUT_FIELDS


def system_values(config: SystemConfig) -> Tuple[float, ...]:
    """The :data:`SYSTEM_FIELDS` of ``config``, in that order (read
    attribute by attribute, not through :data:`SYSTEM_PATHS`: every
    scalar model construction calls this)."""
    memory = config.memory
    bus = config.bus
    return (
        float(config.num_processors),
        float(config.ring.clock_ps),
        float(memory.access_ps),
        float(memory.cache_response_ps),
        float(memory.directory_lookup_ps),
        float(bus.clock_ps),
        float(bus.request_cycles),
        float(bus.reply_cycles),
        float(bus.writeback_cycles),
    )


def geometry_values(config: SystemConfig) -> Tuple[float, ...]:
    """The :data:`GEOMETRY_FIELDS` of ``config``, in that order.

    Builds the frame layout once and the topology from it, so
    degenerate geometries are rejected at model-construction time.
    The values depend only on ``(config.ring, config.block_size,
    config.num_processors)``.
    """
    layout = config.ring_layout()
    topology = RingTopology.for_layout(
        config.num_processors, layout, config.ring.stages_per_node
    )
    return (
        float(topology.total_stages),
        float(layout.frame_stages),
        float(layout.probe_stages),
        float(layout.block_stages),
        float(layout.probe_slots),
        float(layout.block_slots),
        float(topology.num_frames),
    )


def input_values(inputs: ModelInputs) -> Tuple[float, ...]:
    """The :data:`INPUT_FIELDS` of ``inputs``, in that order."""
    f_miss = inputs.f_miss
    return (
        f_miss.get(MissClass.PRIVATE, 0.0),
        f_miss.get(MissClass.LOCAL_CLEAN, 0.0),
        f_miss.get(MissClass.REMOTE_CLEAN, 0.0),
        f_miss.get(MissClass.REMOTE_DIRTY, 0.0),
        f_miss.get(MissClass.DIRTY_ONE_CYCLE, 0.0),
        f_miss.get(MissClass.TWO_CYCLE, 0.0),
        inputs.f_upgrade_with_sharers,
        inputs.f_upgrade_without_sharers,
        inputs.f_writeback,
        inputs.f_sharing_writeback,
        inputs.f_probes,
        inputs.f_broadcast_probes,
        inputs.f_blocks,
        inputs.f_memory_accesses,
        inputs.f_forwards,
        inputs.mean_upgrade_traversals,
    )


def config_row(config: SystemConfig, inputs: ModelInputs) -> Dict[str, float]:
    """Flatten one (config, inputs) pair to the equations' field row
    (geometry validated as in :func:`geometry_values`)."""
    return dict(
        zip(
            CONFIG_FIELDS,
            system_values(config)
            + geometry_values(config)
            + input_values(inputs),
        )
    )


# ----------------------------------------------------------------------
# Model families
# ----------------------------------------------------------------------
#: Protocol -> model family: the one table both ``core.hybrid.model_for``
#: and the grid engine route through.
_PROTOCOL_FAMILY = {
    Protocol.SNOOPING: "ring_snooping",
    Protocol.DIRECTORY: "ring_directory",
    Protocol.LINKED_LIST: "ring_linkedlist",
    Protocol.HIERARCHICAL: "ring_directory",
    Protocol.BUS: "bus",
}


def family_for_protocol(protocol: Protocol) -> str:
    """The model family that evaluates ``protocol``."""
    return _PROTOCOL_FAMILY[protocol]


class FixedPointModel:
    """One model family's equations, solved point by point.

    A family subclass names itself (``family``), its curve label
    (``name`` plus the clock of its ``interconnect``), the miss classes
    its shared-miss latency averages over (``shared_classes``), and its
    equations (``frequencies``, ``prepare``, ``latencies``).
    Construction flattens ``(config, inputs)`` to a field row and
    prepares it once; every evaluation after that is the ``T``-dependent
    arithmetic alone.
    """

    family: str
    name: str
    interconnect: str = "ring"
    shared_classes: Sequence[str]
    frequencies: Callable
    prepare: Callable
    latencies: Callable

    def __init__(self, config: SystemConfig, inputs: ModelInputs) -> None:
        self.config = config
        self.inputs = inputs
        self.row = config_row(config, inputs)
        self.prepared = self.prepare(self.row, SCALAR)
        self.mix = self.frequencies(self.row)
        self._weights = latency_weights(self.mix, self.shared_classes)
        self._evaluate = partial(self.latencies, self.prepared, xp=SCALAR)

    def breakdown(self, time_per_instruction_ps: float) -> LatencyBreakdown:
        """Per-class latencies when every processor retires one
        instruction per ``time_per_instruction_ps``."""
        latencies, network, bank = self._evaluate(time_per_instruction_ps)
        return LatencyBreakdown(
            latencies=latencies,
            network_utilization=network,
            bank_utilization=bank,
        )

    def solve(
        self,
        processor_cycle_ps: int,
        initial_guess_ps: Optional[float] = None,
    ) -> OperatingPoint:
        """Fixed point at one processor speed.

        ``initial_guess_ps`` seeds the solver bracket (sweeps pass the
        previous operating point to warm-start the search).
        """
        time_ps, (latencies, network, _) = fixed_point(
            float(processor_cycle_ps),
            self.mix,
            self._evaluate,
            DEFAULT_GUESS_PS if initial_guess_ps is None else initial_guess_ps,
        )
        shared, upgrade = weighted_latencies(latencies, self._weights, SCALAR)
        return OperatingPoint(
            processor_cycle_ns=processor_cycle_ps / 1000.0,
            processor_utilization=processor_cycle_ps / time_ps,
            network_utilization=network,
            shared_miss_latency_ns=shared / 1000.0,
            upgrade_latency_ns=upgrade / 1000.0,
            time_per_instruction_ps=time_ps,
        )

    def sweep(self, cycles_ns: Optional[Sequence[float]] = None) -> SweepResult:
        """Model curves across processor cycle times (default 1-20 ns,
        the paper's x-axis)."""
        cycles = cycles_ns or [float(c) for c in range(1, 21)]
        points = []
        guess = None
        for cycle_ns in cycles:
            point = self.solve(round(cycle_ns * 1000), initial_guess_ps=guess)
            points.append(point)
            # Warm start: adjacent sweep points have nearby fixed
            # points, so the previous solution seeds the next bracket.
            guess = point.time_per_instruction_ps
        return self.curve(self.config, self.inputs, points)

    @classmethod
    def curve(
        cls,
        config: SystemConfig,
        inputs: ModelInputs,
        points: "list[OperatingPoint]",
    ) -> SweepResult:
        """Package solved points as this family's curve for ``config``
        (the scalar and the grid sweeps share this packaging)."""
        clock_mhz = getattr(config, cls.interconnect).clock_mhz
        return SweepResult(
            benchmark=inputs.benchmark,
            protocol=config.protocol,
            label=f"{cls.name} {clock_mhz:.0f} MHz",
            points=points,
        )
