"""The paper's hybrid evaluation methodology, end to end.

Section 4.0: "All the evaluations ... are performed by first simulating
each benchmark ... with 50 MIPS processors; the simulations generate
parameter values describing the average behavior of each system ...
These values are then applied to the analytical models to generate all
the curves."

:func:`hybrid_sweep` does exactly that for one (benchmark, size,
protocol, interconnect) combination: one cached trace-driven
simulation at 50 MIPS extracts the event frequencies; the matching
analytical model then produces the metric-vs-processor-cycle curve.
:func:`validate_model` quantifies the model-vs-simulation error the
paper reports ("within 15% ... for latencies, and within 5% for
processor and network utilizations").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import DEFAULT_DATA_REFS, run_simulation_cached
from repro.core.results import SimulationResult, SweepResult
from repro.models import MODEL_FAMILIES, family_for_protocol

__all__ = [
    "hybrid_sweep",
    "extraction_point",
    "sweep_from_result",
    "surface_from_result",
    "validate_model",
    "ValidationReport",
    "model_for",
    "PAPER_CYCLE_SWEEP_NS",
]

#: The paper's x-axis: processor cycle 1..20 ns.
PAPER_CYCLE_SWEEP_NS: "tuple[float, ...]" = tuple(float(c) for c in range(1, 21))

#: The paper extracts model parameters from 50 MIPS simulations.
EXTRACTION_CYCLE_PS = 20_000


def model_for(config: SystemConfig, result: SimulationResult):
    """The analytical model matching a simulation's protocol.

    The bus model accepts inputs extracted from a snooping-ring run
    (the workload event mix is protocol-independent at this level),
    which is how Figure 6 and Table 4 pair one trace characterisation
    with both interconnects.
    """
    family = family_for_protocol(config.protocol)
    return MODEL_FAMILIES[family](config, result.inputs)


def _target_config(
    num_processors: int,
    protocol: Protocol,
    config: Optional[SystemConfig],
) -> SystemConfig:
    base = config or SystemConfig(
        num_processors=num_processors, protocol=protocol
    )
    return replace(base, num_processors=num_processors, protocol=protocol)


def extraction_point(
    benchmark: str,
    num_processors: int,
    protocol: Protocol,
    config: Optional[SystemConfig] = None,
    data_refs: int = DEFAULT_DATA_REFS,
    extraction_protocol: Optional[Protocol] = None,
) -> "SweepPoint":
    """The simulation a hybrid sweep needs, as a schedulable point.

    This is the parameter-extraction half of :func:`hybrid_sweep`
    reified as a :class:`repro.core.parallel.SweepPoint`, so callers
    assembling many panels (Figure 3's nine, Figure 6's four curves...)
    can fan every extraction out across a process pool with
    :func:`repro.core.parallel.execute_points` and then finish each
    sweep with :func:`sweep_from_result` -- bit-identical to calling
    :func:`hybrid_sweep` serially, because the simulation itself is
    unchanged.
    """
    from repro.core.parallel import SweepPoint

    if extraction_protocol is None:
        extraction_protocol = (
            Protocol.SNOOPING if protocol is Protocol.BUS else protocol
        )
    base = _target_config(num_processors, protocol, config)
    extraction_config = replace(
        base,
        protocol=extraction_protocol,
        processor=replace(base.processor, cycle_ps=EXTRACTION_CYCLE_PS),
    )
    return SweepPoint(
        benchmark=benchmark,
        num_processors=num_processors,
        protocol=extraction_protocol,
        data_refs=data_refs,
        config=extraction_config,
    )


def sweep_from_result(
    simulated: SimulationResult,
    num_processors: int,
    protocol: Protocol,
    config: Optional[SystemConfig] = None,
    cycles_ns: Optional[Sequence[float]] = None,
) -> SweepResult:
    """The model half of a hybrid sweep, from a finished extraction.

    A curve is one configuration along the cycle axis, so the scalar
    models solve it (no NumPy needed); :func:`surface_from_result` is
    the grid counterpart for parameter cross-products.
    """
    base = _target_config(num_processors, protocol, config)
    cycles = list(cycles_ns) if cycles_ns else list(PAPER_CYCLE_SWEEP_NS)
    return model_for(base, simulated).sweep(cycles)


def surface_from_result(
    simulated: SimulationResult,
    num_processors: int,
    protocol: Protocol,
    config: Optional[SystemConfig] = None,
    parameters: Optional[Dict[str, Sequence[int]]] = None,
    cycles_ns: Optional[Sequence[float]] = None,
) -> "GridSolution":
    """The model half of a design surface, from a finished extraction.

    Crosses every ``parameters`` axis (names from
    ``repro.core.sensitivity.SUPPORTED_PARAMETERS``) with the processor
    cycle sweep and solves it all in one vectorized pass
    (:func:`repro.models.grid.solve_grid`, needs NumPy).
    """
    from repro.models import grid as grid_engine

    base = _target_config(num_processors, protocol, config)
    return grid_engine.solve_grid(
        grid_engine.ModelGrid.from_product(
            family_for_protocol(protocol),
            base,
            simulated.inputs,
            cycles_ns=cycles_ns,
            parameters=parameters,
        )
    )


def hybrid_sweep(
    benchmark: str,
    num_processors: int,
    protocol: Protocol,
    config: Optional[SystemConfig] = None,
    data_refs: int = DEFAULT_DATA_REFS,
    cycles_ns: Optional[Sequence[float]] = None,
    extraction_protocol: Optional[Protocol] = None,
    check_invariants: bool = False,
) -> SweepResult:
    """One full hybrid evaluation: simulate once, sweep with the model.

    ``extraction_protocol`` lets the bus curves reuse a snooping-ring
    extraction (the paper's Figure 6 runs the snooping protocol on
    both interconnects); it defaults to ``protocol`` for ring sweeps
    and to snooping for bus sweeps.

    ``check_invariants`` runs the extraction simulation under the
    runtime coherence monitor (cache bypassed -- see
    :func:`repro.core.experiment.run_simulation_cached`); the model
    half is pure arithmetic and needs no checking.
    """
    point = extraction_point(
        benchmark,
        num_processors,
        protocol,
        config=config,
        data_refs=data_refs,
        extraction_protocol=extraction_protocol,
    )
    simulated = run_simulation_cached(
        benchmark,
        num_processors,
        point.protocol,
        data_refs=data_refs,
        config=point.config,
        check_invariants=check_invariants,
    )
    return sweep_from_result(
        simulated,
        num_processors,
        protocol,
        config=config,
        cycles_ns=cycles_ns,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Model-vs-simulation deltas at one operating point."""

    benchmark: str
    protocol: Protocol
    processor_cycle_ns: float
    sim_processor_utilization: float
    model_processor_utilization: float
    sim_network_utilization: float
    model_network_utilization: float
    sim_shared_miss_latency_ns: float
    model_shared_miss_latency_ns: float

    @property
    def utilization_error(self) -> float:
        """Absolute error in processor utilisation (fractional points)."""
        return abs(
            self.model_processor_utilization - self.sim_processor_utilization
        )

    @property
    def network_error(self) -> float:
        return abs(
            self.model_network_utilization - self.sim_network_utilization
        )

    @property
    def latency_error_percent(self) -> float:
        if self.sim_shared_miss_latency_ns <= 0.0:
            return 0.0
        return (
            100.0
            * abs(
                self.model_shared_miss_latency_ns
                - self.sim_shared_miss_latency_ns
            )
            / self.sim_shared_miss_latency_ns
        )


def validate_model(
    benchmark: str,
    num_processors: int,
    protocol: Protocol,
    config: Optional[SystemConfig] = None,
    data_refs: int = DEFAULT_DATA_REFS,
    processor_cycle_ps: int = EXTRACTION_CYCLE_PS,
) -> ValidationReport:
    """Compare the model against the simulation it was extracted from.

    The paper validates its models the same way ("All model
    predictions fall within 15% of the simulated values for latencies,
    and within 5% for processor and network utilizations").
    """
    base = config or SystemConfig(
        num_processors=num_processors, protocol=protocol
    )
    base = replace(
        base,
        num_processors=num_processors,
        protocol=protocol,
        processor=replace(base.processor, cycle_ps=processor_cycle_ps),
    )
    simulated = run_simulation_cached(
        benchmark, num_processors, protocol, data_refs=data_refs, config=base
    )
    model = model_for(base, simulated)
    point = model.solve(processor_cycle_ps)
    return ValidationReport(
        benchmark=benchmark,
        protocol=protocol,
        processor_cycle_ns=processor_cycle_ps / 1000.0,
        sim_processor_utilization=simulated.processor_utilization,
        model_processor_utilization=point.processor_utilization,
        sim_network_utilization=simulated.network_utilization,
        model_network_utilization=point.network_utilization,
        sim_shared_miss_latency_ns=simulated.shared_miss_latency_ns,
        model_shared_miss_latency_ns=point.shared_miss_latency_ns,
    )
