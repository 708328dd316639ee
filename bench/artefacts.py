"""The paper's tables and figures, rebuilt from ``repro``'s public API.

This is what a user runs to reproduce the paper: Tables 1-4, Figures
3-6 and the section 4 model validation, each simulated once per
configuration and swept with the analytical models.  It follows the
paper harness in ``benchmarks/`` but is its own copy, so edits there
cannot change what the benchmark measures, and every configuration
carries the benchmark's seed.

Traces are a fifth of the harness's length (``REFS_SPLASH``,
``REFS_MIT``) so that a run can time two cold passes.  Of the lengths
measured, that is the shortest whose cold pass still splits its time
between the layers as a full-length one does (see README.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict

import repro.analysis as analysis
from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import run_simulation_cached
from repro.core.hybrid import extraction_point, sweep_from_result, validate_model
from repro.core.metrics import MissClass
from repro.core.sweep import FIG3_BENCHMARKS, FIG4_BENCHMARKS, FIG6_BENCHMARKS
from repro.models.matching import matching_bus_clock_ns
from repro.models.snoop_rate import snoop_rate_table
from repro.traces.benchmarks import available_configurations

#: Per-processor references for the 8-32 processor SPLASH runs.
REFS_SPLASH = 1_200
#: Per-processor references for the 64-processor MIT runs.
REFS_MIT = 500

SPLASH = ("mp3d", "water", "cholesky")
SWEEP_METRICS = (
    ("processor_utilization", "processor utilization"),
    ("network_utilization", "network utilization"),
    ("shared_miss_latency_ns", "miss latency (ns)"),
)


def _refs(processors: int) -> int:
    return REFS_MIT if processors == 64 else REFS_SPLASH


class Paper:
    """Every artefact for one seed; :meth:`builders` maps each name to
    the function that renders it, in a fixed order."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Worst model-vs-simulation latency error of the last
        #: validation, percent (the paper claims under 15).
        self.worst_latency_error_pct = 0.0

    def config(self, processors: int, protocol: Protocol = Protocol.SNOOPING) -> SystemConfig:
        return SystemConfig(num_processors=processors, protocol=protocol, seed=self.seed)

    def simulate(self, name: str, processors: int, protocol: Protocol):
        return run_simulation_cached(
            name,
            processors,
            protocol,
            data_refs=_refs(processors),
            config=self.config(processors, protocol),
        )

    def sweep(self, name: str, processors: int, protocol: Protocol, config: SystemConfig):
        point = extraction_point(
            name, processors, protocol, config=config, data_refs=_refs(processors)
        )
        simulated = run_simulation_cached(
            name,
            processors,
            point.protocol,
            data_refs=point.data_refs,
            config=point.config,
        )
        return sweep_from_result(simulated, processors, protocol, config=config)

    # ------------------------------------------------------------------
    def table1(self) -> str:
        rows = []
        for name in SPLASH:
            for protocol, tag in ((Protocol.DIRECTORY, "full"), (Protocol.LINKED_LIST, "l.list")):
                stats = self.simulate(name, 16, protocol).stats
                miss = stats.miss_traversals.as_paper_row()
                invalidate = stats.upgrade_traversals.as_paper_row()
                rows.append(
                    {
                        "benchmark": f"{name}16",
                        "protocol": tag,
                        "miss 1/2/3+ %": "/".join(f"{v:.1f}" for v in miss.values()),
                        "inv 1/2/3+ %": "/".join(f"{v:.1f}" for v in invalidate.values()),
                    }
                )
        return analysis.render_table(rows, title="Table 1: ring traversals per transaction")

    def table2(self) -> str:
        rows = []
        for name, processors in available_configurations():
            trace = self.simulate(name, processors, Protocol.SNOOPING).trace
            rows.append(
                {
                    "benchmark": name,
                    "proc": processors,
                    "instr/data": trace.instr_refs / trace.data_refs,
                    "shared frac": trace.shared_fraction,
                    "priv %w": trace.private_write_percent,
                    "shrd %w": trace.shared_write_percent,
                    "total miss %": trace.total_miss_rate_percent,
                    "shared miss %": trace.shared_miss_rate_percent,
                }
            )
        return analysis.render_table(rows, title="Table 2: trace characteristics", decimals=3)

    def table3(self) -> str:
        return analysis.render_table(
            snoop_rate_table(), title="Table 3: snooping rate (ns)", decimals=0
        )

    def table4(self) -> str:
        rows = []
        for name in SPLASH:
            for processors in (8, 16, 32):
                inputs = self.simulate(name, processors, Protocol.SNOOPING).inputs
                for ring_mhz in (250, 500):
                    base = self.config(processors)
                    config = replace(base, ring=replace(base.ring, clock_ps=round(1e6 / ring_mhz)))
                    clocks = [
                        matching_bus_clock_ns(config, inputs, round(1e6 / mips))
                        for mips in (100, 200, 400)
                    ]
                    rows.append(
                        {
                            "benchmark": f"{name} {processors}",
                            "ring": f"{ring_mhz} MHz",
                            "bus ns at 100/200/400 MIPS": "/".join(f"{c:.1f}" for c in clocks),
                        }
                    )
        return analysis.render_table(rows, title="Table 4: matching 64-bit bus clock")

    def _panels(self, figure: str, panels, protocols_and_configs) -> str:
        blocks = []
        for name, processors in panels:
            sweeps = [
                self.sweep(name, processors, protocol, config)
                for protocol, config in protocols_and_configs(processors)
            ]
            for metric, label in SWEEP_METRICS:
                blocks.append(
                    analysis.render_sweeps(
                        sweeps,
                        metric,
                        title=f"{figure} {name.upper()}-{processors}: {label}",
                        width=48,
                        height=10,
                    )
                )
            blocks.append(
                "\n".join(analysis.series_summary(s, "shared_miss_latency_ns") for s in sweeps)
            )
        return "\n\n".join(blocks)

    def _ring_protocols(self, processors: int):
        return [
            (protocol, self.config(processors, protocol))
            for protocol in (Protocol.SNOOPING, Protocol.DIRECTORY)
        ]

    def _ring_and_bus(self, processors: int):
        curves = []
        for mhz in (500.0, 250.0):
            base = self.config(processors)
            curves.append(
                (Protocol.SNOOPING, replace(base, ring=replace(base.ring, clock_ps=round(1e6 / mhz))))
            )
        for mhz in (100.0, 50.0):
            base = self.config(processors, Protocol.BUS)
            curves.append(
                (Protocol.BUS, replace(base, bus=replace(base.bus, clock_ps=round(1e6 / mhz))))
            )
        return curves

    def figure3(self) -> str:
        return self._panels("Fig 3", FIG3_BENCHMARKS, self._ring_protocols)

    def figure4(self) -> str:
        return self._panels("Fig 4", FIG4_BENCHMARKS, self._ring_protocols)

    def figure5(self) -> str:
        rows = []
        for name, processors in available_configurations():
            shares = self.simulate(name, processors, Protocol.DIRECTORY).stats.miss_class_percentages()
            rows.append(
                {
                    "config": f"{name}{processors}",
                    "1-cycle clean": shares.get(MissClass.REMOTE_CLEAN, 0.0),
                    "1-cycle dirty": shares.get(MissClass.DIRTY_ONE_CYCLE, 0.0)
                    + shares.get(MissClass.REMOTE_DIRTY, 0.0),
                    "2-cycle": shares.get(MissClass.TWO_CYCLE, 0.0),
                }
            )
        return analysis.render_table(rows, title="Fig 5: directory remote misses by class (%)", decimals=1)

    def figure6(self) -> str:
        return self._panels("Fig 6", FIG6_BENCHMARKS, self._ring_and_bus)

    def validation(self) -> str:
        rows = []
        worst = 0.0
        for name, processors in available_configurations():
            for protocol in (Protocol.SNOOPING, Protocol.DIRECTORY):
                report = validate_model(
                    name,
                    processors,
                    protocol,
                    config=self.config(processors, protocol),
                    data_refs=_refs(processors),
                )
                worst = max(worst, report.latency_error_percent)
                rows.append(
                    {
                        "config": f"{name}{processors} {protocol.value}",
                        "proc util sim/model": f"{report.sim_processor_utilization:.3f}/"
                        f"{report.model_processor_utilization:.3f}",
                        "latency sim/model ns": f"{report.sim_shared_miss_latency_ns:.0f}/"
                        f"{report.model_shared_miss_latency_ns:.0f}",
                        "lat err %": report.latency_error_percent,
                    }
                )
        self.worst_latency_error_pct = worst
        return analysis.render_table(rows, title="Model validation at 50 MIPS", decimals=1)

    def builders(self) -> Dict[str, Callable[[], str]]:
        return {
            "table1": self.table1,
            "table2": self.table2,
            "table3": self.table3,
            "table4": self.table4,
            "figure3": self.figure3,
            "figure4": self.figure4,
            "figure5": self.figure5,
            "figure6": self.figure6,
            "validation": self.validation,
        }
