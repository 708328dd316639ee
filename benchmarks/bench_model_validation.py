"""Methodology validation (paper section 4.0).

The paper's hybrid methodology rests on one quantitative claim: "All
model predictions fall within 15% of the simulated values for
latencies, and within 5% for processor and network utilizations."

This bench reruns that validation for every benchmark configuration
and both ring protocols, asserting the same tolerances for the
reproduction's models.
"""

from conftest import REFS_MIT, REFS_SPLASH, emit

from repro.analysis import render_table
from repro.core.config import Protocol
from repro.core.hybrid import validate_model
from repro.traces.benchmarks import available_configurations


def regenerate_validation():
    """``(processors, report)`` per configuration and ring protocol."""
    reports = []
    for name, processors in available_configurations():
        refs = REFS_MIT if processors == 64 else REFS_SPLASH
        for protocol in (Protocol.SNOOPING, Protocol.DIRECTORY):
            reports.append(
                (
                    processors,
                    validate_model(name, processors, protocol, data_refs=refs),
                )
            )
    return reports


def test_model_validation_within_paper_tolerances(benchmark):
    labelled = benchmark.pedantic(regenerate_validation, rounds=1, iterations=1)
    reports = [report for _, report in labelled]
    rows = [
        {
            "config": (
                f"{report.benchmark} {processors}p {report.protocol.value}"
            ),
            "proc util sim/model": "{:.3f}/{:.3f}".format(
                report.sim_processor_utilization,
                report.model_processor_utilization,
            ),
            "net util sim/model": "{:.3f}/{:.3f}".format(
                report.sim_network_utilization,
                report.model_network_utilization,
            ),
            "latency sim/model (ns)": "{:.0f}/{:.0f}".format(
                report.sim_shared_miss_latency_ns,
                report.model_shared_miss_latency_ns,
            ),
            "lat err %": round(report.latency_error_percent, 1),
        }
        for processors, report in labelled
    ]
    emit(
        "model_validation",
        render_table(
            rows,
            title=(
                "Model validation at 50 MIPS (paper: latency within "
                "15%, utilizations within 5 points)"
            ),
        ),
    )
    worst_latency = max(r.latency_error_percent for r in reports)
    worst_utilization = max(r.utilization_error for r in reports)
    for report in reports:
        assert report.latency_error_percent < 15.0, (
            report.benchmark,
            report.protocol,
        )
        assert report.utilization_error < 0.05, (
            report.benchmark,
            report.protocol,
        )
    print(
        f"\nworst latency error {worst_latency:.1f}% "
        f"(paper bound 15%), worst processor-utilization error "
        f"{worst_utilization:.3f} (paper bound 0.05)"
    )
