"""The perf bench harness: suites, baselines and the regression gate."""

from __future__ import annotations

import json

import pytest

from repro.perf import bench


def test_models_suite_reports_deterministic_counters(tmp_path):
    first = bench.run_suite("models", quick=True)
    second = bench.run_suite("models", quick=True)
    names = [w.name for w in first.workloads]
    assert "sweep.snooping" in names and "matching.table4" in names
    # Work counters are exact and repeatable; wall time is not.
    assert [w.counters for w in first.workloads] == [
        w.counters for w in second.workloads
    ]
    for workload in first.workloads:
        if workload.name == "grid.solve":
            # The vectorized engine gates its own counter.
            assert workload.gate == ("grid_evals",)
            assert workload.counters["grid_evals"] > 0
            assert workload.counters["points_failed"] == 0
        else:
            assert workload.gate == ("model_evals",)
            assert workload.counters["model_evals"] > 0
        assert all(name in workload.counters for name in workload.gate)

    assert "grid.solve" in names

    # Round trip through the baseline file format.
    path = bench.write_baseline(first, tmp_path)
    assert path.endswith("BENCH_models.json")
    baseline = bench.load_baseline("models", tmp_path)
    assert baseline["schema"] == bench.BASELINE_SCHEMA
    assert baseline["mode"] == "quick"
    assert bench.check_against_baseline(second, baseline) == []


def test_check_suite_gates_exact_exploration_counters(tmp_path):
    report = bench.run_suite("check", quick=True)
    names = [w.name for w in report.workloads]
    # All five protocols, hierarchical included.
    assert len(names) == 5
    assert any("hierarchical" in name for name in names)
    for workload in report.workloads:
        assert workload.gate == ("states", "steps_applied")
        assert workload.counters["states"] > 0
        assert workload.counters["steps_applied"] > 0
    path = bench.write_baseline(report, tmp_path)
    assert path.endswith("BENCH_check.json")
    baseline = bench.load_baseline("check", tmp_path)
    assert bench.check_against_baseline(report, baseline) == []


def test_check_suite_is_registered():
    assert "check" in bench.suite_names()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        bench.run_suite("nope")


def _fake_report(counter_value):
    return bench.BenchReport(
        suite="kernel",
        mode="quick",
        workloads=[
            bench.WorkloadResult(
                name="w",
                wall_s=0.1,
                counters={"events_processed": counter_value},
                gate=("events_processed",),
            )
        ],
    )


def test_gate_flags_regressions_and_passes_improvements():
    baseline = _fake_report(1_000).to_jsonable()
    # Within tolerance: pass.
    assert bench.check_against_baseline(_fake_report(1_150), baseline) == []
    # Improvement: pass.
    assert bench.check_against_baseline(_fake_report(500), baseline) == []
    # >20% growth: regression.
    problems = bench.check_against_baseline(_fake_report(1_300), baseline)
    assert len(problems) == 1
    assert "events_processed" in problems[0]
    assert "+30.0%" in problems[0]


def test_gate_rejects_mode_mismatch_and_missing_workloads():
    baseline = _fake_report(1_000).to_jsonable()
    full_run = _fake_report(1_000)
    full_run.mode = "full"
    assert any(
        "mode" in p for p in bench.check_against_baseline(full_run, baseline)
    )
    empty = bench.BenchReport(suite="kernel", mode="quick")
    assert any(
        "missing" in p for p in bench.check_against_baseline(empty, baseline)
    )


def test_committed_baselines_are_current_schema():
    """The checked-in baselines must stay loadable by this harness."""
    for suite in bench.suite_names():
        baseline = bench.load_baseline(suite, ".")
        if baseline is None:  # running from an unusual cwd
            pytest.skip("baselines not visible from test cwd")
        assert baseline["schema"] == bench.BASELINE_SCHEMA
        assert baseline["mode"] == "quick"
        for entry in baseline["workloads"].values():
            assert entry["gate"]
            assert all(g in entry["counters"] for g in entry["gate"])
        # And they are valid JSON fixtures byte-for-byte re-emittable.
        json.dumps(baseline)
