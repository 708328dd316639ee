"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_benchmarks_lists_all_configurations(capsys):
    code, out = run_cli(capsys, "benchmarks")
    assert code == 0
    for name in ("mp3d", "water", "cholesky", "fft", "weather", "simple"):
        assert name in out


def test_snooprate_prints_table3(capsys):
    code, out = run_cli(capsys, "snooprate")
    assert code == 0
    assert "20" in out and "152" in out  # two of the paper's cells
    assert "64-bit" in out


def test_simulate_reports_metrics(capsys):
    code, out = run_cli(
        capsys, "simulate", "mp3d", "-p", "4", "-r", "800"
    )
    assert code == 0
    assert "processor utilization" in out
    assert "shared-miss latency" in out
    assert "mp3d" in out


def test_simulate_directory_protocol(capsys):
    code, out = run_cli(
        capsys,
        "simulate",
        "mp3d",
        "-p",
        "4",
        "-r",
        "800",
        "--protocol",
        "directory",
    )
    assert code == 0
    assert "directory" in out


def test_simulate_weak_ordering_flag(capsys):
    code, out = run_cli(
        capsys,
        "simulate",
        "mp3d",
        "-p",
        "4",
        "-r",
        "800",
        "--weak-ordering",
    )
    assert code == 0


def test_sweep_outputs_twenty_points(capsys):
    code, out = run_cli(capsys, "sweep", "mp3d", "-p", "4", "-r", "800")
    assert code == 0
    assert "cycle (ns)" in out
    # All twenty cycle values from the paper's axis appear.
    assert "20.0" in out and "1.0" in out


def test_compare_renders_three_charts(capsys):
    code, out = run_cli(capsys, "compare", "mp3d", "-p", "4", "-r", "800")
    assert code == 0
    assert out.count("legend") == 3
    assert "snooping" in out and "directory" in out


def test_ringbus_renders_four_series(capsys):
    code, out = run_cli(capsys, "ringbus", "mp3d", "-p", "4", "-r", "800")
    assert code == 0
    assert "bus 50 MHz" in out and "snooping ring 500 MHz" in out


def test_validate_within_tolerances(capsys):
    code, out = run_cli(capsys, "validate", "mp3d", "-p", "4", "-r", "1500")
    assert code == 0
    assert "within the paper's tolerances" in out
    assert "yes" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize(
    "verb", [("grid", "mp3d"), ("submit", "grid", "mp3d")]
)
@pytest.mark.parametrize(
    "axis, message",
    [
        (("ring_clock_ps", "abc"), "values must be integers"),
        (("ring_clock_ps",), "needs at least one value"),
    ],
)
def test_param_axis_errors_are_usage_errors(capsys, verb, axis, message):
    # Both verbs share one --param parser: a bad axis is an argparse
    # error (exit 2) before any extraction runs or any daemon is called.
    with pytest.raises(SystemExit) as excinfo:
        main([*verb, "--param", *axis])
    assert excinfo.value.code == 2
    assert f"error: --param ring_clock_ps: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb", [("grid", "mp3d"), ("submit", "grid", "mp3d")]
)
def test_repeated_param_axis_is_a_usage_error(capsys, verb):
    # A second --param with the same name would silently replace the
    # first axis; it is refused like any other malformed axis.
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                *verb,
                "--param", "ring_clock_ps", "2000",
                "--param", "ring_clock_ps", "4000", "6000",
            ]
        )
    assert excinfo.value.code == 2
    assert (
        "error: --param ring_clock_ps: axis given more than once"
        in capsys.readouterr().err
    )


def test_param_axes_collect_into_one_mapping():
    args = build_parser().parse_args(
        "grid mp3d --param ring_clock_ps 2000 4000 --param block_size 32".split()
    )
    assert args.param == {"ring_clock_ps": [2000, 4000], "block_size": [32]}


def test_submit_renders_a_grid_result(capsys):
    # A served grid prints the table 'repro grid' prints: titled by the
    # job's workload and metric, without a MIPS column.
    import json

    from repro.cli import _print_job_result
    from repro.core.config import Protocol
    from repro.core.hybrid import surface_from_result
    from repro.serve.protocol import grid_payload, parse_spec
    from tests.test_models import make_inputs

    class Extraction:
        inputs = make_inputs(Protocol.SNOOPING, 4)

    spec = parse_spec(
        {
            "kind": "grid",
            "benchmark": "mp3d",
            "processors": 4,
            "cycles_ns": [5.0, 10.0],
        }
    )
    solution = surface_from_result(
        Extraction(), 4, Protocol.SNOOPING, cycles_ns=[5.0, 10.0]
    )
    payload = json.loads(json.dumps(grid_payload(solution)))
    _print_job_result(spec.to_jsonable(), payload)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mp3d-4 snooping: processor_utilization"
    assert lines[1].split(" | ")[:2] == ["cycle (ns)", "proc util"]
    assert [line.split("|")[0].strip() for line in lines[3:]] == [
        "5.00",
        "10.00",
    ]


@pytest.mark.parametrize(
    "argv, served",
    [
        (["sweep", "mp3d"], {"kind": "sweep", "benchmark": "mp3d"}),
        (["grid", "mp3d"], {"kind": "grid", "benchmark": "mp3d"}),
    ],
)
def test_verb_defaults_equal_the_served_defaults(argv, served):
    # 'repro sweep' and 'repro grid' build their job with the function
    # 'repro submit' uses: their argparse defaults and the daemon's
    # defaults describe one job.
    from repro.cli import _submit_spec
    from repro.serve.protocol import parse_spec

    args = build_parser().parse_args(argv)
    assert parse_spec(_submit_spec(args)) == parse_spec(served)


def test_unknown_benchmark_errors(capsys):
    with pytest.raises(KeyError):
        main(["simulate", "nonexistent", "-p", "4", "-r", "100"])


def _usage_error(capsys, argv):
    """Run a command that must end in an argparse usage error (exit 2,
    no traceback); returns its stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: repro {argv[0]}" in err
    assert "Traceback" not in err
    return err


def test_simulate_refuses_one_processor_naming_p(capsys):
    err = _usage_error(capsys, ["simulate", "mp3d", "-p", "1", "-r", "100"])
    assert "error: -p/--processors: need at least 2 processors" in err


def test_sweep_refuses_one_processor_naming_p(capsys):
    err = _usage_error(capsys, ["sweep", "mp3d", "-p", "1", "-r", "100"])
    assert "error: -p/--processors: need at least 2 processors" in err


def test_validate_refuses_one_processor_naming_p(capsys):
    err = _usage_error(capsys, ["validate", "mp3d", "-p", "1", "-r", "100"])
    assert "error: -p/--processors: need at least 2 processors" in err


def test_simulate_refuses_an_indivisible_hierarchy_naming_p(capsys):
    err = _usage_error(
        capsys,
        ["simulate", "mp3d", "-p", "3", "--protocol", "hierarchical"],
    )
    assert (
        "error: -p/--processors: 3 processors do not divide into 4 clusters"
        in err
    )


def test_simulate_refuses_negative_refs(capsys):
    err = _usage_error(capsys, ["simulate", "mp3d", "-p", "4", "--refs", "-5"])
    assert "error: -r/--refs: must be >= 1, got -5" in err


def test_simulate_refuses_zero_mips(capsys):
    err = _usage_error(
        capsys, ["simulate", "mp3d", "-p", "4", "-r", "100", "--mips", "0"]
    )
    assert "error: --mips: must be > 0" in err


def test_simulate_refuses_zero_ring_mhz(capsys):
    err = _usage_error(
        capsys, ["simulate", "mp3d", "-p", "4", "-r", "100", "--ring-mhz", "0"]
    )
    assert "error: --ring-mhz: must be > 0" in err


def test_simulate_refuses_zero_bus_mhz(capsys):
    err = _usage_error(
        capsys, ["simulate", "mp3d", "-p", "4", "-r", "100", "--bus-mhz", "0"]
    )
    assert "error: --bus-mhz: must be > 0" in err


def test_check_explore_all_protocols(capsys):
    for protocol in ("snooping", "directory", "linkedlist"):
        code, out = run_cli(
            capsys,
            "check",
            "explore",
            "--protocol",
            protocol,
            "--nodes",
            "2",
            "--lines",
            "1",
        )
        assert code == 0
        assert "0 violations" in out
        assert "EXHAUSTIVE" in out


def test_check_explore_hierarchical_parallel(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "explore",
        "--protocol",
        "hierarchical",
        "--nodes",
        "4",
        "--lines",
        "1",
        "--jobs",
        "2",
        "--require-exhaustive",
    )
    assert code == 0
    assert "EXHAUSTIVE" in out


def test_check_explore_require_exhaustive_rejects_truncation(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "explore",
        "--protocol",
        "snooping",
        "--nodes",
        "2",
        "--lines",
        "1",
        "--max-depth",
        "1",
        "--require-exhaustive",
    )
    assert code == 3
    assert "TRUNCATED" in out


@pytest.mark.parametrize("option", [["--resume"], ["--cache-dir", "x"]])
def test_check_explore_keeps_no_store(option):
    # The explorer is a pure search: no checkpoint to resume, no store.
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["check", "explore", "--protocol", "snooping", *option]
        )


def test_check_fuzz_smoke(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "fuzz",
        "--protocol",
        "snooping",
        "--nodes",
        "4",
        "--lines",
        "8",
        "--steps",
        "300",
        "--seed",
        "9",
    )
    assert code == 0
    assert "0 violations" in out
    assert "seed 9" in out


def test_check_fuzz_sharded_seeds(capsys):
    code, out = run_cli(
        capsys,
        "check",
        "fuzz",
        "--protocol",
        "directory",
        "--nodes",
        "4",
        "--lines",
        "8",
        "--steps",
        "100",
        "--seed",
        "9",
        "--num-seeds",
        "3",
        "--jobs",
        "2",
    )
    assert code == 0
    assert "3 walks" in out
    assert "base seed 9" in out


@pytest.mark.parametrize(
    "protocol, nodes, reason",
    [
        ("snooping", "1", "nodes must be >= 2"),
        ("hierarchical", "3", "nodes must be even"),
        ("snooping", "12", "symmetry group of order"),
    ],
)
def test_check_explore_refuses_a_bad_setup_as_a_usage_error(
    capsys, monkeypatch, protocol, nodes, reason
):
    import repro.check

    def never(*args, **kwargs):
        raise AssertionError("explore ran on a refused setup")

    # Refused before the search: nothing is built, not even the
    # symmetry group that --nodes 12 would otherwise materialise.
    monkeypatch.setattr(repro.check, "explore", never)
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "explore", "--protocol", protocol, "--nodes", nodes])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro check explore" in err
    assert "--nodes" in err
    assert reason in err
    assert "Traceback" not in err


def test_check_explore_refuses_spec_only_with_races_naming_expansion(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "check",
                "explore",
                "--protocol",
                "snooping",
                "--expansion",
                "spec-only",
            ]
        )
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: --expansion: expansion=spec-only is exact for " in err
    assert "Traceback" not in err


def test_check_explore_refuses_zero_lines_naming_lines(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "explore", "--protocol", "snooping", "--lines", "0"])
    assert exit_info.value.code == 2
    assert "error: --lines: lines must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option, reason",
    [
        (["--protocol", "snooping", "--nodes", "1"], "--nodes", "nodes must be >= 2"),
        (["--protocol", "hierarchical", "--nodes", "3"], "--nodes", "nodes must be even"),
        (["--protocol", "snooping", "--lines", "0"], "--lines", "lines must be >= 1"),
        (["--protocol", "snooping", "--steps", "-3"], "--steps", "steps must be >= 1"),
        (
            ["--protocol", "snooping", "--num-seeds", "0"],
            "--num-seeds",
            "num_seeds must be >= 1",
        ),
    ],
)
def test_check_fuzz_refuses_a_bad_campaign_as_a_usage_error(
    capsys, monkeypatch, argv, option, reason
):
    import repro.check

    def never(*args, **kwargs):
        raise AssertionError("fuzz ran on a refused campaign")

    monkeypatch.setattr(repro.check, "fuzz", never)
    monkeypatch.setattr(repro.check, "fuzz_many", never)
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "fuzz", *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro check fuzz" in err
    assert f"error: {option}: {reason}" in err
    assert "Traceback" not in err


def test_check_requires_a_verb():
    with pytest.raises(SystemExit):
        main(["check"])


def test_simulate_with_invariant_checking(capsys):
    code, out = run_cli(
        capsys,
        "simulate",
        "mp3d",
        "-p",
        "4",
        "-r",
        "800",
        "--check-invariants",
        "--no-cache",
    )
    assert code == 0
    assert "processor utilization" in out


def test_check_explore_emit_trace_reports_replay_outcome(
    capsys, tmp_path, monkeypatch
):
    """The --emit-trace replay handler distinguishes the expected
    coherence violation (reported, not swallowed) from a replay that
    unexpectedly passes (warned about) -- and re-raises anything else."""
    from repro import check
    from repro.check.invariants import InvariantViolation

    class FakeCounterexample:
        def __init__(self, violates):
            self.violates = violates

        def replay(self, tracer=None):
            if self.violates:
                raise InvariantViolation("swmr", "two writers (stub)")

    class FakeReport:
        ok = False

        def __init__(self, violates):
            self.counterexample = FakeCounterexample(violates)

        def summary(self):
            return "1 violation (stub)"

    trace = tmp_path / "failure.jsonl"
    argv = [
        "check",
        "explore",
        "--protocol",
        "snooping",
        "--nodes",
        "2",
        "--lines",
        "1",
        "--emit-trace",
        str(trace),
    ]

    monkeypatch.setattr(check, "explore", lambda *a, **k: FakeReport(True))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "replay reproduced the violation" in err
    assert trace.exists()

    monkeypatch.setattr(check, "explore", lambda *a, **k: FakeReport(False))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "did not reproduce" in err

    class Unexpected(RuntimeError):
        pass

    def broken_replay(tracer=None):
        raise Unexpected("API drift")

    report = FakeReport(True)
    report.counterexample.replay = broken_replay
    monkeypatch.setattr(check, "explore", lambda *a, **k: report)
    with pytest.raises(Unexpected):
        main(argv)
