"""The guarded-action protocol specs (repro.spec) and their wiring.

One source of truth for coherence transitions, enforced at three
layers, each pinned here:

* **Structure.**  Every registered spec passes
  :func:`repro.spec.validate_spec`; the union of commits across all
  protocols is exactly ``ALLOWED_TRANSITIONS``; the canonical
  :func:`repro.spec.commit_table` is duplicate-free and legal.
* **Execution.**  The explorer's ``expansion="spec"`` mode -- the live
  engine cross-checked step-by-step against the spec -- is
  bit-identical (visited fingerprints, counters, completeness) to the
  plain engine expansion for every protocol; the engine-free
  ``spec-only`` mode matches on the race-free alphabet.
* **Sensitivity.**  A single-field mutation of one rule (guard,
  next-state, dropped action) is caught -- by the validator when it is
  structurally illegal, by the exhaustive search as a
  ``spec-divergence`` counterexample when it is structurally fine but
  disagrees with the engine.

Plus the import-direction lints: simulation modules never import
``repro.spec`` from a function body (the engines derive their commit
tables from it at import, never at simulation time), and
``repro.spec`` itself must stay free of observer packages so that the
engines' module-level import keeps the hot-path lint.  A last lint
keeps the transaction bodies under ``ring/`` and ``bus/`` from
choosing fill states themselves.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro import check
from repro.memory.states import ALLOWED_TRANSITIONS, CacheState
from repro.spec import (
    SPECS,
    SpecValidationError,
    commit_table,
    diff_tables,
    mutate_rule,
    render_table,
    spec_for,
    validate_spec,
)
from tests.conftest import simulation_modules

PROTOCOLS = tuple(SPECS)


# ----------------------------------------------------------------------
# Structure: validation, coverage of ALLOWED_TRANSITIONS, commit tables
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_registered_specs_validate(protocol):
    validate_spec(spec_for(protocol))


def _allowed_commits():
    return {
        (action, before, after)
        for action, pairs in ALLOWED_TRANSITIONS.items()
        for before, after in pairs
    }


def test_specs_jointly_cover_allowed_transitions_exactly():
    allowed = _allowed_commits()
    covered = set()
    for protocol in PROTOCOLS:
        commits = spec_for(protocol).commits()
        assert commits <= allowed
        covered |= commits
    assert covered == allowed


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commit_table_is_canonical_and_legal(protocol):
    table = commit_table(protocol)
    assert len(table) == len(set(table))
    assert set(table) <= _allowed_commits()
    # Deterministic: derivation is order-stable across calls.
    assert table == commit_table(protocol)


def test_render_and_diff_are_stable_text():
    table = render_table(spec_for("linkedlist"))
    assert "read-miss-dirty" in table and "head-downgrade" in table
    same = diff_tables(spec_for("bus"), spec_for("bus"))
    assert all(line.startswith("=") or "---" in line or "+++" in line
               for line in same.splitlines())
    cross = diff_tables(spec_for("snooping"), spec_for("directory"))
    assert "~ read-miss-clean" in cross


# ----------------------------------------------------------------------
# Execution: spec expansion is bit-identical to engine expansion
# ----------------------------------------------------------------------
def _fingerprint(report):
    return (
        report.states,
        report.steps_applied,
        report.states_expanded,
        report.complete,
        report.ok,
        tuple(report.visited_fingerprints),
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_spec_expansion_bit_identical_to_engine(protocol):
    engine = check.explore(protocol, nodes=2, lines=2)
    spec = check.explore(protocol, nodes=2, lines=2, expansion="spec")
    assert engine.ok and spec.ok
    assert engine.complete and spec.complete
    assert _fingerprint(engine) == _fingerprint(spec)
    assert spec.expansion == "spec"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_spec_only_expansion_matches_engine_without_races(protocol):
    engine = check.explore(protocol, nodes=2, lines=2, races=False)
    pure = check.explore(
        protocol, nodes=2, lines=2, races=False, expansion="spec-only"
    )
    assert engine.ok and pure.ok
    assert engine.complete and pure.complete
    assert _fingerprint(engine) == _fingerprint(pure)


def test_spec_only_expansion_rejects_races():
    with pytest.raises(ValueError, match="race"):
        check.explore("bus", nodes=2, lines=1, expansion="spec-only")


def test_expansion_and_harness_factory_are_mutually_exclusive():
    with pytest.raises(ValueError, match="mutually exclusive"):
        check.explore(
            "bus",
            nodes=2,
            lines=1,
            expansion="spec",
            harness_factory=check.SpecHarness,
        )
    with pytest.raises(ValueError, match="unknown expansion"):
        check.explore("bus", nodes=2, lines=1, expansion="telepathy")


# ----------------------------------------------------------------------
# Sensitivity: single-field mutations are caught
# ----------------------------------------------------------------------
def test_mutated_next_state_fails_validation():
    # A granted read fill must land in RS; pointing the rule at WE is
    # a move its actions do not achieve.
    mutant = mutate_rule(
        spec_for("snooping"), "read-miss-clean", next_state=CacheState.WE
    )
    with pytest.raises(SpecValidationError):
        validate_spec(mutant)


def test_dropped_action_fails_validation():
    # Without the fill the requester cannot leave INV.
    mutant = mutate_rule(
        spec_for("directory"), "read-miss-clean", drop_action="fill-shared"
    )
    with pytest.raises(SpecValidationError):
        validate_spec(mutant)


def test_mutated_guard_is_caught_by_exploration():
    # Guard flipped to line-dirty: the very first clean-line read has
    # no enabled rule.  mutate_rule deliberately skips validation, so
    # this pins that the exhaustive search alone reports the mutant as
    # a spec divergence -- the second, independent tripwire.
    mutant = mutate_rule(
        spec_for("snooping"), "read-miss-clean", guard="line-dirty"
    )

    class MutantHarness(check.SpecCheckedHarness):
        spec_registry = {"snooping": mutant}

    report = check.explore(
        "snooping", nodes=2, lines=1, harness_factory=MutantHarness
    )
    assert not report.ok
    assert report.counterexample.kind == "spec-divergence"
    assert report.counterexample.depth == 1


def test_mutated_next_state_is_caught_by_exploration():
    # The upgrade rule mispredicts where the writer lands (INV instead
    # of WE).  Validation is skipped, so the engine comparison is what
    # exposes it: the engine commits the upgrade to WE, the spec's
    # prediction set does not contain that state.
    mutant = mutate_rule(
        spec_for("bus"),
        "upgrade-clean",
        next_state=CacheState.INV,
        drop_action="commit-upgrade",
    )

    class MutantHarness(check.SpecCheckedHarness):
        spec_registry = {"bus": mutant}

    report = check.explore(
        "bus", nodes=2, lines=1, harness_factory=MutantHarness
    )
    assert not report.ok
    assert report.counterexample.kind == "spec-divergence"


# ----------------------------------------------------------------------
# Import direction: spec at import time only, observer-free spec
# ----------------------------------------------------------------------
ENGINE_MODULES = simulation_modules()

SPEC_MODULES = ("spec/__init__.py", "spec/core.py", "spec/interp.py")


def _imports(tree, *, nested_only=False):
    """(module-name, was-nested) for every import in the tree."""
    top = set(tree.body)
    for node in ast.walk(tree):
        nested = node not in top
        if nested_only and not nested:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, nested
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", nested


@pytest.mark.parametrize("relative", ENGINE_MODULES)
def test_engine_modules_import_spec_at_module_level_only(relative):
    """A module-level import of the spec is sanctioned; pulling it in
    from a function body would put the spec layer on the simulation
    path."""
    root = pathlib.Path(repro.__file__).parent
    tree = ast.parse((root / relative).read_text())
    for module, _nested in _imports(tree, nested_only=True):
        assert not module.startswith("repro.spec"), (
            f"{relative} imports repro.spec inside a function body "
            "(simulation time); only module-level derivation is allowed"
        )


TRANSACTION_MODULES = tuple(
    relative
    for relative in ENGINE_MODULES
    if relative.startswith(("ring/", "bus/"))
)


@pytest.mark.parametrize("relative", TRANSACTION_MODULES)
def test_transaction_bodies_do_not_choose_fill_states(relative):
    """The engines under ``ring/`` and ``bus/`` commit through the
    spec's table (``CoherenceEngine.commit``): none of them passes a
    ``CacheState`` member to ``fill`` itself."""
    root = pathlib.Path(repro.__file__).parent
    tree = ast.parse((root / relative).read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name != "fill":
            continue
        for argument in list(node.args) + [kw.value for kw in node.keywords]:
            for part in ast.walk(argument):
                assert not (
                    isinstance(part, ast.Attribute)
                    and isinstance(part.value, ast.Name)
                    and part.value.id == "CacheState"
                ), (
                    f"{relative}:{node.lineno} passes a CacheState to fill; "
                    "commit the transaction through the spec instead"
                )


@pytest.mark.parametrize("relative", SPEC_MODULES)
@pytest.mark.parametrize("package", ("repro.obs", "repro.check", "numpy"))
def test_spec_package_is_observer_free(relative, package):
    """An engine module may import repro.spec at module level, so the
    spec must not (even transitively, at any nesting) drag in observers
    or numpy -- that would defeat the hot-path import lint."""
    root = pathlib.Path(repro.__file__).parent
    tree = ast.parse((root / relative).read_text())
    for module, _nested in _imports(tree):
        assert not module.startswith(package), (
            f"{relative} imports {package}; repro.spec must stay "
            "stdlib + repro.memory.states only"
        )


# ----------------------------------------------------------------------
# CLI: the spec verb
# ----------------------------------------------------------------------
def test_cli_spec_prints_tables(capsys):
    from repro.cli import main

    assert main(["spec", "--protocol", "linkedlist"]) == 0
    out = capsys.readouterr().out
    assert "linkedlist (view: list)" in out
    assert "read-miss-dirty" in out

    assert main(["spec"]) == 0
    out = capsys.readouterr().out
    for protocol in PROTOCOLS:
        assert protocol in out


def test_cli_spec_diff(capsys):
    from repro.cli import main

    assert main(["spec", "--protocol", "snooping", "--diff", "bus"]) == 0
    out = capsys.readouterr().out
    assert "--- snooping" in out and "+++ bus" in out

    assert main(["spec", "--diff", "bus"]) == 2  # needs one protocol
    assert "--diff needs a single --protocol" in capsys.readouterr().err


def test_cli_spec_verify(capsys):
    from repro.cli import main

    code = main(
        ["spec", "--verify", "--protocol", "bus", "--nodes", "2",
         "--lines", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bus: spec valid" in out
    assert "engine/spec agree" in out
