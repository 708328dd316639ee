"""The engines commit through the spec's derived tables.

``repro.sim.engine`` derives one commit table per protocol from
``repro.spec.SPECS`` at import, and every engine's transactions end in
one :meth:`~repro.sim.engine.CoherenceEngine.commit` that runs the
table's cell.  Pinned here:

* the table itself: hits and dirty-line upgrades have no cell;
* the shared write-back-buffer reclaim, read and write, on all five
  engines (the reclaim path is shown to be taken, not just reachable);
* an empty cell is a :class:`ProtocolError` naming the protocol,
  event, state and guard, on all five engines;
* swapping in a mutant spec's table changes what the engines do: the
  exhaustive search finds the bug it plants, in the bookkeeping ops
  and in the remote ops (who is invalidated or downgraded);
* an AST lint: under ``ring/`` and ``bus/``, only the interconnects'
  named delivery hooks snoop a cache or scan for sharers.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import check
from repro.core.config import Protocol
from repro.core.metrics import MissClass
from repro.memory.cache import AccessOutcome
from repro.memory.states import CacheState
from repro.sim import engine as engine_module
from repro.sim.engine import (
    COMMIT_TABLES,
    REMOTE_OPS,
    ProtocolError,
    commit_rules,
)
from repro.spec import SPECS, mutate_rule, spec_for
from tests.conftest import make_engine, run_reference, simulation_modules

ALL_PROTOCOLS = list(Protocol)


def remote_index(engine, node: int = 0) -> int:
    """The index of a shared block homed away from ``node``: any miss
    on it that crosses the interconnect is not ``LOCAL_CLEAN``."""
    address_map = engine.address_map
    return next(
        index
        for index in range(64)
        if address_map.home_of(address_map.shared_block_address(index)) != node
    )


def test_importing_the_engines_leaves_the_interpreter_unloaded():
    # The engines need only the tables; the checker's interpreter
    # stays off their import path (a fresh process pays for every
    # module it compiles).
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, repro; "
        "assert 'repro.spec.core' in sys.modules; "
        "assert 'repro.spec.interp' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_every_spec_has_a_table():
    assert set(COMMIT_TABLES) == set(SPECS)
    for engine_class in {type(make_engine(p)[1]) for p in ALL_PROTOCOLS}:
        assert engine_class.spec_name in COMMIT_TABLES


@pytest.mark.parametrize("protocol", list(SPECS))
def test_table_has_no_hit_or_dirty_upgrade_cell(protocol):
    table = COMMIT_TABLES[protocol]
    for dirty in (False, True):
        assert (False, CacheState.RS, dirty) not in table
        assert (False, CacheState.WE, dirty) not in table
        assert (True, CacheState.WE, dirty) not in table
    assert (True, CacheState.RS, True) not in table
    assert table[(True, CacheState.RS, False)][1][-1] == "upgrade-line"
    assert table[(False, CacheState.INV, True)][1][0] == "memory-writeback"


#: Each miss or upgrade cell's remote ops, the same for every protocol:
#: the protocols differ only in how they deliver them.
REMOTE_CELLS = {
    (False, CacheState.INV, False): (),
    (False, CacheState.INV, True): ("downgrade-owner",),
    (True, CacheState.RS, False): ("invalidate-sharers",),
    (True, CacheState.INV, False): ("invalidate-sharers",),
    (True, CacheState.INV, True): ("invalidate-owner",),
}


@pytest.mark.parametrize("protocol", list(SPECS))
def test_table_cells_carry_their_remote_ops(protocol):
    table = COMMIT_TABLES[protocol]
    assert set(table) == set(REMOTE_CELLS)
    for key, remote in REMOTE_CELLS.items():
        assert table[key][0] == remote


# ----------------------------------------------------------------------
# The shared write-back-buffer reclaim
# ----------------------------------------------------------------------
#: The coherence view after node 0 reclaims, per view style and
#: reference: a write keeps the dirty ownership, a read surrenders it.
RECLAIMED_VIEWS = {
    ("dirty-bit", False): ("dirty-bit", False, None),
    ("dirty-bit", True): ("dirty-bit", True, 0),
    ("full-map", False): ("full-map", False, (0,)),
    ("full-map", True): ("full-map", True, (0,)),
    ("list", False): ("list", False, (0,)),
    ("list", True): ("list", True, (0,)),
}


@pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: p.value)
def test_reclaim_from_writeback_buffer(protocol, is_write):
    sim, engine = make_engine(protocol)
    index = remote_index(engine)
    address = engine.address_map.shared_block_address(index)
    block = engine.address_map.block_of(address)
    conflict = engine.address_map.shared_block_address(
        index + engine.caches[0].num_lines
    )
    run_reference(sim, engine, 0, address, True)
    assert engine.caches[0].victim_for(conflict) == (address, CacheState.WE)
    engine.reset_statistics()
    box = {}

    def driver():
        # The block leaves for the write-back buffer and is referenced
        # again before its queued write-back has run.
        engine.prepare_victim(0, conflict)
        assert engine.owned_by(address, 0)
        outcome = engine.caches[0].classify(address, is_write)
        box["latency"] = yield from engine.miss(0, address, outcome)

    sim.spawn(driver(), name="reclaim")
    sim.run()

    # The reclaim path: only the local cache response, no interconnect
    # transaction, a LOCAL_CLEAN miss on a remote-homed block, and the
    # queued write-back aborted.
    assert box["latency"] == engine.config.memory.cache_response_ps
    assert engine.stats.counts_by_class()[MissClass.LOCAL_CLEAN] == 1
    assert sum(engine.stats.counts_by_class().values()) == 1
    assert engine.stats.writebacks == 0
    assert engine.stats.sharing_writebacks == (0 if is_write else 1)
    assert engine.caches[0].state_of(address) is (
        CacheState.WE if is_write else CacheState.RS
    )
    style = SPECS[engine.spec_name].view_style
    assert engine.coherence_view(block) == RECLAIMED_VIEWS[(style, is_write)]
    engine.check_invariants()


# ----------------------------------------------------------------------
# Empty cells
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: p.value)
def test_upgrade_of_dirty_line_raises(protocol):
    sim, engine = make_engine(protocol)
    address = engine.address_map.shared_block_address(remote_index(engine))
    run_reference(sim, engine, 0, address, False)
    # Corrupt the bookkeeping: node 1 now owns the block node 0 holds
    # RS.  The spec has no rule for upgrading a dirty line.
    engine.track_exclusive(1, address)
    assert engine.caches[0].classify(address, True) is AccessOutcome.UPGRADE
    with pytest.raises(ProtocolError) as raised:
        run_reference(sim, engine, 0, address, True)
    assert (
        f"{engine.spec_name}: no rule commits (write, RS, line-dirty)"
        in str(raised.value)
    )


# ----------------------------------------------------------------------
# The engines run the table
# ----------------------------------------------------------------------
#: At least one mutant per protocol: a rule with one bookkeeping action
#: dropped.
MUTANTS = [
    ("snooping", "write-miss-clean", "set-dirty-bit"),
    ("directory", "write-miss-clean", "dir-set-exclusive"),
    ("directory", "read-miss-clean", "dir-add-sharer"),
    ("linkedlist", "read-miss-clean", "list-prepend"),
    ("bus", "read-miss-dirty", "sharing-writeback"),
    ("hierarchical", "upgrade-clean", "set-dirty-bit"),
]


@pytest.mark.parametrize(
    "protocol,rule,action", MUTANTS, ids=lambda value: str(value)
)
def test_mutant_table_changes_engine_behaviour(
    monkeypatch, protocol, rule, action
):
    clean = check.explore(protocol, nodes=2, lines=1, expansion="engine")
    assert clean.ok and clean.complete

    mutant = mutate_rule(spec_for(protocol), rule, drop_action=action)
    monkeypatch.setitem(
        engine_module.COMMIT_TABLES, protocol, commit_rules(mutant)
    )
    report = check.explore(protocol, nodes=2, lines=1, expansion="engine")
    assert not report.ok
    assert report.counterexample.kind == "agreement"


#: Every protocol's remote action in each rule that has one: the
#: engines take whom to invalidate or downgrade from the table too.
REMOTE_MUTANTS = [
    (protocol, rule.name, action)
    for protocol, spec in SPECS.items()
    for rule in spec.rules
    for action in rule.actions
    if spec.op_of(action) in REMOTE_OPS
]


def test_every_miss_and_upgrade_rule_has_a_remote_mutant():
    assert len(REMOTE_MUTANTS) == 4 * len(SPECS)
    assert {rule for _, rule, _ in REMOTE_MUTANTS} == {
        "write-miss-clean",
        "write-miss-dirty",
        "read-miss-dirty",
        "upgrade-clean",
    }


@pytest.mark.parametrize(
    "protocol,rule,action", REMOTE_MUTANTS, ids=lambda value: str(value)
)
def test_mutant_remote_op_changes_engine_behaviour(
    monkeypatch, protocol, rule, action
):
    mutant = mutate_rule(spec_for(protocol), rule, drop_action=action)
    monkeypatch.setitem(
        engine_module.COMMIT_TABLES, protocol, commit_rules(mutant)
    )
    report = check.explore(protocol, nodes=2, lines=1, expansion="engine")
    assert not report.ok


# ----------------------------------------------------------------------
# The interconnects only deliver
# ----------------------------------------------------------------------
#: The cache snoops and the dirty-bit sharer scan.
REMOTE_CALLS = {
    "snoop_invalidate",
    "snoop_downgrade",
    "schedule_invalidate",
    "schedule_downgrade",
    "sharers_other_than",
}

#: The named delivery hooks under ``ring/`` and ``bus/`` that may use
#: them: the passage delivery (snooping, the hierarchy's rings and the
#: directory's multicast) and the list's purge walk.  The immediate
#: snoop and the sharer scan live in ``sim/engine.py``.
DELIVERY_HOOKS = {
    "ring/base.py": {"snoop_passing"},
    "ring/linkedlist.py": {"_purge_walk"},
}


def _remote_calls(tree):
    """``(enclosing function, name, line)`` for every mention of a
    :data:`REMOTE_CALLS` name."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.alias):
                name = child.name
            else:
                name = None
            if name in REMOTE_CALLS:
                yield inner, name, getattr(child, "lineno", node.lineno)
            stack.append((child, inner))


@pytest.mark.parametrize(
    "relative",
    [
        relative
        for relative in simulation_modules()
        if relative.startswith(("ring/", "bus/"))
    ],
)
def test_only_delivery_hooks_snoop_or_scan_for_sharers(relative):
    """The bodies take whom to invalidate or downgrade from the spec's
    table; under ``ring/`` and ``bus/`` a snoop or a sharer scan
    appears only inside the module's named delivery hooks."""
    root = pathlib.Path(repro.__file__).parent
    tree = ast.parse((root / relative).read_text())
    hooks = DELIVERY_HOOKS.get(relative, set())
    used = set()
    for function, name, line in _remote_calls(tree):
        assert function in hooks, (
            f"{relative}:{line} names {name} outside a delivery hook "
            f"({sorted(hooks)}); take the remote ops from the table"
        )
        used.add(function)
    assert used == hooks, f"{relative}: unused delivery hooks {hooks - used}"
