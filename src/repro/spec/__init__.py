"""Declarative guarded-action protocol specifications.

One description per protocol -- ``(state, event) -> guard, actions,
next_state`` records over the :mod:`repro.memory.states` vocabulary --
validated at import, turned into the engines' commit tables by
:mod:`repro.sim.engine`, executed abstractly by
:class:`~repro.spec.interp.SpecMachine`, cross-checked against the live
engines by ``repro check explore --expansion spec``, and
printed/diffed/verified by the ``repro spec`` CLI verb.

The package exports the tables; the checker imports the interpreter
from :mod:`repro.spec.interp` itself, so that importing the engines
does not load it.

See ``docs/SPECS.md`` for the format and a fully worked table.
"""

from repro.spec.core import (
    EVENTS,
    GUARDS,
    OP_COMMITS,
    SPECS,
    Commit,
    GuardedAction,
    ProtocolSpec,
    SpecValidationError,
    commit_table,
    diff_tables,
    mutate_rule,
    render_table,
    spec_for,
    validate_spec,
)

__all__ = [
    "EVENTS",
    "GUARDS",
    "OP_COMMITS",
    "SPECS",
    "Commit",
    "GuardedAction",
    "ProtocolSpec",
    "SpecValidationError",
    "commit_table",
    "diff_tables",
    "mutate_rule",
    "render_table",
    "spec_for",
    "validate_spec",
]
