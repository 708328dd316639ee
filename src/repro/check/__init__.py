"""Coherence model checker and runtime invariant monitor.

Three layers, one oracle (:mod:`repro.check.invariants`):

* :mod:`repro.check.explorer` -- exhaustive BFS over the quiescent
  state space of small configurations; symmetry-reduced
  (:mod:`repro.check.symmetry`), parallelisable, with minimal
  counterexamples.
* :mod:`repro.check.fuzz` -- seeded random walks over mid-size
  configurations, bit-identical replay from (seed, step);
  :func:`~repro.check.fuzz.fuzz_many` shards independent seeds
  across the process pool.
* :mod:`repro.check.monitor` -- opt-in runtime checker attached to a
  full simulation via ``Simulator.monitor`` (same duck-typed hook
  pattern as ``Simulator.tracer``; hot paths never import this
  package).

See ``docs/CHECKING.md`` for the state abstraction and the invariant
catalogue.
"""

from repro.check.explorer import Counterexample, ExploreReport, explore
from repro.check.fuzz import FuzzBatchReport, FuzzReport, fuzz, fuzz_many
from repro.check.invariants import (
    InvariantViolation,
    check_block,
    check_engine,
)
from repro.check.monitor import InvariantMonitor
from repro.check.specmode import SpecCheckedHarness, SpecHarness
from repro.check.state import EngineHarness, Ref, StepSpec
from repro.check.symmetry import CanonicalContext

__all__ = [
    "CanonicalContext",
    "Counterexample",
    "EngineHarness",
    "ExploreReport",
    "FuzzBatchReport",
    "FuzzReport",
    "InvariantMonitor",
    "InvariantViolation",
    "Ref",
    "SpecCheckedHarness",
    "SpecHarness",
    "StepSpec",
    "check_block",
    "check_engine",
    "explore",
    "fuzz",
    "fuzz_many",
]
