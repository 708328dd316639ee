"""Vectorized analytical-model engine: whole design grids in one pass.

The scalar solver in :mod:`repro.models.base` finds one fixed point per
call, which suits a curve (one configuration along the processor-cycle
axis); a design surface crosses parameter axes and needs thousands to
hundreds of thousands of them.  This module solves an entire grid of
configurations at once: configurations live in a struct-of-arrays
:class:`ModelGrid` (the scalar models' field row, one NumPy column per
field), the family's equations -- the very ``prepare`` and
``latencies`` functions the scalar models evaluate, called with
``xp=numpy`` -- run over every lane at once, and :func:`solve_grid`
prepares the grid once and runs the scalar solver's bracketed-secant
iteration with *convergence masks* -- converged points freeze,
divergent points are isolated to NaN without poisoning their
neighbours.

Equivalence contract
--------------------
Both solvers evaluate the same equations and share the same bracket
seed, stopping test and iteration budget, and the masked iteration
follows the scalar one step for step, so elementwise IEEE float64
arithmetic produces *bit-identical* results
(``tests/test_grid_models.py`` pins the two solvers together).  Two
deliberate deviations, both confined to *failed* points:

* a point whose residual is NaN at the bracket floor fails fast
  (``points_failed``) instead of stalling for the full iteration
  budget, and
* a point whose bracket doubles past the divergence cap is marked
  failed (time NaN) where the scalar solver raises
  :class:`~repro.models.base.FixedPointDiverged` -- a grid must not
  let one saturated corner abort the other 99,999 points.

Warm starts
-----------
Grids built by :meth:`ModelGrid.from_product` carry a *chain shape*
``(n_configs, n_cycles)``: the processor-cycle axis is solved column by
column, each column seeded with the previous column's solved times
(exactly the scalar ``sweep()`` warm start, batched across every
configuration at once).  Failed lanes reseed from the default guess so
a divergent point never poisons the rest of its chain.

Constant fields
---------------
A field whose column holds the same bits in every lane (the extracted
frequencies, and any machine parameter no axis moves) reaches the
equations as one 0-d float64.  Broadcasting hands every lane the value
its column holds, so results stay bit-identical, and the solver no
longer gathers or multiplies lane copies of it.

NumPy is imported here, at module level, and nowhere else.  Only grid
users (``repro grid``, served ``grid`` jobs, the ``grid.solve`` bench
workload and the ``design`` benchmark) import this module, so NumPy's
import time (over 0.1 s) stays out of every other command.  The scalar
models and the simulation hot paths never import NumPy --
``tests/test_models.py`` and the AST lint in ``tests/test_obs.py``
enforce that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.results import ModelInputs, OperatingPoint
from repro.models import MODEL_FAMILIES
from repro.models.base import (
    CONFIG_FIELDS,
    DEFAULT_GUESS_PS,
    GEOMETRY_FIELDS,
    INPUT_FIELDS,
    MAX_ITERATIONS,
    SYSTEM_FIELDS,
    SYSTEM_PATHS,
    TOLERANCE,
    config_row,
    converged as has_converged,
    family_for_protocol,
    geometry_values,
    input_values,
    latency_weights,
    system_values,
    weighted_latencies,
    weighted_sum,
)

__all__ = [
    "GRID_STATS",
    "GRID_FAMILIES",
    "GridSolution",
    "ModelGrid",
    "family_for_protocol",
    "reset_grid_stats",
    "solve_grid",
]

#: Fixed-point model families the grid engine solves.
GRID_FAMILIES = tuple(MODEL_FAMILIES)

#: Deterministic engine counters (the grid-side ``SOLVER_STATS``).
#: ``grid_evals`` counts whole-grid latency evaluations -- the unit of
#: work the ``grid.solve`` bench gate pins; ``points_failed`` is the
#: counter the convergence-mask tests assert on.
GRID_STATS = {
    "grid_solves": 0,
    "grid_evals": 0,
    "points_converged": 0,
    "points_failed": 0,
}


def reset_grid_stats() -> None:
    """Zero :data:`GRID_STATS` (start of a measured workload)."""
    for key in GRID_STATS:
        GRID_STATS[key] = 0


# ----------------------------------------------------------------------
# Struct-of-arrays grids
# ----------------------------------------------------------------------
_FIELDS = ("busy_ps",) + CONFIG_FIELDS


@dataclass
class ModelGrid:
    """A struct-of-arrays batch of model configurations.

    ``arrays`` maps each field of :data:`_FIELDS` to a float64 vector;
    all vectors share one flat length.  ``chain_shape`` is
    ``(n_configs, n_cycles)`` for grids laid out configuration-major
    with a contiguous processor-cycle axis (the warm-start chains); it
    is None for unstructured point batches.
    """

    family: str
    arrays: Dict[str, Any]
    chain_shape: Optional[Tuple[int, int]] = None

    @property
    def size(self) -> int:
        return int(self.arrays["busy_ps"].shape[0])

    @classmethod
    def from_points(
        cls,
        family: str,
        points: Sequence[Tuple[SystemConfig, ModelInputs, int]],
    ) -> "ModelGrid":
        """Grid from explicit ``(config, inputs, processor_cycle_ps)``
        triples (no chain structure; every point solves from the
        default bracket seed, like scalar ``solve()``)."""
        _check_family(family)
        points = list(points)
        if not points:
            raise ValueError("empty grid")
        rows = []
        for config, inputs, cycle_ps in points:
            row = config_row(config, inputs)
            row["busy_ps"] = float(cycle_ps)
            rows.append(row)
        arrays = {
            name: np.array([row[name] for row in rows], dtype=np.float64)
            for name in _FIELDS
        }
        return cls(family=family, arrays=arrays, chain_shape=None)

    @classmethod
    def from_product(
        cls,
        family: str,
        config: SystemConfig,
        inputs: ModelInputs,
        cycles_ns: Optional[Sequence[float]] = None,
        parameters: Optional[Dict[str, Sequence[int]]] = None,
    ) -> "ModelGrid":
        """Cross-product grid: every combination of the ``parameters``
        axes (names from ``repro.core.sensitivity``) times the
        processor-cycle sweep (default: the paper's 1-20 ns axis).

        Layout is configuration-major, so each configuration's cycle
        sweep is one contiguous warm-start chain.  The columns are laid
        out from the axes (:func:`_product_table`), not from one
        configuration per combination, and ``inputs`` is flattened
        once.  An empty axis raises ``ValueError``; a combination that
        cannot be built raises what building it alone would.
        """
        _check_family(family)
        cycles = [
            float(c) for c in (cycles_ns if cycles_ns is not None else range(1, 21))
        ]
        if not cycles:
            raise ValueError("empty cycle axis")
        axes = [(name, list(values)) for name, values in (parameters or {}).items()]
        for name, values in axes:
            if not values:
                raise ValueError(f"empty parameter axis {name!r}")
        table = _product_table(config, axes)

        n_configs = table.shape[0]
        n_cycles = len(cycles)
        n = n_configs * n_cycles
        arrays = {
            name: np.repeat(table[:, column], n_cycles)
            for column, name in enumerate(SYSTEM_FIELDS + GEOMETRY_FIELDS)
        }
        for name, value in zip(INPUT_FIELDS, input_values(inputs)):
            arrays[name] = np.full(n, value, dtype=np.float64)
        # Same quantisation as the scalar sweep(): round(cycle_ns*1000).
        busy = np.array(
            [float(round(cycle_ns * 1000)) for cycle_ns in cycles],
            dtype=np.float64,
        )
        arrays["busy_ps"] = np.tile(busy, n_configs)
        return cls(
            family=family, arrays=arrays, chain_shape=(n_configs, n_cycles)
        )


def _structural(path) -> bool:
    """Whether a parameter on ``path`` (``(part, field)``, None if
    unknown) moves something ``geometry_values`` or
    ``SystemConfig.__post_init__`` reads: the ring, the block size or
    the processor count."""
    return path is not None and (
        path[0] == "ring"
        or path in (("cache", "block_size"), (None, "num_processors"))
    )


def _product_table(config: SystemConfig, axes) -> np.ndarray:
    """The :data:`SYSTEM_FIELDS` and :data:`GEOMETRY_FIELDS` of
    ``config`` with every combination of ``axes`` (``[(name, values),
    ...]``) applied: one float64 row per combination, in
    ``itertools.product`` order.

    * Each axis value is applied to ``config`` once.  The system
      columns the axis sets (its parameter's path in
      :data:`SYSTEM_PATHS`) take that configuration's values; a column
      no axis sets holds ``config``'s.
    * The geometry is built once per combination of the *structural*
      axes (:func:`_structural`), in product order, on a real
      configuration with those axes applied.
    * Each row gathers its values by index arithmetic.

    No two parameters share a field, and of them only the processor
    count reaches ``SystemConfig.__post_init__``.  So a value that
    fails to apply fails in every combination that holds it, and so
    does a value or a geometry that fails to flatten.  The build marks
    those combinations and then builds the first of them alone, as the
    per-combination build does, which raises that build's exception.
    That build applies every combination's axes before it flattens
    any, so a combination that fails to apply comes first.
    """
    from repro.core.sensitivity import SUPPORTED_PARAMETERS, apply_parameter

    shape = tuple(len(values) for _, values in axes)
    n = math.prod(shape)
    # index[axis, row]: the position of the row's value on that axis.
    index = np.indices(shape).reshape(len(shape), n)
    width = len(SYSTEM_FIELDS)
    table = np.empty((n, width + len(GEOMETRY_FIELDS)))
    table[:, :width] = system_values(config)
    unapplied = np.zeros(n, dtype=bool)
    unflattened = np.zeros(n, dtype=bool)

    structural = []
    geometry_of_row = np.zeros(n, dtype=np.intp)
    for axis, (name, values) in enumerate(axes):
        path = SUPPORTED_PARAMETERS.get(name)
        rows = np.empty((len(values), width))
        applied = np.zeros(len(values), dtype=bool)
        flattened = np.zeros(len(values), dtype=bool)
        for position, value in enumerate(values):
            try:
                variant = apply_parameter(config, name, value)
            except Exception:
                continue
            applied[position] = True
            try:
                rows[position] = system_values(variant)
            except Exception:
                continue
            flattened[position] = True
        positions = index[axis]
        unapplied |= ~applied[positions]
        unflattened |= ~flattened[positions]
        for column, field_path in enumerate(SYSTEM_PATHS.values()):
            if field_path == path:
                table[:, column] = rows[positions, column]
        if _structural(path):
            structural.append(axis)
            geometry_of_row = geometry_of_row * len(values) + positions

    geometries = np.empty(
        (math.prod(shape[axis] for axis in structural), len(GEOMETRY_FIELDS))
    )
    built = np.zeros(geometries.shape[0], dtype=bool)
    combinations = itertools.product(*(axes[axis][1] for axis in structural))
    for number, combination in enumerate(combinations):
        variant = config
        try:
            for axis, value in zip(structural, combination):
                variant = apply_parameter(variant, axes[axis][0], value)
            geometries[number] = geometry_values(variant)
        except Exception:
            continue
        built[number] = True
    table[:, width:] = geometries[geometry_of_row]
    unflattened |= ~built[geometry_of_row]

    for failed in (unapplied, unflattened):
        if failed.any():
            first = int(np.argmax(failed))
            variant = config
            for (name, values), position in zip(axes, index[:, first]):
                variant = apply_parameter(variant, name, values[position])
            system_values(variant)
            geometry_values(variant)
            raise AssertionError(f"combination {first} was marked but builds")
    return table


def _check_family(family: str) -> None:
    if family not in MODEL_FAMILIES:
        raise ValueError(
            f"unknown model family {family!r}; pick one of {GRID_FAMILIES}"
        )


# ----------------------------------------------------------------------
# The masked fixed-point solver
# ----------------------------------------------------------------------
def _solve_flat(model, prepared, guess):
    """Solve every lane of a flat grid; returns (time, converged, failed).

    The per-lane iterate sequence is exactly the scalar solver's:
    bracket floor at max(busy, 1), doubling walk while the residual
    stays positive (cap 80, then the lane *fails* instead of raising),
    then guarded secant steps that fall back to bisection whenever the
    extrapolation leaves the bracket.  Lanes that converge freeze (their
    state is masked out of every later update), so one slow corner
    costs iterations, never accuracy.
    """
    busy = prepared["busy_ps"]
    mix = model.frequencies(prepared)
    evaluate = model.latencies
    n = busy.shape[0]

    def residual(T):
        GRID_STATS["grid_evals"] += 1
        with np.errstate(all="ignore"):
            latencies, _, _ = evaluate(prepared, T, np)
            implied = busy + weighted_sum(mix, latencies)
            return implied - T, implied

    time = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)

    low = np.maximum(busy, 1.0)
    r_low, implied_low = residual(low)

    # No contention at idle: the latencies at the bracket floor already
    # satisfy T (scalar early-return branch).
    idle = r_low <= 0.0
    time = np.where(idle, implied_low, time)
    converged = converged | idle

    # A NaN residual at the floor can never bracket a root; isolate the
    # lane now instead of burning the full iteration budget on it.
    broken = np.isnan(r_low)
    failed = failed | broken
    solving = ~(idle | broken)

    if guess is None:
        guess = np.full(n, DEFAULT_GUESS_PS)
    high = np.maximum(guess, 2.0 * low)
    with np.errstate(all="ignore"):
        r_high, _ = residual(np.where(solving, high, 1.0))

    active = solving & (r_high > 0.0)
    doublings = 0
    while bool(active.any()):
        low = np.where(active, high, low)
        r_low = np.where(active, r_high, r_low)
        high = np.where(active, high * 2.0, high)
        doublings += 1
        if doublings > 80:
            # Scalar solver raises FixedPointDiverged here; a grid
            # isolates the lane so its neighbours still solve.
            failed = failed | active
            solving = solving & ~active
            break
        r_new, _ = residual(np.where(active, high, 1.0))
        r_high = np.where(active, r_new, r_high)
        active = active & (r_high > 0.0)

    # Invariant per solving lane: r(low) > 0 >= r(high).
    t0 = low.copy()
    r0 = r_low.copy()
    t1 = high.copy()
    r1 = r_high.copy()
    for _ in range(MAX_ITERATIONS):
        if not bool(solving.any()):
            break
        with np.errstate(all="ignore"):
            denom = r1 - r0
            nonzero = denom != 0.0
            secant = t1 - r1 * (t1 - t0) / np.where(nonzero, denom, 1.0)
            candidate = np.where(nonzero, secant, low)
            span = high - low
            inside = (
                (low < candidate)
                & (candidate < high)
                & (np.abs(candidate - t1) <= span)
            )
            candidate = np.where(inside, candidate, low + 0.5 * span)
        r_cand, _ = residual(np.where(solving, candidate, 1.0))
        with np.errstate(all="ignore"):
            done = solving & has_converged(r_cand, span, candidate, TOLERANCE)
            time = np.where(done, candidate, time)
            converged = converged | done
            solving = solving & ~done
            positive = r_cand > 0.0
            low = np.where(solving & positive, candidate, low)
            high = np.where(solving & ~positive, candidate, high)
            t0 = np.where(solving, t1, t0)
            r0 = np.where(solving, r1, r0)
            t1 = np.where(solving, candidate, t1)
            r1 = np.where(solving, r_cand, r1)

    # Iteration budget exhausted: scalar solver returns the bracket
    # midpoint; a lane whose midpoint is not finite failed instead.
    if bool(solving.any()):
        mid = 0.5 * (low + high)
        good = solving & np.isfinite(mid)
        time = np.where(good, mid, time)
        converged = converged | good
        failed = failed | (solving & ~np.isfinite(mid))

    # Never report a non-finite time as converged.
    bad = converged & ~np.isfinite(time)
    converged = converged & ~bad
    failed = failed | bad
    time = np.where(failed, np.nan, time)
    return time, converged, failed


@dataclass
class GridSolution:
    """Solved operating points for every lane of a :class:`ModelGrid`.

    Failed lanes carry NaN in every metric; ``converged``/``failed``
    are boolean masks over the flat grid.
    """

    grid: ModelGrid
    time_per_instruction_ps: Any
    converged: Any
    failed: Any
    processor_utilization: Any = field(default=None)
    network_utilization: Any = field(default=None)
    bank_utilization: Any = field(default=None)
    shared_miss_latency_ns: Any = field(default=None)
    upgrade_latency_ns: Any = field(default=None)

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def n_converged(self) -> int:
        return int(self.converged.sum())

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())

    @property
    def processor_cycle_ns(self):
        return self.grid.arrays["busy_ps"] / 1000.0

    def surface(self, metric: str = "processor_utilization"):
        """The metric reshaped to ``(n_configs, n_cycles)`` (product
        grids only)."""
        if self.grid.chain_shape is None:
            raise ValueError("surface() needs a from_product grid")
        return getattr(self, metric).reshape(self.grid.chain_shape)

    def operating_point(self, index: int) -> OperatingPoint:
        return OperatingPoint(
            processor_cycle_ns=float(self.grid.arrays["busy_ps"][index])
            / 1000.0,
            processor_utilization=float(self.processor_utilization[index]),
            network_utilization=float(self.network_utilization[index]),
            shared_miss_latency_ns=float(self.shared_miss_latency_ns[index]),
            upgrade_latency_ns=float(self.upgrade_latency_ns[index]),
            time_per_instruction_ps=float(
                self.time_per_instruction_ps[index]
            ),
        )

    def operating_points(self) -> List[OperatingPoint]:
        return [self.operating_point(index) for index in range(self.size)]


def _split_constants(arrays):
    """Split a grid's fields into ``(constants, columns)``.

    A field whose column is bitwise-constant over every lane goes to
    the equations as one 0-d float64, which broadcasts to the very
    values the column holds (IEEE arithmetic is elementwise), so the
    solver neither gathers nor multiplies lane copies of it.  The test
    compares ``uint64`` views: a NaN lane or a mix of 0.0 and -0.0
    keeps the column.  ``busy_ps`` always stays a column -- it sizes
    the solve.
    """
    constants = {}
    columns = {}
    for name, column in arrays.items():
        bits = column.view("uint64")
        if name != "busy_ps" and bool((bits == bits[0]).all()):
            constants[name] = column[0]
        else:
            columns[name] = column
    return constants, columns


def solve_grid(grid: ModelGrid) -> GridSolution:
    """Solve the whole grid and package per-lane operating points.

    The family's ``T``-independent terms are prepared once, over the
    whole grid.  Product grids chain warm starts along the
    processor-cycle axis (column ``c`` seeds from column ``c-1``'s
    solved times, exactly the scalar ``sweep()`` strategy) on the
    prepared columns gathered at that column's lanes; failed lanes
    reseed their chain from the default guess.  Point batches solve
    every lane from the default bracket seed, like scalar ``solve()``.
    """
    GRID_STATS["grid_solves"] += 1
    model = MODEL_FAMILIES[grid.family]
    constants, columns = _split_constants(grid.arrays)
    with np.errstate(all="ignore"):
        prepared = model.prepare({**constants, **columns}, np)
    # Per-lane columns, gathered at each chain position; 0-d constants
    # pass to every position as they are.
    lane_fields = [name for name, value in prepared.items() if np.ndim(value)]
    n = grid.size

    if grid.chain_shape is not None:
        chains, length = grid.chain_shape
        time = np.full(n, np.nan)
        converged = np.zeros(n, dtype=bool)
        failed = np.zeros(n, dtype=bool)
        base = np.arange(chains) * length
        guess = None
        for position in range(length):
            lanes = base + position
            sub = dict(prepared)
            sub.update((name, prepared[name][lanes]) for name in lane_fields)
            t, c, f = _solve_flat(model, sub, guess)
            time[lanes] = t
            converged[lanes] = c
            failed[lanes] = f
            guess = np.where(np.isfinite(t), t, DEFAULT_GUESS_PS)
    else:
        time, converged, failed = _solve_flat(model, prepared, None)

    GRID_STATS["points_converged"] += int(converged.sum())
    GRID_STATS["points_failed"] += int(failed.sum())

    # One final full-grid evaluation at the solved times reproduces the
    # scalar solver's returned breakdown exactly: every scalar exit path
    # returns model(T) evaluated at the T it returns.
    safe_time = np.where(np.isfinite(time) & (time > 0.0), time, 1.0)
    with np.errstate(all="ignore"):
        latencies, network, bank = model.latencies(prepared, safe_time, np)
        weights = latency_weights(model.frequencies(prepared), model.shared_classes)
        shared, upgrade = weighted_latencies(latencies, weights, np)
        nan = np.nan
        solution = GridSolution(
            grid=grid,
            time_per_instruction_ps=time,
            converged=converged,
            failed=failed,
            processor_utilization=np.where(
                failed, nan, prepared["busy_ps"] / time
            ),
            network_utilization=np.where(failed, nan, network),
            bank_utilization=np.where(failed, nan, bank),
            shared_miss_latency_ns=np.where(failed, nan, shared / 1000.0),
            upgrade_latency_ns=np.where(failed, nan, upgrade / 1000.0),
        )
    return solution
