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
iteration on every lane at once -- a converged point's time is
recorded once and its lane never read again, divergent points are
isolated to NaN without poisoning their neighbours.

Equivalence contract
--------------------
Both solvers evaluate the same equations and share the same bracket
seed, stopping test and iteration budget, and every lane's iteration
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

Field shapes
------------
Each field reaches the equations in the smallest shape that holds its
bits.  :meth:`ModelGrid.from_product` emits every field no parameter
axis moves (the extracted frequencies, and any machine parameter no
axis sets) as one 0-d float64, and :func:`solve_grid` lays each field
out over the grid's ``(chains, length)`` shape: 0-d when it holds the
same bits in every lane, ``(chains, 1)`` when it is constant along
every chain, ``(1, length)`` when every chain holds the same values
(the processor cycle of a product grid), and the full ``(chains,
length)`` table otherwise.  Broadcasting hands every lane the value
its column holds and IEEE arithmetic is elementwise, so results stay
bit-identical, while ``prepare`` runs once per configuration instead
of once per lane and each chain position reads column views.

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

    ``arrays`` maps each field of :data:`_FIELDS` to a flat float64
    vector, or to a 0-d float64 that holds the field's value in every
    lane; the vectors share one flat length, and ``busy_ps`` is always
    a vector.  ``chain_shape`` is
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
        once.  A field no axis moves (every input, and every column
        :func:`_product_table` leaves at ``config``'s value) is one 0-d
        float64.  An empty axis raises ``ValueError``; a combination
        that cannot be built raises what building it alone would.
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
        table, moved = _product_table(config, axes)

        n_configs = table.shape[0]
        n_cycles = len(cycles)
        arrays = {
            name: (
                np.repeat(table[:, column], n_cycles)
                if moved[column]
                else table[0, column]
            )
            for column, name in enumerate(SYSTEM_FIELDS + GEOMETRY_FIELDS)
        }
        for name, value in zip(INPUT_FIELDS, input_values(inputs)):
            arrays[name] = np.float64(value)
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


def _product_table(config: SystemConfig, axes) -> Tuple[np.ndarray, np.ndarray]:
    """The :data:`SYSTEM_FIELDS` and :data:`GEOMETRY_FIELDS` of
    ``config`` with every combination of ``axes`` (``[(name, values),
    ...]``) applied: one float64 row per combination, in
    ``itertools.product`` order, and a boolean per column that says
    whether an axis sets it (the others hold ``config``'s value in
    every row).

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
    moved = np.zeros(table.shape[1], dtype=bool)

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
                moved[column] = True
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
    moved[width:] = bool(structural)
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
    return table, moved


def _check_family(family: str) -> None:
    if family not in MODEL_FAMILIES:
        raise ValueError(
            f"unknown model family {family!r}; pick one of {GRID_FAMILIES}"
        )


# ----------------------------------------------------------------------
# The fixed-point solver
# ----------------------------------------------------------------------
def _solve_flat(model, prepared, guess):
    """Solve one chain position; returns (time, converged, failed).

    ``prepared`` holds the position's fields (0-d or one value per
    chain) and ``guess`` its bracket seeds, one per lane.  The per-lane
    iterate sequence is exactly the scalar solver's: bracket floor at
    max(busy, 1), doubling walk while the residual stays positive (cap
    80, then the lane *fails* instead of raising), then guarded secant
    steps that fall back to bisection whenever the extrapolation leaves
    the bracket.  A lane's time is recorded once, at the step it
    converges; after that, and for idle and failed lanes, the lane
    keeps iterating inside its bracket and is never read again, so one
    slow corner costs iterations, never accuracy.  The caller ignores
    floating-point errors.
    """
    busy = prepared["busy_ps"]
    mix = model.frequencies(prepared)
    evaluate = model.latencies
    n = guess.shape[0]

    def residual(T):
        GRID_STATS["grid_evals"] += 1
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

    high = np.maximum(guess, 2.0 * low)
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
    t0, r0, t1, r1 = low, r_low, high, r_high
    for _ in range(MAX_ITERATIONS):
        if not bool(solving.any()):
            break
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
        r_cand, _ = residual(candidate)
        done = solving & has_converged(r_cand, span, candidate, TOLERANCE)
        time = np.where(done, candidate, time)
        converged = converged | done
        solving = solving & ~done
        positive = r_cand > 0.0
        low = np.where(positive, candidate, low)
        high = np.where(positive, high, candidate)
        t0, r0, t1, r1 = t1, r1, candidate, r_cand

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


def _layout(arrays, shape):
    """Each field of a grid in the smallest shape that broadcasts to
    ``shape`` (``(chains, length)``, configuration-major) and holds the
    field's bits: 0-d if every lane holds the same bits, ``(chains,
    1)`` if each chain is constant, ``(1, length)`` if every chain
    holds the same values, else the full table.  Bits are compared as
    ``uint64`` views, so a NaN lane or a mix of 0.0 and -0.0 keeps a
    field wide."""
    fields = {}
    for name, value in arrays.items():
        if np.ndim(value) == 0:
            fields[name] = value
            continue
        table = value.reshape(shape)
        bits = table.view(np.uint64)
        if bool((bits == bits[0, 0]).all()):
            fields[name] = table[0, 0]
        elif bool((bits == bits[:, :1]).all()):
            # A copy, so the column every position reads is contiguous.
            fields[name] = table[:, :1].copy()
        elif bool((bits == bits[:1]).all()):
            fields[name] = table[:1]
        else:
            fields[name] = table
    return fields


def solve_grid(grid: ModelGrid) -> GridSolution:
    """Solve the whole grid and package per-lane operating points.

    The fields are laid out over the chain shape (:func:`_layout`; a
    point batch is ``size`` chains of length 1) and the family's
    ``T``-independent terms are prepared once, on those shapes.  The
    chain positions solve in order, each on column views of the
    prepared fields: position ``c`` seeds from position ``c-1``'s
    solved times (exactly the scalar ``sweep()`` strategy), failed
    lanes reseed from the default guess, and position 0 solves from
    the default bracket seed, like scalar ``solve()``.
    """
    GRID_STATS["grid_solves"] += 1
    model = MODEL_FAMILIES[grid.family]
    shape = grid.chain_shape or (grid.size, 1)
    chains, length = shape
    with np.errstate(all="ignore"):
        prepared = model.prepare(_layout(grid.arrays, shape), np)
        # 0-d and (chains, 1) fields read the same at every position.
        fixed = dict(prepared)
        moving = []
        for name, value in prepared.items():
            if np.ndim(value) == 0:
                continue
            if value.shape[1] == 1:
                fixed[name] = value[:, 0]
            else:
                moving.append(name)

        time = np.empty(shape)
        converged = np.empty(shape, dtype=bool)
        failed = np.empty(shape, dtype=bool)
        guess = np.full(chains, DEFAULT_GUESS_PS)
        for position in range(length):
            column = dict(fixed)
            column.update((name, prepared[name][:, position]) for name in moving)
            t, c, f = _solve_flat(model, column, guess)
            time[:, position] = t
            converged[:, position] = c
            failed[:, position] = f
            guess = np.where(np.isfinite(t), t, DEFAULT_GUESS_PS)

        GRID_STATS["points_converged"] += int(converged.sum())
        GRID_STATS["points_failed"] += int(failed.sum())

        # One final evaluation at the solved times reproduces the scalar
        # solver's returned breakdown exactly: every scalar exit path
        # returns model(T) evaluated at the T it returns.
        safe_time = np.where(np.isfinite(time) & (time > 0.0), time, 1.0)
        latencies, network, bank = model.latencies(prepared, safe_time, np)
        weights = latency_weights(model.frequencies(prepared), model.shared_classes)
        shared, upgrade = weighted_latencies(latencies, weights, np)

        def flat(values):
            return np.where(failed, np.nan, values).reshape(-1)

        return GridSolution(
            grid=grid,
            time_per_instruction_ps=time.reshape(-1),
            converged=converged.reshape(-1),
            failed=failed.reshape(-1),
            processor_utilization=flat(prepared["busy_ps"] / time),
            network_utilization=flat(network),
            bank_utilization=flat(bank),
            shared_miss_latency_ns=flat(shared / 1000.0),
            upgrade_latency_ns=flat(upgrade / 1000.0),
        )
