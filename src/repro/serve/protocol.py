"""Wire protocol of the sweep-as-a-service daemon, and its executor.

Everything a client and the daemon agree on lives here: the job kinds,
the JSON schema of a submission, how a submission is canonicalised and
fingerprinted for request coalescing, the shape of result payloads,
and :func:`run_job`, the one code path from a validated spec to its
payload.  There are no sockets here: the daemon runs :func:`run_job`
in a worker thread, and the ``repro sweep`` / ``repro grid`` verbs run
it in-process, so a served job and its CLI twin are one computation.

Job kinds mirror the CLI's experiment families:

* ``sweep``    -- one hybrid-methodology curve (extraction simulation
  plus the analytical model's cycle sweep), the ``repro sweep`` verb.
* ``simulate`` -- one trace-driven simulation, full result payload
  including telemetry histograms.
* ``check``    -- an exhaustive coherence exploration.  A finished
  payload is kept as a ``check`` blob in the persistent store, keyed by
  the job's fingerprint, so a resubmission is answered without a
  search.
* ``grid``     -- a vectorized design surface.

**Coalescing fingerprints.**  A submission is identified by a content
hash: for simulation-backed kinds, the :meth:`ResultStore.key_for`
fingerprint of every underlying sweep point (the same hash that keys
the persistent store) combined with the model-side parameters, target
protocol included; for ``check``, the canonical spec itself.  Two
submissions share a fingerprint exactly when executing one can serve
both -- that is the invariant the daemon's request coalescing rests on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import DEFAULT_DATA_REFS
from repro.traces.benchmarks import benchmark_spec

__all__ = [
    "JOB_KINDS",
    "CHECK_PROTOCOLS",
    "JobSpec",
    "SpecError",
    "parse_spec",
    "points_for",
    "spec_fingerprint",
    "sweep_payload",
    "simulate_payload",
    "check_payload",
    "grid_payload",
    "operating_point_row",
    "run_job",
]

JOB_KINDS = ("sweep", "simulate", "check", "grid")

#: The model checker's protocol names (its bus/hierarchical harnesses
#: are distinct from the simulation Protocol enum).
CHECK_PROTOCOLS = (
    "snooping",
    "directory",
    "linkedlist",
    "bus",
    "hierarchical",
)

_SIM_PROTOCOLS = {protocol.value for protocol in Protocol}


class SpecError(ValueError):
    """A submission failed validation; the message is client-facing."""


@dataclass(frozen=True)
class JobSpec:
    """One validated, canonicalised job submission.

    ``params`` is fully defaulted: two submissions that mean the same
    job have equal params, which is what makes the fingerprint (and
    therefore coalescing) reliable.
    """

    kind: str
    params: Dict[str, Any]

    def to_jsonable(self) -> Dict[str, Any]:
        payload = {"kind": self.kind}
        payload.update(self.params)
        return payload


def _require(payload: Dict[str, Any], field: str) -> Any:
    try:
        return payload[field]
    except KeyError:
        raise SpecError(f"missing required field {field!r}") from None


def _int_field(
    payload: Dict[str, Any], field: str, default: int, minimum: int = 1
) -> int:
    value = payload.get(field, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{field} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecError(f"{field} must be >= {minimum}, got {value}")
    return value


def _bool_field(payload: Dict[str, Any], field: str, default: bool) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise SpecError(f"{field} must be a boolean, got {value!r}")
    return value


def _cycles_field(payload: Dict[str, Any]) -> Optional[List[float]]:
    cycles = payload.get("cycles_ns")
    if cycles is None:
        return None
    if not isinstance(cycles, list) or not cycles:
        raise SpecError("cycles_ns must be a non-empty list of numbers")
    out: List[float] = []
    for value in cycles:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"cycles_ns entries must be numbers: {value!r}")
        if value <= 0:
            raise SpecError(f"cycles_ns entries must be positive: {value!r}")
        out.append(float(value))
    return out


def _check_fields(payload: Dict[str, Any], fields: Tuple[str, ...]) -> None:
    """Reject any field the job kind does not read: a misspelt option
    must fail loudly, not silently run a job with its default."""
    unknown = sorted(set(payload) - {"kind", *fields})
    if unknown:
        raise SpecError(
            f"unknown field(s) {', '.join(map(repr, unknown))} for a "
            f"{payload['kind']!r} job; accepted: {', '.join(fields)}"
        )


#: The fields of a simulation-backed job that pick its extraction.
_WORKLOAD_FIELDS = ("benchmark", "processors", "protocol", "data_refs")


def _workload_params(payload: Dict[str, Any]) -> Dict[str, Any]:
    benchmark = _require(payload, "benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise SpecError("benchmark must be a non-empty string")
    protocol = payload.get("protocol", Protocol.SNOOPING.value)
    if protocol not in _SIM_PROTOCOLS:
        raise SpecError(
            f"unknown protocol {protocol!r}; "
            f"expected one of {sorted(_SIM_PROTOCOLS)}"
        )
    params = {
        "benchmark": benchmark,
        "processors": _int_field(payload, "processors", 16),
        "protocol": protocol,
        "data_refs": _int_field(payload, "data_refs", DEFAULT_DATA_REFS),
    }
    # Build what the simulation would build, so a job it would refuse
    # is refused now, before it has a job id.
    try:
        SystemConfig(
            num_processors=params["processors"], protocol=Protocol(protocol)
        )
    except ValueError as exc:
        raise SpecError(f"processors: {exc}") from None
    try:
        benchmark_spec(benchmark, params["processors"])
    except KeyError as exc:
        raise SpecError(f"benchmark: {exc.args[0]}") from None
    return params


def _parse_sweep(payload: Dict[str, Any]) -> Dict[str, Any]:
    _check_fields(payload, _WORKLOAD_FIELDS + ("cycles_ns",))
    params = _workload_params(payload)
    params["cycles_ns"] = _cycles_field(payload)
    return params


def _parse_simulate(payload: Dict[str, Any]) -> Dict[str, Any]:
    _check_fields(payload, _WORKLOAD_FIELDS + ("seed",))
    params = _workload_params(payload)
    seed = payload.get("seed")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int)
    ):
        raise SpecError(f"seed must be an integer, got {seed!r}")
    params["seed"] = seed
    return params


def _parse_check(payload: Dict[str, Any]) -> Dict[str, Any]:
    _check_fields(
        payload,
        (
            "protocol",
            "nodes",
            "lines",
            "races",
            "max_depth",
            "max_states",
            "symmetry",
        ),
    )
    protocol = _require(payload, "protocol")
    if protocol not in CHECK_PROTOCOLS:
        raise SpecError(
            f"unknown check protocol {protocol!r}; "
            f"expected one of {CHECK_PROTOCOLS}"
        )
    params = {
        "protocol": protocol,
        "nodes": _int_field(payload, "nodes", 2),
        "lines": _int_field(payload, "lines", 1),
        "races": _bool_field(payload, "races", True),
        "max_depth": _int_field(payload, "max_depth", 12),
        "max_states": _int_field(payload, "max_states", 20_000),
        "symmetry": payload.get("symmetry", "full"),
    }
    from repro.check.explorer import validate_setup

    try:
        validate_setup(
            protocol, params["nodes"], params["lines"], params["symmetry"]
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return params


def _parse_grid(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.sensitivity import SUPPORTED_PARAMETERS

    _check_fields(payload, _WORKLOAD_FIELDS + ("cycles_ns", "parameters"))
    params = _workload_params(payload)
    params["cycles_ns"] = _cycles_field(payload)
    axes = payload.get("parameters")
    if axes is not None:
        if not isinstance(axes, dict) or not axes:
            raise SpecError("parameters must be a non-empty object")
        clean: Dict[str, List[int]] = {}
        for name, values in axes.items():
            if name not in SUPPORTED_PARAMETERS:
                raise SpecError(
                    f"unknown parameter axis {name!r}; supported: "
                    f"{', '.join(sorted(SUPPORTED_PARAMETERS))}"
                )
            if not isinstance(values, list) or not values:
                raise SpecError(f"parameter axis {name!r} needs values")
            for value in values:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise SpecError(
                        f"parameter axis {name!r} values must be "
                        f"integers: {value!r}"
                    )
            clean[name] = list(values)
        axes = clean
    params["parameters"] = axes
    return params


_PARSERS = {
    "sweep": _parse_sweep,
    "simulate": _parse_simulate,
    "check": _parse_check,
    "grid": _parse_grid,
}


def parse_spec(payload: Any) -> JobSpec:
    """Validate and canonicalise one submission body."""
    if not isinstance(payload, dict):
        raise SpecError("submission body must be a JSON object")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise SpecError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    return JobSpec(kind=kind, params=_PARSERS[kind](payload))


# ----------------------------------------------------------------------
# Points and fingerprints
# ----------------------------------------------------------------------
def points_for(spec: JobSpec) -> List["SweepPoint"]:
    """The trace-driven simulations this job needs, as sweep points.

    ``check`` jobs run on the explorer, not the sweep executor, and
    have no points.
    """
    from repro.core.hybrid import extraction_point
    from repro.core.parallel import SweepPoint

    params = spec.params
    if spec.kind == "simulate":
        return [
            SweepPoint(
                params["benchmark"],
                params["processors"],
                Protocol(params["protocol"]),
                params["data_refs"],
                seed=params["seed"],
            )
        ]
    if spec.kind in ("sweep", "grid"):
        return [
            extraction_point(
                params["benchmark"],
                params["processors"],
                Protocol(params["protocol"]),
                data_refs=params["data_refs"],
            )
        ]
    return []


def spec_fingerprint(
    spec: JobSpec, store, points: Optional[List["SweepPoint"]] = None
) -> str:
    """The coalescing key: submissions sharing it share one execution.

    Simulation-backed kinds hash the :meth:`ResultStore.key_for`
    fingerprint of every underlying point -- the same content hash
    that keys the persistent store, so the daemon's in-flight dedup
    and the store's at-rest dedup agree on what "the same work" means
    -- plus the model-side parameters (target protocol, cycle axis,
    parameter axes).  The target protocol is needed because a ``bus``
    job extracts through the same snooping point as a ``snooping`` one
    but answers with the bus model.  ``check`` jobs hash their
    canonical spec.  ``points``, when given, is ``points_for(spec)``
    already built by the caller.
    """
    setup: Dict[str, Any] = {"kind": spec.kind}
    if spec.kind == "check":
        setup["params"] = spec.params
    else:
        setup["points"] = [
            store.key_for(
                point.benchmark, point.data_refs, point.resolved_config()
            )
            for point in (points_for(spec) if points is None else points)
        ]
        model_params = {
            key: value
            for key, value in spec.params.items()
            if key in ("protocol", "cycles_ns", "parameters")
        }
        setup["model"] = model_params
    canonical = json.dumps(setup, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------
def operating_point_row(point) -> Dict[str, float]:
    """One model operating point as a plain-JSON row (full precision)."""
    return {
        "processor_cycle_ns": point.processor_cycle_ns,
        "mips": point.mips,
        "processor_utilization": point.processor_utilization,
        "network_utilization": point.network_utilization,
        "shared_miss_latency_ns": point.shared_miss_latency_ns,
        "upgrade_latency_ns": point.upgrade_latency_ns,
        "time_per_instruction_ps": point.time_per_instruction_ps,
    }


def sweep_payload(sweep) -> Dict[str, Any]:
    """A :class:`repro.core.results.SweepResult` on the wire."""
    return {
        "kind": "sweep",
        "benchmark": sweep.benchmark,
        "protocol": sweep.protocol.value,
        "label": sweep.label,
        "points": [operating_point_row(point) for point in sweep.points],
    }


def simulate_payload(result) -> Dict[str, Any]:
    """A full :class:`SimulationResult` on the wire (store schema)."""
    from repro.core.store import result_to_jsonable

    payload = result_to_jsonable(result)
    payload["kind"] = "simulate"
    return payload


def check_payload(report) -> Dict[str, Any]:
    """An :class:`ExploreReport` on the wire."""
    payload = {
        "kind": "check",
        "ok": report.ok,
        "complete": report.complete,
        "states": report.states,
        "steps_applied": report.steps_applied,
        "max_depth_reached": report.max_depth_reached,
        "truncated_by": list(report.truncated_by),
        "summary": report.summary(),
    }
    if not report.ok:
        payload["counterexample"] = report.counterexample.describe()
    return payload


def grid_payload(solution) -> Dict[str, Any]:
    """A :class:`repro.models.grid.GridSolution` on the wire.

    The rows carry every metric ``repro grid --metric`` can draw, so a
    client renders any surface of the job from the payload and its
    spec.
    """
    return {
        "kind": "grid",
        "points": solution.size,
        "converged": solution.n_converged,
        "failed": solution.n_failed,
        "operating_points": [
            {
                **operating_point_row(point),
                "bank_utilization": float(bank),
            }
            for point, bank in zip(
                solution.operating_points(), solution.bank_utilization
            )
        ],
    }


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def run_job(
    spec: JobSpec,
    *,
    jobs: int = 1,
    pool=None,
    progress=None,
    cancel=None,
    telemetry=None,
    key: Optional[str] = None,
    answer: Optional[Tuple[Dict[str, Any], Optional[Dict[str, Any]]]] = None,
) -> Dict[str, Any]:
    """Run one validated job and return its result payload.

    Simulation-backed kinds evaluate :func:`points_for` on a
    :class:`repro.core.parallel.PointScheduler` (``jobs``, ``pool``,
    ``progress`` and the ``cancel`` event are handed to it), then
    finish with the library call for the kind: ``sweep_from_result``,
    ``surface_from_result`` or the simulation itself.  ``check`` runs
    the explorer, unless the store already holds this spec's finished
    payload under ``key`` (its :func:`spec_fingerprint`, computed here
    when not given).  ``telemetry``, when given, receives the
    extraction's histograms (``sweep`` and ``simulate``).

    ``answer`` is an earlier run's ``(payload, histograms)`` for a spec
    with the same fingerprint.  The points still run through the
    scheduler, so progress, cancellation and the cache-hit counters
    are those of this run, but the payload and histograms are handed
    back as they are instead of being built again; a ``check`` job
    returns the payload without reading the store.
    """
    from repro.core.parallel import PointScheduler, SweepCancelled

    params = spec.params
    if spec.kind == "check":
        from repro import check
        from repro.core.store import get_result_store

        if cancel is not None and cancel.is_set():
            raise SweepCancelled("cancelled before exploration started")
        if answer is not None:
            return answer[0]
        store = get_result_store()
        if key is None:
            key = spec_fingerprint(spec, store)
        payload = store.get_blob("check", key)
        if payload is None:
            payload = check_payload(
                check.explore(
                    params["protocol"],
                    nodes=params["nodes"],
                    lines=params["lines"],
                    races=params["races"],
                    max_depth=params["max_depth"],
                    max_states=params["max_states"],
                    symmetry=params["symmetry"],
                    jobs=jobs,
                )
            )
            store.put_blob("check", key, payload)
        return payload
    (result,) = PointScheduler(
        points_for(spec),
        jobs=jobs,
        pool=pool,
        progress=progress,
        cancel=cancel,
    ).run().results
    if answer is not None:
        payload, histograms = answer
        if telemetry is not None and histograms is not None:
            telemetry(histograms)
        return payload
    if spec.kind == "grid":
        from repro.core.hybrid import surface_from_result

        return grid_payload(
            surface_from_result(
                result,
                params["processors"],
                Protocol(params["protocol"]),
                parameters=params["parameters"],
                cycles_ns=params["cycles_ns"],
            )
        )
    if telemetry is not None and result.telemetry is not None:
        telemetry(result.telemetry.to_jsonable())
    if spec.kind == "simulate":
        return simulate_payload(result)
    from repro.core.hybrid import sweep_from_result

    return sweep_payload(
        sweep_from_result(
            result,
            params["processors"],
            Protocol(params["protocol"]),
            cycles_ns=params["cycles_ns"],
        )
    )
