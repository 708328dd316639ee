"""Persistent, content-addressed simulation result store.

The paper's trace-driven runs took 6-8 CPU-hours each, so every figure
was built from a small library of reusable simulations.  This module
gives the reproduction the same property across *processes and
sessions*: a :class:`ResultStore` keeps one JSON file per simulation,
keyed by a stable content hash of the complete experimental setup
(benchmark, trace length, and every field of :class:`SystemConfig`
including the seed).  Re-running any figure or benchmark then costs one
cache lookup per configuration instead of one simulation.

Design points:

* **Content addressing.**  The key is a SHA-256 over the canonical
  JSON of the setup, so any config change -- down to a single ring
  parameter -- yields a different key.  There is no invalidation
  problem beyond bumping :data:`SCHEMA_VERSION` when the serialised
  format changes.
* **Exact round-trips.**  All simulation state worth keeping is
  integers, strings and enum values; latencies are integer picoseconds.
  ``result == from_jsonable(to_jsonable(result))`` holds bit-for-bit,
  which the determinism tests assert.
* **Process safety.**  Writes go to a temp file in the store directory
  followed by an atomic ``os.replace``; concurrent writers of the same
  key are idempotent because they serialise identical content.
* **Namespacing.**  :meth:`ResultStore.invalidate` bumps a
  process-local generation salt mixed into every key, so tests can
  isolate state without deleting another session's files;
  :func:`temp_result_store` goes further and points the store at a
  throwaway directory.

The store directory resolves, in order: explicit argument, the
``REPRO_CACHE_DIR`` environment variable, then ``~/.cache/repro``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import asdict
from typing import Any, Dict, Iterator, Optional

from repro.core.config import (
    BusConfig,
    CacheConfig,
    MemoryConfig,
    ProcessorConfig,
    Protocol,
    RingConfig,
    SystemConfig,
)
from repro.core.metrics import (
    CoherenceStats,
    LatencyAccumulator,
    MissClass,
    TraversalHistogram,
)
from repro.core.results import ModelInputs, SimulationResult
from repro.obs import Histograms
from repro.traces.stats import TraceCharacteristics

__all__ = [
    "SCHEMA_VERSION",
    "STALE_TMP_AGE_SECONDS",
    "ResultStore",
    "config_to_jsonable",
    "config_from_jsonable",
    "result_to_jsonable",
    "result_from_jsonable",
    "result_fingerprint",
    "default_store_dir",
    "get_result_store",
    "configure_result_store",
    "temp_result_store",
]

#: Bump when the serialised layout changes; old entries simply miss.
#: v2: results carry distribution telemetry (``repro.obs.Histograms``).
SCHEMA_VERSION = 2

#: Environment variable overriding the default store directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Age threshold for the temp-file sweep that runs when a store opens.
#: A temp file this old cannot belong to a live writer (a single
#: result serialises in milliseconds); anything younger is left alone
#: so opening a store never races a concurrent ``put``.
STALE_TMP_AGE_SECONDS = 3600.0


def default_store_dir() -> pathlib.Path:
    """The store directory used when none is configured explicitly."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return pathlib.Path(override).expanduser()
    return pathlib.Path.home() / ".cache" / "repro"


# ----------------------------------------------------------------------
# Config serialisation
# ----------------------------------------------------------------------
def config_to_jsonable(config: SystemConfig) -> Dict[str, Any]:
    """A plain-JSON dict capturing every field of a system config."""
    payload = asdict(config)
    payload["protocol"] = config.protocol.value
    return payload


def config_from_jsonable(payload: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_jsonable`."""
    return SystemConfig(
        num_processors=payload["num_processors"],
        protocol=Protocol(payload["protocol"]),
        ring=RingConfig(**payload["ring"]),
        bus=BusConfig(**payload["bus"]),
        cache=CacheConfig(**payload["cache"]),
        memory=MemoryConfig(**payload["memory"]),
        processor=ProcessorConfig(**payload["processor"]),
        seed=payload["seed"],
    )


def _normalize_key_scalars(value: Any) -> Any:
    """Collapse float spellings that denote the same configuration.

    Canonical JSON spells ``8.0`` and ``8`` (and ``-0.0`` and ``0``)
    differently, so configs built from float arithmetic (``1e6 / mhz``)
    used to fingerprint differently from integer-built ones describing
    the *same machine* -- a spurious cache miss.  Integral floats are
    hashed as their integer value (which also folds ``-0.0`` into
    ``0``); non-integral floats are already canonical.  ``bool`` is
    left alone (it is an ``int`` subclass but a distinct config value).
    """
    if type(value) is float and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {key: _normalize_key_scalars(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize_key_scalars(item) for item in value]
    return value


@functools.lru_cache(maxsize=256)
def _canonical_config_json(config: SystemConfig) -> str:
    """The normalised config as canonical JSON, memoised per config.

    ``asdict`` and the normalisation are most of a fingerprint's cost,
    and a cold simulation fingerprints its config twice (the missed
    ``get``, then the ``put``).  Frozen configs that compare equal
    share one entry: their fields are equal value for value, which
    :func:`_normalize_key_scalars` already renders alike -- except a
    ``bool`` field given as ``1`` or ``0``, which then keys as whichever
    spelling this process saw first.
    """
    return json.dumps(
        _normalize_key_scalars(config_to_jsonable(config)),
        sort_keys=True,
        separators=(",", ":"),
    )


def result_fingerprint(
    benchmark: str,
    data_refs: int,
    config: SystemConfig,
    salt: str = "",
) -> str:
    """Stable content hash identifying one simulation setup.

    The hash covers the benchmark name, the per-processor trace length
    and the *entire* config (protocol, sizes, clocks, seed ...).  Config
    scalars are normalised first (see :func:`_normalize_key_scalars`)
    so numerically identical setups share a key no matter how their
    numbers were spelled.

    The hashed text is the canonical JSON (sorted keys, no spaces) of
    ``{"schema", "benchmark", "data_refs", "config"}`` plus ``"salt"``
    when one is given.  It is assembled around the memoised config
    text (:func:`_canonical_config_json`) in that sorted key order; the
    salt stays outside the memo.

    Two setups share a key exactly when :func:`repro.core.experiment.
    run_simulation` would produce identical results for them only for
    configs that :func:`repro.core.experiment.run_simulation_cached`
    has canonicalised: it resets the interconnect the protocol does not
    use (``bus`` for the rings, ``ring`` for the bus) before keying, so
    the hash itself need not know which sub-config an engine reads.
    """
    salted = f'"salt":{json.dumps(salt)},' if salt else ""
    canonical = (
        f'{{"benchmark":{json.dumps(benchmark)},'
        f'"config":{_canonical_config_json(config)},'
        f'"data_refs":{json.dumps(data_refs)},'
        f'{salted}"schema":{SCHEMA_VERSION}}}'
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Result serialisation
# ----------------------------------------------------------------------
def _latency_to_jsonable(acc: LatencyAccumulator) -> Dict[str, Any]:
    return asdict(acc)


def _latency_from_jsonable(payload: Dict[str, Any]) -> LatencyAccumulator:
    return LatencyAccumulator(**payload)


def _stats_to_jsonable(stats: CoherenceStats) -> Dict[str, Any]:
    return {
        "miss_latency": {
            klass.value: _latency_to_jsonable(acc)
            for klass, acc in stats.miss_latency.items()
        },
        "upgrade_latency": _latency_to_jsonable(stats.upgrade_latency),
        "upgrades_with_sharers": stats.upgrades_with_sharers,
        "upgrades_without_sharers": stats.upgrades_without_sharers,
        "miss_traversals": {
            str(traversals): count
            for traversals, count in stats.miss_traversals.as_counts().items()
        },
        "upgrade_traversals": {
            str(traversals): count
            for traversals, count in stats.upgrade_traversals.as_counts().items()
        },
        "probes_sent": stats.probes_sent,
        "broadcast_probes": stats.broadcast_probes,
        "blocks_sent": stats.blocks_sent,
        "forwards": stats.forwards,
        "writebacks": stats.writebacks,
        "sharing_writebacks": stats.sharing_writebacks,
    }


def _stats_from_jsonable(payload: Dict[str, Any]) -> CoherenceStats:
    stats = CoherenceStats()
    stats.miss_latency = {
        MissClass(name): _latency_from_jsonable(acc)
        for name, acc in payload["miss_latency"].items()
    }
    # Guarantee every class is present even if absent in the payload.
    for klass in MissClass:
        stats.miss_latency.setdefault(klass, LatencyAccumulator())
    stats.upgrade_latency = _latency_from_jsonable(payload["upgrade_latency"])
    stats.upgrades_with_sharers = payload["upgrades_with_sharers"]
    stats.upgrades_without_sharers = payload["upgrades_without_sharers"]
    stats.miss_traversals = TraversalHistogram.from_counts(
        {int(k): v for k, v in payload["miss_traversals"].items()}
    )
    stats.upgrade_traversals = TraversalHistogram.from_counts(
        {int(k): v for k, v in payload["upgrade_traversals"].items()}
    )
    stats.probes_sent = payload["probes_sent"]
    stats.broadcast_probes = payload["broadcast_probes"]
    stats.blocks_sent = payload["blocks_sent"]
    stats.forwards = payload["forwards"]
    stats.writebacks = payload["writebacks"]
    stats.sharing_writebacks = payload["sharing_writebacks"]
    return stats


def _inputs_to_jsonable(inputs: ModelInputs) -> Dict[str, Any]:
    payload = asdict(inputs)
    payload["protocol"] = inputs.protocol.value
    payload["f_miss"] = {
        klass.value: frequency for klass, frequency in inputs.f_miss.items()
    }
    return payload


def _inputs_from_jsonable(payload: Dict[str, Any]) -> ModelInputs:
    payload = dict(payload)
    payload["protocol"] = Protocol(payload["protocol"])
    payload["f_miss"] = {
        MissClass(name): frequency
        for name, frequency in payload["f_miss"].items()
    }
    return ModelInputs(**payload)


def result_to_jsonable(result: SimulationResult) -> Dict[str, Any]:
    """Serialise a full :class:`SimulationResult` to plain JSON types."""
    return {
        "schema": SCHEMA_VERSION,
        "config": config_to_jsonable(result.config),
        "benchmark": result.benchmark,
        "elapsed_ps": result.elapsed_ps,
        "processor_utilization": result.processor_utilization,
        "network_utilization": result.network_utilization,
        "shared_miss_latency_ns": result.shared_miss_latency_ns,
        "miss_latency_ns": result.miss_latency_ns,
        "upgrade_latency_ns": result.upgrade_latency_ns,
        "stats": _stats_to_jsonable(result.stats),
        "trace": asdict(result.trace),
        "instructions": result.instructions,
        "inputs": _inputs_to_jsonable(result.inputs),
        "telemetry": (
            result.telemetry.to_jsonable()
            if result.telemetry is not None
            else None
        ),
    }


def result_from_jsonable(payload: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_jsonable`."""
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"result schema {payload.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return SimulationResult(
        config=config_from_jsonable(payload["config"]),
        benchmark=payload["benchmark"],
        elapsed_ps=payload["elapsed_ps"],
        processor_utilization=payload["processor_utilization"],
        network_utilization=payload["network_utilization"],
        shared_miss_latency_ns=payload["shared_miss_latency_ns"],
        miss_latency_ns=payload["miss_latency_ns"],
        upgrade_latency_ns=payload["upgrade_latency_ns"],
        stats=_stats_from_jsonable(payload["stats"]),
        trace=TraceCharacteristics(**payload["trace"]),
        instructions=payload["instructions"],
        inputs=_inputs_from_jsonable(payload["inputs"]),
        telemetry=(
            Histograms.from_jsonable(payload["telemetry"])
            if payload.get("telemetry") is not None
            else None
        ),
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """One directory of content-addressed simulation results.

    Files live under ``<directory>/results/<sha256>.json``.  Lookups
    and stores count into :attr:`hits` / :attr:`misses` / :attr:`stores`
    so callers can report cache effectiveness.
    """

    def __init__(
        self,
        directory: "Optional[pathlib.Path | str]" = None,
        enabled: bool = True,
    ) -> None:
        self.directory = pathlib.Path(directory) if directory else default_store_dir()
        self.enabled = enabled
        #: Process-local namespace salt; bumped by :meth:`invalidate`.
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.blob_hits = 0
        self.blob_misses = 0
        self.blob_stores = 0
        #: Writes whose final rename lost a race (see :meth:`_publish`).
        self.lost_writes = 0
        if enabled:
            # Opening a store is the natural amortisation point for
            # sweeping temp files stranded by crashed writers; the age
            # guard keeps this from racing a concurrent live put.
            self.cleanup_stale_tmp(min_age_seconds=STALE_TMP_AGE_SECONDS)

    # ------------------------------------------------------------------
    @property
    def results_dir(self) -> pathlib.Path:
        return self.directory / "results"

    def _salt(self) -> str:
        return f"gen{self._generation}" if self._generation else ""

    def key_for(
        self, benchmark: str, data_refs: int, config: SystemConfig
    ) -> str:
        return result_fingerprint(
            benchmark, data_refs, config, salt=self._salt()
        )

    def _path_for(self, key: str) -> pathlib.Path:
        return self.results_dir / f"{key}.json"

    # ------------------------------------------------------------------
    # Generic JSON blobs (served check results and other artifacts)
    # ------------------------------------------------------------------
    def blob_dir(self, kind: str) -> pathlib.Path:
        """Directory for one family of content-addressed JSON blobs.

        Simulation results stay under ``results/``; other subsystems
        persist their own keyed artifacts beside them (the daemon keeps
        finished ``check`` job payloads under ``check/``).
        The same atomic-write and stale-temp-sweep machinery applies.
        """
        if not kind or "/" in kind or kind.startswith("."):
            raise ValueError(f"invalid blob kind {kind!r}")
        return self.directory / kind

    def get_blob(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored JSON payload for ``(kind, key)``, or ``None``.

        Mirrors :meth:`get`: disabled stores and corrupt entries read
        as misses, counted separately in :attr:`blob_hits` /
        :attr:`blob_misses`.
        """
        if not self.enabled:
            return None
        path = self.blob_dir(kind) / f"{key}.json"
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.blob_misses += 1
            return None
        self.blob_hits += 1
        return payload

    def put_blob(
        self, kind: str, key: str, payload: Dict[str, Any]
    ) -> None:
        """Persist one JSON blob (atomic rename; no-op when disabled)."""
        if not self.enabled:
            return
        serialized = json.dumps(payload, sort_keys=True)
        if self._publish(self.blob_dir(kind), f"{key}.json", serialized):
            self.blob_stores += 1

    def _publish(
        self, directory: pathlib.Path, name: str, serialized: str
    ) -> bool:
        """Atomically write ``serialized`` to ``directory/name``.

        Safe against concurrent cross-process writers and maintenance:
        each writer serialises to its own temp file and the final
        ``os.replace`` is last-writer-wins.  A writer racing a
        concurrent ``purge``/directory removal recreates the directory
        and retries once; a write that still cannot land is counted in
        :attr:`lost_writes` and dropped rather than raised -- the store
        is a cache, and identical-content writers make a lost rename
        harmless.  Returns whether this writer's content was published.
        """
        for attempt in (0, 1):
            try:
                directory.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    dir=directory, prefix=".tmp-", suffix=".json"
                )
            except OSError:
                if attempt:
                    self.lost_writes += 1
                    return False
                continue
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(serialized)
                os.replace(tmp_name, directory / name)
                return True
            except BaseException as error:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                if not isinstance(error, OSError):
                    raise
                if attempt:
                    self.lost_writes += 1
                    return False
        return False

    # ------------------------------------------------------------------
    def get(
        self, benchmark: str, data_refs: int, config: SystemConfig
    ) -> Optional[SimulationResult]:
        """The stored result for this setup, or ``None`` on a miss.

        Corrupt or schema-mismatched entries count as misses (and are
        left in place for a newer/older version of the code to use).
        """
        if not self.enabled:
            return None
        path = self._path_for(self.key_for(benchmark, data_refs, config))
        try:
            payload = json.loads(path.read_text())
            result = result_from_jsonable(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(
        self,
        benchmark: str,
        data_refs: int,
        config: SystemConfig,
        result: SimulationResult,
    ) -> None:
        """Persist one result (atomic rename; no-op when disabled)."""
        if not self.enabled:
            return
        key = self.key_for(benchmark, data_refs, config)
        payload = json.dumps(result_to_jsonable(result), sort_keys=True)
        if self._publish(self.results_dir, f"{key}.json", payload):
            self.stores += 1

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Detach this process from every stored entry.

        Bumps the generation salt mixed into all subsequent keys, so
        existing files can no longer be hit (or overwritten) from this
        process.  Files on disk are untouched -- other sessions keep
        their cache; use :meth:`purge` to delete them.
        """
        self._generation += 1

    def purge(self) -> int:
        """Delete every stored entry -- results and every blob family
        alike; returns the count removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def cleanup_stale_tmp(self, min_age_seconds: float = 0.0) -> int:
        """Remove orphaned ``.tmp-*.json`` files; returns the count.

        :meth:`put` unlinks its temporary file on any failure it can
        see, but a worker killed mid-write (pool shutdown, SIGKILL,
        power loss) leaves the temp file behind.  Stale temps are
        harmless to correctness -- lookups only match ``<key>.json`` --
        but they accumulate, so the sweep runs in three places: sweep
        executors call it after a failed or interrupted run (no age
        guard: their workers are known dead), every store open runs it
        with ``min_age_seconds=STALE_TMP_AGE_SECONDS`` so orphans age
        out without manual action, and ``repro store cleanup`` forces
        an immediate sweep from the command line.

        ``min_age_seconds`` skips temp files modified more recently
        than that many seconds ago, protecting writers that are merely
        concurrent rather than dead.

        Sweeps race: several processes open the same store (or run
        ``repro store cleanup``) and each lists the same orphans.  A
        file may therefore vanish between this sweep's directory
        listing and its ``stat``/``unlink`` -- that is the *other*
        sweeper winning, not an error, so the loop skips it without
        counting it as removed (counting would double-report across
        concurrent sweeps) and moves on to the next candidate.
        """
        removed = 0
        if self.directory.is_dir():
            # Blob families (e.g. check/ results) write through
            # the same temp-then-rename protocol as results/, so the
            # sweep covers every immediate subdirectory.
            cutoff = time.time() - min_age_seconds
            for path in self.directory.glob("*/.tmp-*.json"):
                try:
                    if min_age_seconds and path.stat().st_mtime > cutoff:
                        continue
                    path.unlink()
                except FileNotFoundError:
                    # Lost the race to a concurrent sweeper (or the
                    # writer's own failure cleanup): already gone.
                    continue
                except OSError:
                    continue
                removed += 1
        return removed

    def entry_count(self) -> int:
        """Number of result files currently on disk."""
        if not self.results_dir.is_dir():
            return 0
        return sum(1 for _ in self.results_dir.glob("*.json"))

    def tmp_count(self) -> int:
        """Number of in-flight/orphaned temp files across all families."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/.tmp-*.json"))

    def info(self) -> Dict[str, Any]:
        """Machine-readable store state (``repro store info --json``,
        the daemon's ``/store/info``)."""
        blob_kinds = {}
        if self.directory.is_dir():
            for child in sorted(self.directory.iterdir()):
                if child.is_dir() and child.name != "results":
                    blob_kinds[child.name] = sum(
                        1
                        for path in child.glob("*.json")
                        if not path.name.startswith(".tmp-")
                    )
        return {
            "directory": str(self.directory),
            "enabled": self.enabled,
            "entries": self.entry_count(),
            "tmp_files": self.tmp_count(),
            "blobs": blob_kinds,
        }

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "blob_hits": self.blob_hits,
            "blob_misses": self.blob_misses,
            "blob_stores": self.blob_stores,
            "lost_writes": self.lost_writes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return f"<ResultStore {str(self.directory)!r} {state}>"


# ----------------------------------------------------------------------
# Active-store management
# ----------------------------------------------------------------------
_ACTIVE_STORE: Optional[ResultStore] = None


def get_result_store() -> ResultStore:
    """The process-wide store (created lazily at the default location)."""
    global _ACTIVE_STORE
    if _ACTIVE_STORE is None:
        _ACTIVE_STORE = ResultStore()
    return _ACTIVE_STORE


def configure_result_store(
    directory: "Optional[pathlib.Path | str]" = None,
    enabled: bool = True,
) -> ResultStore:
    """Install (and return) a fresh process-wide store.

    ``directory=None`` keeps the default resolution (env var, then
    ``~/.cache/repro``); ``enabled=False`` turns the persistent layer
    off entirely (the in-process memo in ``repro.core.experiment``
    still applies).
    """
    global _ACTIVE_STORE
    _ACTIVE_STORE = ResultStore(directory, enabled=enabled)
    return _ACTIVE_STORE


class temp_result_store:
    """Context manager: a throwaway store for isolated runs/tests.

    >>> with temp_result_store() as store:      # doctest: +SKIP
    ...     run_simulation_cached("mp3d", 8, Protocol.SNOOPING)

    On exit the previous store is reinstated and the temp directory is
    removed.  Also usable as a pytest fixture body.
    """

    def __init__(self) -> None:
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self._previous: Optional[ResultStore] = None

    def __enter__(self) -> ResultStore:
        global _ACTIVE_STORE
        self._tempdir = tempfile.TemporaryDirectory(prefix="repro-cache-")
        self._previous = _ACTIVE_STORE
        _ACTIVE_STORE = ResultStore(self._tempdir.name, enabled=True)
        return _ACTIVE_STORE

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE_STORE
        _ACTIVE_STORE = self._previous
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


def iter_store_paths(store: ResultStore) -> Iterator[pathlib.Path]:
    """Paths of every entry in the store (debugging/inspection)."""
    if store.results_dir.is_dir():
        yield from sorted(store.results_dir.glob("*.json"))
