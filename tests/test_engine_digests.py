"""Bit-exact digests of whole simulations, one per engine configuration.

The simulator's counterpart of ``tests/test_model_digests.py``.  Each
case runs one trace-driven simulation and hashes the complete stored
result (``result_to_jsonable``: timings, every statistic, the model
inputs and the telemetry histograms) together with the kernel's
``events_processed``.  A change in any counter, in the number of
kernel events, or in the last bit of any float changes a digest.

The cases cover all five protocols, each with and without weak
ordering, on two workloads at 8 processors (the hierarchical machine
as 2 clusters of 4), with a short warm-up so the statistics reset is
covered too.  The caches are 1 KiB, so victims, write-backs,
write-back-buffer reclaims and sharing write-backs all occur.  Every
run starts from an empty result store with the in-process memo
cleared, so no stored result can answer for the code under test.

A second set of digests pins the traced event stream of each ring
engine (snooping, directory, linked list, and the hierarchy as 2
clusters of 4): every slotted-ring message's name, endpoints, start
and duration, which the stored result does not record.

A refactor of the engines that keeps every transaction's requests,
spawns and counter updates in the same order must leave all digests
unchanged.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import (
    CacheConfig,
    ProcessorConfig,
    Protocol,
    RingConfig,
    SystemConfig,
)
from repro.core.experiment import last_kernel_counters, run_simulation
from repro.core.store import result_to_jsonable
from repro.obs import Tracer

PROCESSORS = 8
DATA_REFS = 2000
WARMUP_REFS = 200
CACHE_BYTES = 1024
BENCHMARKS = ("mp3d", "cholesky")

#: sha256 over the stored result and ``events_processed``, keyed by
#: ``(benchmark, protocol, weak_ordering)``.
DIGESTS = {
    ("mp3d", "snooping", False): (
        "8d577fabce3e3b11ddcd501f69da95a3e8d888bd0ba5b81c8907d5fd207e72af"
    ),
    ("mp3d", "snooping", True): (
        "5e3433ef10ac34115f3f146ab8d88f6ee4e6761f693f1d9a197fd221bd74dd03"
    ),
    ("mp3d", "directory", False): (
        "d7c5bde590ce39d9c2f5e629e2ed801d3d4f4c307560ba0ef578372a8a1d08eb"
    ),
    ("mp3d", "directory", True): (
        "7449157060fb75c4f23744bebfd7b2f48cf0a7a20c16b8aae9bb94e31178862c"
    ),
    ("mp3d", "linked-list", False): (
        "229a05df7fc6e58e978119afabeaacbc2e9f065acede60376a7c061bfbf18604"
    ),
    ("mp3d", "linked-list", True): (
        "c1c0810fd3bd3e9be51b952ece45e064cf336ae4babe8d437cb581325b185049"
    ),
    ("mp3d", "bus", False): (
        "9723f0b9ede90cabafe06575e6033c05d3e4e77709069ceea600d18e0d5df81e"
    ),
    ("mp3d", "bus", True): (
        "a9f661e4fb1a318bf6f4091c496aa9880ec664d9f89d1ec418419be819743eac"
    ),
    ("mp3d", "hierarchical", False): (
        "8afc3c13929798502cad1fdb9f683c1c14c10d6e52368f48320d96e7137a9054"
    ),
    ("mp3d", "hierarchical", True): (
        "7f3d2624b5c3b8175c34540fe11962eccda7f01773c2ef30e7d50197805146ba"
    ),
    ("cholesky", "snooping", False): (
        "2f3c4418463d61bf60e044a2a2975bd2ce4e255b167ae30f8949b3f01e36db6d"
    ),
    ("cholesky", "snooping", True): (
        "a1dc7e451ed8447679515ab48af2bd8c139ad54a2f38b75fc08a8b3c0f92001a"
    ),
    ("cholesky", "directory", False): (
        "094231b1ced547da46b235f3a336045f4310a70d347da2b4e1c081670de25927"
    ),
    ("cholesky", "directory", True): (
        "b86bb4bdff52858c9b7f80be9526b51e25c81c8112c65350ed49e6246a2236f9"
    ),
    ("cholesky", "linked-list", False): (
        "a5831b40509984fabd36af852d89caec7218da3e7a87d6b6ce42b73bd8baa1ab"
    ),
    ("cholesky", "linked-list", True): (
        "2a75e067e96df55d1bc455c8d882a2ce4797247371ebd09b7edf0c142ba24afc"
    ),
    ("cholesky", "bus", False): (
        "4257890912f5f04b0be77b13f6cb5070ca3e7910bea9ba2cf9a00c969dbc075e"
    ),
    ("cholesky", "bus", True): (
        "2908c05e444ae59342ac4cd504b5c8b9a5863a1083cd647825f2900cabcc9bb7"
    ),
    ("cholesky", "hierarchical", False): (
        "9623fc421a25eca8cef3f8abc9338afb63b9427f7b2347a5df99ea0ccfa9180c"
    ),
    ("cholesky", "hierarchical", True): (
        "37adcfe8a9f57340fe92f51d7f8e43f5a4e8b27d51090f1807826e72b7ca1cae"
    ),
}


def _config(protocol: Protocol, weak: bool) -> SystemConfig:
    return SystemConfig(
        num_processors=PROCESSORS,
        protocol=protocol,
        ring=RingConfig(clusters=2),
        cache=CacheConfig(size_bytes=CACHE_BYTES),
        processor=ProcessorConfig(weak_ordering=weak),
    )


def engine_digest(benchmark: str, protocol: Protocol, weak: bool) -> str:
    result = run_simulation(
        benchmark,
        _config(protocol, weak),
        data_refs=DATA_REFS,
        warmup_refs=WARMUP_REFS,
    )
    payload = {
        "result": result_to_jsonable(result),
        "events_processed": last_kernel_counters()["events_processed"],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


CASES = [
    (benchmark, protocol, weak)
    for benchmark in BENCHMARKS
    for protocol in Protocol
    for weak in (False, True)
]


@pytest.mark.parametrize(
    "workload,protocol,weak",
    CASES,
    ids=[
        f"{benchmark}-{protocol.value}-{'weak' if weak else 'strict'}"
        for benchmark, protocol, weak in CASES
    ],
)
def test_engine_results_are_bit_exact(temp_store, workload, protocol, weak):
    assert engine_digest(workload, protocol, weak) == DIGESTS[
        (workload, protocol.value, weak)
    ]


# ----------------------------------------------------------------------
# The traced message stream of every ring engine
# ----------------------------------------------------------------------
TRACED_REFS = 1500

#: sha256 over ``Tracer.iter_jsonl()`` of one traced mp3d run per ring
#: engine: every message's name, endpoints, start and duration, and
#: every miss, forward and snoop event around them.
TRACE_DIGESTS = {
    "snooping": (
        "18e0013558503693396fc96efb9a7e4476b14aa06635a6cc5371dfc70169c184"
    ),
    "directory": (
        "69d0d7c2785c2475db922b8b2b11f0e13800bc73557309a6c91efdf8215e96de"
    ),
    "linked-list": (
        "4839036e1e87af76a8c0ec37a4f78c8aaa8c0f8159a21fda1174266ec4c4b9f7"
    ),
    "hierarchical": (
        "4c3d7b2f6d9e520613245db22eaa95053ab859eebe9314dcd650206ff0c43185"
    ),
}


def trace_digest(protocol: Protocol) -> str:
    tracer = Tracer()
    run_simulation(
        "mp3d", _config(protocol, False), data_refs=TRACED_REFS, tracer=tracer
    )
    digest = hashlib.sha256()
    for line in tracer.iter_jsonl():
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("protocol", sorted(TRACE_DIGESTS))
def test_traced_message_stream_is_bit_exact(temp_store, protocol):
    """The ring engines' messages -- names, endpoints (an inter-ring
    interface is named ``P + cluster``) and times -- are pinned, so a
    change to the slotted-ring message layer cannot move one."""
    assert trace_digest(Protocol(protocol)) == TRACE_DIGESTS[protocol]
