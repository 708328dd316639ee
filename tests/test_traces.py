"""Unit and property tests for the synthetic workload generators."""

import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import SHARED_BASE, AddressMap
from repro.traces.benchmarks import (
    BENCHMARKS,
    PAPER_TABLE2,
    available_configurations,
    benchmark_spec,
)
from repro.traces.records import TraceRecord
from repro.sim import rng as rng_module
from repro.traces.synthetic import SyntheticTraceGenerator, generate_trace
from tests.trace_oracle import reference_columns


def make_generator(name="mp3d", processors=8, seed=5):
    spec = benchmark_spec(name, processors)
    amap = AddressMap(processors, 16, seed=seed)
    return spec, SyntheticTraceGenerator(spec, amap, seed=seed)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_all_paper_configurations_present():
    expected = {
        ("mp3d", 8), ("mp3d", 16), ("mp3d", 32),
        ("water", 8), ("water", 16), ("water", 32),
        ("cholesky", 8), ("cholesky", 16), ("cholesky", 32),
        ("fft", 64), ("weather", 64), ("simple", 64),
    }
    assert set(available_configurations()) == expected
    assert set(PAPER_TABLE2) == expected


def test_unknown_benchmark_lists_options():
    with pytest.raises(KeyError) as excinfo:
        benchmark_spec("nonexistent", 8)
    assert "mp3d@8" in str(excinfo.value)


def test_spec_lookup_case_insensitive():
    assert benchmark_spec("MP3D", 16) is BENCHMARKS[("mp3d", 16)]


def test_specs_have_consistent_pool_fractions():
    for spec in BENCHMARKS.values():
        assert 0.0 < spec.shared_fraction < 1.0
        assert spec.migratory_fraction + spec.partitioned_fraction <= 1.0
        assert spec.read_mostly_fraction >= 0.0
        assert spec.instr_per_data > 0.0


def test_spec_scaled_override():
    spec = benchmark_spec("mp3d", 8)
    scaled = spec.scaled(shared_run_mean=3.0)
    assert scaled.shared_run_mean == 3.0
    assert scaled.name == spec.name


# ----------------------------------------------------------------------
# Generator mechanics
# ----------------------------------------------------------------------
def test_stream_length_exact():
    _, generator = make_generator()
    records = list(generator.stream(0, 500))
    assert len(records) == 500


def test_stream_deterministic():
    _, gen_a = make_generator(seed=9)
    _, gen_b = make_generator(seed=9)
    assert list(gen_a.stream(2, 300)) == list(gen_b.stream(2, 300))


def test_streams_differ_across_processors():
    _, generator = make_generator()
    a = list(generator.stream(0, 200))
    b = list(generator.stream(1, 200))
    assert a != b


def test_streams_differ_across_seeds():
    _, gen_a = make_generator(seed=1)
    _, gen_b = make_generator(seed=2)
    assert list(gen_a.stream(0, 200)) != list(gen_b.stream(0, 200))


def test_private_addresses_belong_to_generating_node():
    spec, generator = make_generator()
    amap = generator.address_map
    for record in generator.stream(3, 2_000):
        if record.address < SHARED_BASE:
            assert amap.home_of(record.address) == 3


def test_pool_episode_weights_sum_to_one():
    _, generator = make_generator()
    total = sum(pool.episode_weight for pool in generator.pools)
    assert total == pytest.approx(1.0)


def test_reference_mix_matches_spec():
    """Shared fraction and write fractions land near the Table 2
    targets (reference-weighted episode selection)."""
    spec, generator = make_generator("mp3d", 8)
    records = list(generator.stream(0, 40_000))
    shared = [r for r in records if r.address >= SHARED_BASE]
    private = [r for r in records if r.address < SHARED_BASE]
    shared_fraction = len(shared) / len(records)
    assert abs(shared_fraction - spec.shared_fraction) < 0.05
    private_writes = sum(r.is_write for r in private) / len(private)
    assert abs(private_writes - spec.private_write_fraction) < 0.04
    shared_writes = sum(r.is_write for r in shared) / len(shared)
    assert abs(shared_writes - spec.shared_write_fraction) < 0.07


def test_instruction_ratio_matches_spec():
    spec, generator = make_generator("water", 8)
    records = list(generator.stream(0, 20_000))
    instr = sum(r.instr_before for r in records)
    assert abs(instr / len(records) - spec.instr_per_data) < 0.02


def test_addresses_word_aligned_within_block():
    _, generator = make_generator()
    for record in generator.stream(0, 1_000):
        assert record.address % 4 == 0


def test_generator_rejects_mismatched_map():
    spec = benchmark_spec("mp3d", 8)
    amap = AddressMap(16, 16)
    with pytest.raises(ValueError):
        SyntheticTraceGenerator(spec, amap)


def test_stream_rejects_bad_node():
    _, generator = make_generator()
    with pytest.raises(ValueError):
        next(generator.stream(8, 10))


@pytest.mark.parametrize("instr_per_data", [255.0, 1e6, -0.5, float("nan")])
def test_generator_rejects_instr_per_data_outside_one_byte(instr_per_data):
    spec = benchmark_spec("mp3d", 8).scaled(instr_per_data=instr_per_data)
    with pytest.raises(ValueError, match="instr_per_data"):
        SyntheticTraceGenerator(spec, AddressMap(8, 16))
    with pytest.raises(ValueError, match="instr_per_data"):
        generate_trace(spec, AddressMap(8, 16), node=0, data_refs=10)


def test_largest_accepted_instr_per_data_fits_its_column():
    spec = benchmark_spec("mp3d", 8).scaled(instr_per_data=254.99)
    records = generate_trace(spec, AddressMap(8, 16), node=0, data_refs=500)
    assert max(record.instr_before for record in records) == 255


def test_stream_is_a_record_view_over_the_columns():
    _, generator = make_generator()
    instr_before, address, is_write = generator.columns(2, 700)
    assert [instr_before.typecode, address.typecode, is_write.typecode] == [
        "B", "Q", "B"
    ]
    assert set(is_write) <= {0, 1}
    records = list(generator.stream(2, 700))
    assert records == list(zip(instr_before, address, is_write))
    assert all(type(record.is_write) is bool for record in records)


def test_generate_trace_helper():
    spec = benchmark_spec("mp3d", 8)
    amap = AddressMap(8, 16)
    records = generate_trace(spec, amap, node=0, data_refs=50)
    assert len(records) == 50


def test_migratory_blocks_shared_across_processors():
    """Different processors touch overlapping migratory blocks --
    without this, no dirty misses could ever occur."""
    _, generator = make_generator("mp3d", 8)
    blocks = []
    for node in (0, 1):
        touched = {
            record.address // 16
            for record in generator.stream(node, 5_000)
            if record.address >= SHARED_BASE
        }
        blocks.append(touched)
    assert blocks[0] & blocks[1]


@given(refs=st.integers(1, 400), node=st.integers(0, 7), seed=st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_stream_always_yields_exactly_n_valid_records(refs, node, seed):
    spec = benchmark_spec("cholesky", 8)
    amap = AddressMap(8, 16, seed=seed)
    generator = SyntheticTraceGenerator(spec, amap, seed=seed)
    records = list(generator.stream(node, refs))
    assert len(records) == refs
    for record in records:
        assert record.instr_before >= 0
        assert record.address >= 0
        assert isinstance(record.is_write, bool)


# ----------------------------------------------------------------------
# The columns against the per-reference loop they replaced
# ----------------------------------------------------------------------
def _bytes(columns):
    return [column.tobytes() for column in columns]


@given(
    configuration=st.sampled_from(available_configurations()),
    instr_per_data=st.one_of(
        st.just(0.0),
        st.floats(0.0, 20.0),
        st.floats(254.0, 255.0, exclude_max=True),
    ),
    lengths=st.tuples(st.integers(1, 400), st.integers(1, 400)),
    no_migratory=st.booleans(),
    stray=st.one_of(st.none(), st.floats(0.01, 1.0)),
    block_size=st.sampled_from([16, 64]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_columns_match_the_per_reference_loop_byte_for_byte(
    configuration,
    instr_per_data,
    lengths,
    no_migratory,
    stray,
    block_size,
    seed,
    data,
):
    """Two nodes at two lengths on one generator, so the shared
    instruction column is reused across nodes and rebuilt for a new
    length."""
    name, processors = configuration
    overrides = {"instr_per_data": instr_per_data}
    if no_migratory:
        overrides["migratory_fraction"] = 0.0
    if stray is not None:
        overrides["partition_stray_probability"] = stray
    spec = benchmark_spec(name, processors).scaled(**overrides)
    amap = AddressMap(processors, block_size, seed=seed)
    generator = SyntheticTraceGenerator(spec, amap, seed=seed)
    nodes = data.draw(
        st.lists(st.integers(0, processors - 1), min_size=2, max_size=2)
    )
    for length in lengths:
        for node in nodes:
            assert _bytes(generator.columns(node, length)) == _bytes(
                reference_columns(generator, node, length)
            )


def test_every_node_gets_its_own_instruction_column():
    _, generator = make_generator()
    first = generator.columns(0, 300)[0]
    second = generator.columns(1, 300)[0]
    assert first == second and first is not second
    first[0] = 99
    assert generator.columns(2, 300)[0] == second


def test_two_threads_growing_both_tables_build_the_serial_bytes():
    """Two benchmarks' trace sets built at once from empty tables: both
    the 0.6 table (private and read-mostly pools) and the 0.0 table
    (migratory) grow while the other thread reads them."""
    configurations = [("mp3d", 8), ("water", 32)]

    def build(name, processors):
        spec = benchmark_spec(name, processors)
        amap = AddressMap(processors, 16, seed=11)
        generator = SyntheticTraceGenerator(spec, amap, seed=11)
        return [
            _bytes(generator.columns(node, 250))
            for node in range(processors)
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng_module, "_PREFIX_TABLES", {})
        serial = [build(*configuration) for configuration in configurations]
        patch.setattr(rng_module, "_PREFIX_TABLES", {})
        start = threading.Barrier(2)
        results = [None, None]

        def worker(slot):
            start.wait()
            results[slot] = build(*configurations[slot])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        tables = rng_module._PREFIX_TABLES
        assert sorted(tables) == [0.0, 0.6]
        generators = [
            SyntheticTraceGenerator(
                benchmark_spec(name, processors), AddressMap(processors, 16)
            )
            for name, processors in configurations
        ]
        assert len(tables[0.6]) == max(
            max(generator.spec.private_blocks, generator._read_mostly_size)
            for generator in generators
        )
    assert results == serial


# ----------------------------------------------------------------------
# Pinned streams
# ----------------------------------------------------------------------
#: Records per pinned stream.
DIGEST_REFS = 2_000

#: (benchmark, processors, seed) -> sha256 prefixes of the record
#: streams of node 0 and of the last node, each record hashed as
#: ``b"%d %d %d\n" % (instr_before, address, is_write)``.  Every
#: simulation, golden and stored result follows from these streams, so
#: a changed digest means a changed workload -- including one caused by
#: a Python release that draws ``randint`` differently, which the
#: generator's inlined draws would otherwise hide.
STREAM_DIGESTS = {
    ("cholesky", 8, 1993): ("e6865a88be686a12", "d50722d793623255"),
    ("cholesky", 8, 7): ("499e22443560bdc5", "54d84c7812a51348"),
    ("cholesky", 16, 1993): ("51c8a5cbc4dd13a9", "3a9ccbf4ec58b326"),
    ("cholesky", 16, 7): ("edabf757d9d92fe1", "5a407192cf326b2f"),
    ("cholesky", 32, 1993): ("3667c4a377055238", "fcb16ac508162acd"),
    ("cholesky", 32, 7): ("d7d3dcff942b4f87", "75fb385ab0ed1c49"),
    ("fft", 64, 1993): ("187cf319661eaa78", "2714e2af04da0b23"),
    ("fft", 64, 7): ("4ff532120dce3064", "752da0b8556954f0"),
    ("mp3d", 8, 1993): ("e2dc6760dfaa25f5", "58568fff9a420b45"),
    ("mp3d", 8, 7): ("98011674cce64959", "16459ba01fc2c468"),
    ("mp3d", 16, 1993): ("d13017364dfb4fb1", "91409435f2c5766f"),
    ("mp3d", 16, 7): ("683965c9b5c47cad", "0b6ceae5dd22bd1c"),
    ("mp3d", 32, 1993): ("09fe65ba59b9c72c", "a5234f2ae299f0da"),
    ("mp3d", 32, 7): ("c8b4854b6b96ea9c", "6b1ebfb57087a616"),
    ("simple", 64, 1993): ("2c7637cf8438cd4d", "c435414fe53cc11d"),
    ("simple", 64, 7): ("7d3674b10a8ff7eb", "17c4b1a4c7e4984d"),
    ("water", 8, 1993): ("d7821a21726337b5", "386cdb17a6bc0273"),
    ("water", 8, 7): ("e56fc1644c234aef", "0ee328575248559b"),
    ("water", 16, 1993): ("0b3d7b602aebbe0a", "baa6102743c24f4d"),
    ("water", 16, 7): ("b0a1a424965a1818", "198e0d2b32b61973"),
    ("water", 32, 1993): ("1b5ba8c8696656ff", "a01785ca51ae5505"),
    ("water", 32, 7): ("7c6fe07938cc6279", "5f0b591a8f72ee00"),
    ("weather", 64, 1993): ("931eb4b78b5b1919", "d46d5e01a9345df0"),
    ("weather", 64, 7): ("a80cd37a097e20b1", "53d8718b9bbf0b23"),
}


def _stream_digest(name, processors, seed, node):
    spec = benchmark_spec(name, processors)
    amap = AddressMap(processors, 16, seed=seed)
    records = generate_trace(spec, amap, node, DIGEST_REFS, seed=seed)
    assert all(type(record) is TraceRecord for record in records)
    return _digest(records)


def _digest(records):
    digest = hashlib.sha256()
    for instr_before, address, is_write in records:
        digest.update(b"%d %d %d\n" % (instr_before, address, is_write))
    return digest.hexdigest()[:16]


def test_stream_digests_cover_every_configuration():
    assert set(STREAM_DIGESTS) == {
        (name, processors, seed)
        for name, processors in available_configurations()
        for seed in (1993, 7)
    }


@pytest.mark.parametrize(
    "key", sorted(STREAM_DIGESTS), ids=lambda key: "%s%d-seed%d" % key
)
def test_stream_digests_are_pinned(key):
    name, processors, seed = key
    assert (
        _stream_digest(name, processors, seed, 0),
        _stream_digest(name, processors, seed, processors - 1),
    ) == STREAM_DIGESTS[key]


@pytest.mark.parametrize(
    "key", sorted(STREAM_DIGESTS), ids=lambda key: "%s%d-seed%d" % key
)
def test_cached_trace_sets_replay_the_pinned_streams(key):
    from repro.core.experiment import _TRACE_SETS, clear_simulation_cache

    name, processors, seed = key
    spec = benchmark_spec(name, processors)
    amap = AddressMap(processors, 16, seed=seed)
    columns = _TRACE_SETS.columns(spec, amap, seed, DIGEST_REFS)
    clear_simulation_cache(disk=False)
    assert (
        _digest(zip(*columns[0])),
        _digest(zip(*columns[processors - 1])),
    ) == STREAM_DIGESTS[key]
