"""The synthetic trace generator's earlier per-reference loop.

:meth:`repro.traces.synthetic.SyntheticTraceGenerator.columns` copies
its ``instr_before`` column from one per-generator template, reads its
Zipf weights from shared prefix tables and writes a migratory write
burst as one slice.  This module keeps the loop it replaced -- exact-
size weight lists, the instruction carry and the write test on every
reference -- so tests can hold the fast path to it byte for byte.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import List, Tuple

from repro.memory.address import PAGE_SIZE
from repro.sim.rng import DeterministicRng


def reference_weights(size: int, exponent: float) -> List[float]:
    """Cumulative Zipf weights for ``size`` ranks, summed afresh."""
    weights: List[float] = []
    total = 0.0
    for rank in range(1, size + 1):
        total += 1.0 / (rank ** exponent)
        weights.append(total)
    return weights


def reference_zipf_index(source, size: int, weights: List[float]) -> int:
    """The draw on an exact-size weight list: the total is its last."""
    u = source.random() * weights[-1]
    return bisect_left(weights, u, 0, size - 1)


def reference_columns(
    generator, node: int, data_refs: int
) -> Tuple[array, array, array]:
    """``generator.columns(node, data_refs)`` by the per-reference loop."""
    spec = generator.spec
    amap = generator.address_map
    if not 0 <= node < spec.processors:
        raise ValueError(f"node {node} out of range")
    zipf_private = reference_weights(spec.private_blocks, spec.zipf_exponent)
    zipf_migratory = reference_weights(generator._migratory_blocks, 0.0)
    zipf_read_mostly = reference_weights(
        generator._read_mostly_size, spec.zipf_exponent
    )
    rng = DeterministicRng(generator.seed, stream=node)
    source = rng.source
    random = source.random
    randrange = source.randrange
    getrandbits = source.getrandbits
    instr_column = array("B", [0]) * data_refs
    address_column = array("Q", [0]) * data_refs
    write_column = array("B", [0]) * data_refs
    block_size = amap.block_size
    word_slots = max(1, block_size // 4)
    word_bits = word_slots.bit_length()
    amap.private_block_address(node, spec.private_blocks - 1)
    private_base = amap.private_block_address(node, 0)
    shared_base = amap.shared_block_address(0)
    blocks_per_page = PAGE_SIZE // block_size
    stray = spec.partition_stray_probability
    instr_per_data = spec.instr_per_data
    pools = generator.pools
    fractions = [pool.ref_fraction for pool in pools]
    emitted_by_pool = [0] * len(fractions)
    instr_carry = 0.0
    emitted = 0
    while emitted < data_refs:
        target = emitted + 1
        deficits = [
            fraction * target - count
            for fraction, count in zip(fractions, emitted_by_pool)
        ]
        which = deficits.index(max(deficits))
        pool = pools[which]
        if pool.name == "private":
            index = reference_zipf_index(
                source, spec.private_blocks, zipf_private
            )
            base = private_base + index * block_size
        else:
            if pool.name == "migratory":
                index = reference_zipf_index(
                    source, generator._migratory_blocks, zipf_migratory
                )
            elif pool.name == "partitioned":
                owner = node
                if random() < stray:
                    owner = randrange(spec.processors)
                index = (
                    generator._migratory_blocks
                    + owner * generator._partition_size
                    + randrange(generator._partition_size)
                )
            else:
                index = generator._read_mostly_base + reference_zipf_index(
                    source, generator._read_mostly_size, zipf_read_mostly
                )
            base = shared_base + block_size * (
                index * blocks_per_page + index % blocks_per_page
            )
        mean = pool.run_mean
        if mean <= 50.0:
            run = rng.geometric(mean)
        else:
            low = max(1, int(mean / 2))
            run = low + randrange(max(low, int(3 * mean / 2)) - low + 1)
        run = min(run, data_refs - emitted)
        end = emitted + run
        write_fraction = pool.write_fraction
        migratory = pool.name == "migratory"
        if migratory:
            first_write = end - generator._burst_length(
                run, write_fraction, rng
            )
        for position in range(emitted, end):
            instr_carry += instr_per_data
            instr_before = int(instr_carry)
            instr_carry -= instr_before
            instr_column[position] = instr_before
            if migratory:
                if position >= first_write:
                    write_column[position] = 1
            elif random() < write_fraction:
                write_column[position] = 1
            word = getrandbits(word_bits)
            while word >= word_slots:
                word = getrandbits(word_bits)
            address_column[position] = base + word * 4
        emitted = end
        emitted_by_pool[which] += run
    return instr_column, address_column, write_column
