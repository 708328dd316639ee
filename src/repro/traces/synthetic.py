"""Synthetic per-processor trace generation.

Each processor's reference stream is generated independently (from a
seed + processor-id substream) as a sequence of **episodes**: a block
is chosen from one of the workload's pools and referenced for a
geometrically-distributed run, with stores drawn at the pool's write
fraction.  The first reference of an episode usually misses; the rest
hit -- so the episode-length knobs control the miss rates while the
reference-mix knobs (shared fraction, write fractions, instructions
per data reference) hold in expectation by construction.

Because pools have different run lengths, episodes are selected with
probability proportional to ``ref_fraction / run_mean`` so that the
*reference-level* pool mix matches the spec exactly in expectation.

Pools
-----
* **private** -- per-processor region (local home), Zipf locality;
* **migratory** -- a small global hot set referenced read-write by all
  processors: the source of dirty misses, invalidations, and the
  directory protocol's 1-cycle-dirty/2-cycle misses;
* **partitioned** -- per-processor slices of shared space, with an
  occasional stray access into another processor's slice (the
  multitasking effect): hits mostly, plus clean remote misses;
* **read-mostly** -- a large global pool with a low write fraction:
  capacity-driven clean misses.

The generators are deterministic in (seed, processor id) and
independent of simulation interleaving.  Only the draws depend on the
seed: the pools' cumulative Zipf weights are prefixes of shared tables
(:func:`repro.sim.rng.zipf_prefix_table`), and the ``instr_before``
column, a function of the record index alone, is built once per
generator and copied per node.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.memory.address import PAGE_SIZE, AddressMap
from repro.sim.rng import DeterministicRng, zipf_prefix_table
from repro.traces.benchmarks import BenchmarkSpec
from repro.traces.records import TraceRecord

__all__ = ["SyntheticTraceGenerator", "generate_trace", "Pool"]

#: Default write fraction for the read-mostly pool (see the
#: ``read_mostly_write_fraction`` spec field, which overrides this).
#: Kept very low: read-mostly writes hit blocks whose other copies are
#: spread thin, producing the no-sharer invalidations the paper shows
#: only ~12% of.
READ_MOSTLY_WRITE_FRACTION = 0.005


@dataclass(frozen=True)
class Pool:
    """One block pool: how often it is referenced and how."""

    name: str
    #: Target fraction of all data references landing in this pool.
    ref_fraction: float
    #: Mean episode length (consecutive references to one block).
    run_mean: float
    #: Store probability per reference.
    write_fraction: float
    #: Probability this pool starts the next episode (derived).
    episode_weight: float


class SyntheticTraceGenerator:
    """Builds per-processor reference streams for one benchmark spec."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        address_map: AddressMap,
        seed: int = 1993,
    ) -> None:
        if address_map.num_nodes != spec.processors:
            raise ValueError(
                f"address map has {address_map.num_nodes} nodes but spec "
                f"wants {spec.processors} processors"
            )
        # ``instr_before`` is held in a one-byte column; the fractional
        # carry keeps every value below ``instr_per_data + 1``.
        if not 0 <= spec.instr_per_data < 255:
            raise ValueError(
                f"spec.instr_per_data = {spec.instr_per_data} is outside "
                f"[0, 255): instr_before must fit one byte"
            )
        self.spec = spec
        self.address_map = address_map
        self.seed = seed
        # The pools' cumulative Zipf weights are prefixes of one shared
        # table per exponent (``zipf_prefix_table``): they depend on
        # neither the seed nor the node.
        self._zipf_private = zipf_prefix_table(
            spec.private_blocks, spec.zipf_exponent
        )
        total_shared = spec.shared_blocks_per_proc * spec.processors
        self._migratory_blocks = max(1, min(spec.migratory_blocks, total_shared))
        remaining = max(0, total_shared - self._migratory_blocks)
        self._partition_size = max(1, remaining // (2 * spec.processors))
        self._read_mostly_base = (
            self._migratory_blocks + self._partition_size * spec.processors
        )
        self._read_mostly_size = max(
            1, total_shared - self._read_mostly_base
        )
        self._zipf_read_mostly = zipf_prefix_table(
            self._read_mostly_size, spec.zipf_exponent
        )
        # Migratory blocks are picked uniformly: every block of the hot
        # set is passed around by all processors, which is enough
        # reader overlap for invalidations to find shared copies, and
        # it avoids concentrating write serialisation on a single
        # block (a convoy the paper's traces do not exhibit).
        self._zipf_migratory = zipf_prefix_table(self._migratory_blocks, 0.0)
        self.pools = self._build_pools()
        #: ``(length, instr_before column)`` of the last length built.
        self._instr_template: Tuple[int, array] = (0, array("B"))

    # ------------------------------------------------------------------
    # Pool construction
    # ------------------------------------------------------------------
    def _build_pools(self) -> List[Pool]:
        spec = self.spec
        migratory_write = self._solve_migratory_write_fraction()
        raw = [
            # (name, ref fraction, run mean, write fraction)
            (
                "private",
                1.0 - spec.shared_fraction,
                spec.private_run_mean,
                spec.private_write_fraction,
            ),
            (
                "migratory",
                spec.shared_fraction * spec.migratory_fraction,
                spec.shared_run_mean,
                migratory_write,
            ),
            (
                "partitioned",
                spec.shared_fraction * spec.partitioned_fraction,
                spec.shared_run_mean * 2.0,
                spec.partitioned_write_fraction,
            ),
            (
                "read-mostly",
                spec.shared_fraction * spec.read_mostly_fraction,
                spec.shared_run_mean,
                spec.read_mostly_write_fraction,
            ),
        ]
        # Episodes are picked proportionally to refs/run so that the
        # reference-level mix matches the target fractions.
        weights = [fraction / run for _, fraction, run, _ in raw]
        total = sum(weights)
        pools = []
        for (name, fraction, run, write), weight in zip(raw, weights):
            pools.append(
                Pool(
                    name=name,
                    ref_fraction=fraction,
                    run_mean=run,
                    write_fraction=write,
                    episode_weight=weight / total if total else 0.0,
                )
            )
        return pools

    def _solve_migratory_write_fraction(self) -> float:
        """Write fraction for migratory data hitting the spec's shared
        store mix (partitioned and read-mostly write at their fixed
        fractions; migratory absorbs the remainder, clamped to
        [0.05, 0.95])."""
        spec = self.spec
        if spec.migratory_fraction <= 0.0:
            return 0.0
        target = spec.shared_write_fraction
        fixed = (
            spec.read_mostly_fraction * spec.read_mostly_write_fraction
            + spec.partitioned_fraction * spec.partitioned_write_fraction
        )
        solved = (target - fixed) / spec.migratory_fraction
        return min(0.95, max(0.05, solved))

    def _burst_length(
        self, run: int, write_fraction: float, rng: DeterministicRng
    ) -> int:
        """Writes at the tail of a migratory episode.

        Returns either 0 (a read-only visit) or a full burst; the
        burst probability is set so the expected write count is
        exactly ``run * write_fraction``.
        """
        target = run * write_fraction
        if target <= 0.0:
            return 0
        # The accumulation factor makes bursts larger and rarer than a
        # uniform spread, so processors' read-shared copies pile up
        # between bursts -- the structure behind the paper's Table 1
        # observation that most invalidations find copies to kill.
        desired = math.ceil(target * self.spec.migratory_accumulation)
        burst = min(run, max(1, desired))
        # Keep at least one leading read when the write expectation
        # still fits: the burst's first store is then a permission
        # upgrade on a block the episode just pulled in (and downgraded
        # the prior owner of), not a write miss.
        if burst == run and run > 1 and target <= run - 1:
            burst = run - 1
        if rng.bernoulli(min(1.0, target / burst)):
            return burst
        return 0

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def _instr_column(self, data_refs: int) -> array:
        """A fresh copy of the ``instr_before`` column for ``data_refs``
        records.

        Record ``i`` carries the integer part of the running sum of
        ``instr_per_data`` over records ``0..i``, less what earlier
        records took: a function of the spec and of ``i`` alone, with
        no draw in it.  So every node and every seed gets the same
        column, built once per generator and length and copied per
        node.
        """
        length, template = self._instr_template
        if length != data_refs:
            instr_per_data = self.spec.instr_per_data
            template = array("B", [0]) * data_refs
            instr_carry = 0.0
            for position in range(data_refs):
                instr_carry += instr_per_data
                instr_before = int(instr_carry)
                instr_carry -= instr_before
                template[position] = instr_before
            self._instr_template = (data_refs, template)
        return template[:]

    def columns(self, node: int, data_refs: int) -> Tuple[array, array, array]:
        """The trace for processor ``node`` as three columns.

        Each column holds ``data_refs`` values, one per record:
        ``instr_before`` (``'B'``), address (``'Q'``) and ``is_write``
        (``'B'``, 0 or 1).  They are allocated at that length up front,
        so they hold exactly ``10 * data_refs`` bytes of values.

        ``instr_before`` holds no draw and is copied from the
        generator's one column for this length (:meth:`_instr_column`).
        The other two come from one episode loop, with every draw
        inlined on the bound methods of the node's generator.  Each
        inlined draw consumes that generator exactly as the
        :class:`DeterministicRng` call it stands for: ``randint(low,
        high)`` is ``low + randrange(high - low + 1)``, and the word
        offset repeats CPython's ``getrandbits`` rejection loop for
        ``randint(0, word_slots - 1)``.
        """
        if not 0 <= node < self.spec.processors:
            raise ValueError(f"node {node} out of range")
        spec = self.spec
        amap = self.address_map
        rng = DeterministicRng(self.seed, stream=node)
        random = rng.source.random
        randrange = rng.source.randrange
        getrandbits = rng.source.getrandbits
        geometric = rng.geometric
        zipf_index = rng.zipf_index
        instr_column = self._instr_column(data_refs)
        address_column = array("Q", [0]) * data_refs
        write_column = array("B", [0]) * data_refs
        block_size = amap.block_size
        word_slots = max(1, block_size // 4)
        word_bits = word_slots.bit_length()
        # Validates the whole private region once, not per episode.
        amap.private_block_address(node, spec.private_blocks - 1)
        private_base = amap.private_block_address(node, 0)
        shared_base = amap.shared_block_address(0)
        # Real shared data structures span many pages, so the paper's
        # random page-to-home allocation spreads even a hot working set
        # over all memory banks.  A dense logical layout would instead
        # put a whole pool on one page (one home bank would serialise
        # every miss).  Each logical shared block therefore gets its
        # own page, with the in-page offset varied so cache-set usage
        # stays spread.
        blocks_per_page = PAGE_SIZE // block_size
        stray = spec.partition_stray_probability
        # Deficit-stratified pool selection: the next episode goes to
        # the pool whose realised reference share lags its target the
        # most.  Randomness stays in the run lengths and block choices;
        # stratifying the pool sequence keeps the reference mix tight
        # even in short traces (a purely random choice needs ~10x more
        # references to converge because private episodes are few and
        # hundreds of references long).
        pools = self.pools
        fractions = [pool.ref_fraction for pool in pools]
        emitted_by_pool = [0] * len(fractions)
        # Migratory write bursts are slices of this.
        ones = array("B", [1]) * data_refs
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
                index = zipf_index(spec.private_blocks, self._zipf_private)
                base = private_base + index * block_size
            else:
                if pool.name == "migratory":
                    index = zipf_index(
                        self._migratory_blocks, self._zipf_migratory
                    )
                elif pool.name == "partitioned":
                    owner = node
                    if random() < stray:
                        owner = randrange(spec.processors)
                    index = (
                        self._migratory_blocks
                        + owner * self._partition_size
                        + randrange(self._partition_size)
                    )
                else:
                    index = self._read_mostly_base + zipf_index(
                        self._read_mostly_size, self._zipf_read_mostly
                    )
                base = shared_base + block_size * (
                    index * blocks_per_page + index % blocks_per_page
                )
            # Episode lengths have the pool's mean.  Short (shared) runs
            # are geometric -- their dispersion *is* the miss-rate
            # mechanism.  Long private runs use a bounded uniform draw
            # around the mean instead: a geometric with mean 500 has a
            # standard deviation of 500, which makes the realised pool
            # mix of a finite trace far too noisy, while locality
            # behaviour is insensitive to the run-length tail at scales
            # far beyond the miss-rate scale.
            mean = pool.run_mean
            if mean <= 50.0:
                run = geometric(mean)
            else:
                low = max(1, int(mean / 2))
                run = low + randrange(max(low, int(3 * mean / 2)) - low + 1)
            run = min(run, data_refs - emitted)
            end = emitted + run
            if pool.name == "migratory":
                # Migratory data follows the textbook read-modify-write
                # pattern: a read run ending in a write burst.  This
                # preserves the pool's write fraction while making an
                # invalidation almost always find the previous users'
                # copies -- the structure behind the paper's Table 1
                # ("most invalidations need the multicast round") and
                # Figure 5 dirty-miss shares.
                first_write = end - self._burst_length(
                    run, pool.write_fraction, rng
                )
                write_column[first_write:end] = ones[first_write:end]
                for position in range(emitted, end):
                    # The word offset varies within the block so the
                    # stream looks like real addresses, not block ids.
                    word = getrandbits(word_bits)
                    while word >= word_slots:
                        word = getrandbits(word_bits)
                    address_column[position] = base + word * 4
            else:
                write_fraction = pool.write_fraction
                for position in range(emitted, end):
                    if random() < write_fraction:
                        write_column[position] = 1
                    word = getrandbits(word_bits)
                    while word >= word_slots:
                        word = getrandbits(word_bits)
                    address_column[position] = base + word * 4
            emitted = end
            emitted_by_pool[which] += run
        return instr_column, address_column, write_column

    def stream(self, node: int, data_refs: int) -> Iterator[TraceRecord]:
        """The trace for processor ``node``: ``data_refs`` records.

        A :class:`TraceRecord` view over :meth:`columns`, with
        ``is_write`` a ``bool``.
        """
        instr_before, address, is_write = self.columns(node, data_refs)
        return map(
            TraceRecord._make, zip(instr_before, address, map(bool, is_write))
        )


def generate_trace(
    spec: BenchmarkSpec,
    address_map: AddressMap,
    node: int,
    data_refs: int,
    seed: int = 1993,
) -> List[TraceRecord]:
    """Materialise one processor's trace as a list (test convenience)."""
    generator = SyntheticTraceGenerator(spec, address_map, seed)
    return list(generator.stream(node, data_refs))
