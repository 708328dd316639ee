"""Deterministic random-number helpers for workload generation.

All stochastic behaviour in the reproduction flows through
:class:`DeterministicRng` so that every experiment is reproducible from
a single integer seed.  Each processor's trace generator receives an
independent substream derived from (seed, stream id); results are
therefore invariant to process interleaving and to how many processors
are simulated.

The cumulative Zipf weights are seed-free: one running-sum table per
exponent (:func:`zipf_prefix_table`) serves every pool size, since the
table for ``n`` ranks is the bit-exact prefix of any longer one.
"""

from __future__ import annotations

import math
import random
import threading
from array import array
from bisect import bisect_left
from typing import Dict, List, Sequence

__all__ = ["DeterministicRng", "substream_seed"]

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def substream_seed(seed: int, stream: int) -> int:
    """Derive a well-separated 64-bit seed for substream ``stream``.

    Uses a splitmix64-style mixing step so that adjacent stream ids
    yield uncorrelated states.
    """
    z = (seed + (stream + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class DeterministicRng:
    """A seeded RNG with the handful of draws the generators need."""

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = seed
        self.stream = stream
        #: The underlying generator; hot loops hoist its bound methods.
        self.source = random.Random(substream_seed(seed, stream))

    def uniform(self) -> float:
        """A float in [0, 1)."""
        return self.source.random()

    def randint(self, low: int, high: int) -> int:
        """An integer in [low, high] inclusive."""
        return self.source.randint(low, high)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        return self.source.random() < probability

    def choice(self, options: Sequence) -> object:
        """A uniformly random element of ``options``."""
        return options[self.source.randrange(len(options))]

    def geometric(self, mean: float) -> int:
        """A geometric draw with the given mean (support {1, 2, ...}).

        Used for run lengths (consecutive references to one block) in
        the synthetic trace generators.  Inverse-CDF sampling:
        ``ceil(log(1-u) / log(1-p))`` with p = 1/mean.
        """
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        u = self.source.random()
        draw = int(math.log1p(-u) / math.log1p(-p)) + 1
        return min(draw, 1_000_000)

    def zipf_index(self, size: int, weights: Sequence[float]) -> int:
        """Index in [0, size) drawn with the given cumulative weights.

        Only ``weights[:size]`` is read, and the total is
        ``weights[size - 1]``: a longer running-sum table such as
        :func:`zipf_prefix_table`'s draws exactly as the exact-size
        list would.
        """
        u = self.source.random() * weights[size - 1]
        return bisect_left(weights, u, 0, size - 1)


#: exponent -> the longest running-sum table built so far.
_PREFIX_TABLES: Dict[float, array] = {}
_PREFIX_LOCK = threading.Lock()


def zipf_prefix_table(size: int, exponent: float) -> array:
    """A shared running-sum table of at least ``size`` Zipf ranks.

    Entry ``i`` is ``sum(1 / r ** exponent for r in 1..i+1)`` summed
    left to right, so the table for ``n`` ranks is the bit-exact prefix
    of the table for any longer ``m``: extending it continues the same
    sum from the same last value.  One table per exponent therefore
    serves every pool size, and a generator built for a new seed reads
    it instead of summing its pools again.

    A table grows by copying into a longer one under a lock; a
    published table is never written again, so readers on other
    threads need no lock.  Each distinct exponent holds its longest
    table (8 bytes a rank) for the life of the process.
    """
    table = _PREFIX_TABLES.get(exponent)
    if table is not None and len(table) >= size:
        return table
    with _PREFIX_LOCK:
        table = _PREFIX_TABLES.get(exponent)
        if table is None:
            table = array("d")
        elif len(table) >= size:
            return table
        grown = array("d", table)
        total = grown[-1] if grown else 0.0
        for rank in range(len(grown) + 1, size + 1):
            total += 1.0 / (rank ** exponent)
            grown.append(total)
        _PREFIX_TABLES[exponent] = grown
        return grown


def zipf_cumulative_weights(size: int, exponent: float) -> List[float]:
    """Cumulative Zipf(exponent) weights for ``size`` ranks.

    The first ``size`` entries of :func:`zipf_prefix_table`, as a
    list.  Combined with :meth:`DeterministicRng.zipf_index` this gives
    O(log n) skewed block selection, which is how the synthetic traces
    model temporal locality inside a working set.
    """
    return zipf_prefix_table(size, exponent)[: max(0, size)].tolist()


__all__ += ["zipf_cumulative_weights", "zipf_prefix_table"]
