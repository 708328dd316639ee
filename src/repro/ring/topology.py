"""Ring topology: pipeline stages, node placement and distances.

The ring is a circular pipeline.  Every node contributes a minimum of
3 stages of latches (paper section 4.2), and the total stage count is
rounded up to an integer number of frames so slot boundaries stay
aligned as slots circulate.  For the paper's 8-node, 500 MHz, 32-bit,
16-byte-block configuration this yields 24 + 6 = 30 stages and a 60 ns
round trip -- exactly the numbers in section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.ring.slots import FrameLayout

__all__ = ["RingTopology", "STAGES_PER_NODE"]

#: Paper: "a minimum of 3 stages per node".
STAGES_PER_NODE = 3


@dataclass(frozen=True)
class RingTopology:
    """Node placement on the circular pipeline.

    Nodes sit at ``STAGES_PER_NODE`` intervals starting at stage 0;
    the padding stages needed to reach a whole number of frames follow
    the last node.  Messages travel in the direction of increasing
    stage number.
    """

    num_nodes: int
    frame_stages: int
    stages_per_node: int = STAGES_PER_NODE

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("a ring needs at least 2 nodes")
        if self.frame_stages < 1:
            raise ValueError("frame_stages must be positive")
        if self.stages_per_node < 1:
            raise ValueError("stages_per_node must be positive")

    @classmethod
    def for_layout(
        cls,
        num_nodes: int,
        layout: FrameLayout,
        stages_per_node: int = STAGES_PER_NODE,
    ) -> "RingTopology":
        """Topology for ``num_nodes`` nodes carrying ``layout`` frames."""
        return cls(
            num_nodes=num_nodes,
            frame_stages=layout.frame_stages,
            stages_per_node=stages_per_node,
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @cached_property
    def raw_stages(self) -> int:
        """Stages contributed by node interfaces alone."""
        return self.num_nodes * self.stages_per_node

    @cached_property
    def total_stages(self) -> int:
        """Ring length in stages, padded to whole frames.

        ``cached_property`` (writing through the instance ``__dict__``,
        which a frozen dataclass permits) because the geometry is
        immutable and this sits on the slot scheduler's per-arrival hot
        path.
        """
        frames = -(-self.raw_stages // self.frame_stages)
        return frames * self.frame_stages

    @cached_property
    def num_frames(self) -> int:
        """Frames circulating on the ring."""
        return self.total_stages // self.frame_stages

    @property
    def padding_stages(self) -> int:
        """Extra stages appended after the last node."""
        return self.total_stages - self.raw_stages

    @cached_property
    def stage_table(self) -> Tuple[int, ...]:
        """Pipeline stage of every node's interface, by node."""
        return tuple(
            node * self.stages_per_node for node in range(self.num_nodes)
        )

    @cached_property
    def distance_table(self) -> Tuple[Tuple[int, ...], ...]:
        """``distance_table[src][dst]``: :meth:`distance` for every node pair.

        Precomputed once (``num_nodes ** 2`` ints; 4,096 at 64 nodes)
        because the message primitives look a distance up per send.
        """
        total = self.total_stages
        stages = self.stage_table
        return tuple(
            tuple(
                (dst_stage - src_stage) % total or total
                for dst_stage in stages
            )
            for src_stage in stages
        )

    def node_stage(self, node: int) -> int:
        """Pipeline stage at which ``node``'s interface sits."""
        if not 0 <= node < self.num_nodes:
            self._check_node(node)
        return self.stage_table[node]

    def distance(self, src: int, dst: int) -> int:
        """Stages (= ring cycles) from ``src`` to ``dst``.

        A message to the sending node itself (``src == dst``) travels
        the full ring -- that is how broadcast probes return to their
        requester.
        """
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            self._check_node(src)
            self._check_node(dst)
        return self.distance_table[src][dst]

    def is_on_path(self, src: int, via: int, dst: int) -> bool:
        """Whether ``via`` lies strictly between ``src`` and ``dst``.

        Used to classify directory misses: when the dirty node sits on
        the ring path between the requester and the home, the
        three-hop transaction needs a second ring traversal (paper
        Figure 2.b).
        """
        if via == src or via == dst:
            return False
        return self.distance(src, via) < self.distance(src, dst)

    def round_trip_cycles(self) -> int:
        """Cycles for one full traversal (the ring's 'pure' latency)."""
        return self.total_stages

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
