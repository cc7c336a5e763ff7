"""``sinfo``-like queries with the measured response-latency jitter.

The paper's Slurm-level monitoring (Sec. IV-A) polled node states with a
fixed 10-second spacing between *receiving* one response and *sending* the
next request, because response times varied from under half a second to
almost twenty seconds.  Over their week of calibration, consecutive
measurements were 10 s apart in 76.43% of cases, 11–13 s in 23.26%, and
longer in the remaining 0.31% — we reproduce exactly that mixture here so
the Slurm-level analyses carry the same sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.slurmctld import SlurmController


@dataclass(frozen=True)
class SinfoSnapshot:
    """One point-in-time view of node states, as the poller records it."""

    #: when the response was received (sampling timestamp)
    time: float
    idle_nodes: Tuple[str, ...]
    #: nodes running jobs of the HPC-Whisk partition
    whisk_nodes: Tuple[str, ...]
    #: nodes allocated to prime jobs
    busy_nodes: Tuple[str, ...]
    #: nodes invisible to scheduling (down or commercially reserved)
    unavailable_nodes: Tuple[str, ...]


class QueryLatencyModel:
    """Samples slurmctld response latencies matching the paper's mixture.

    The three observed inter-measurement bands translate to latencies of
    roughly [0, 1) s, [1, 3] s and (3, 10] s given the poller's fixed
    10-second pause between response and next request.
    """

    BANDS: Tuple[Tuple[float, float, float], ...] = (
        (0.7643, 0.05, 0.95),
        (0.2326, 1.0, 3.0),
        (0.0031, 3.0, 10.0),
    )

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._weights = np.array([band[0] for band in self.BANDS])
        self._weights = self._weights / self._weights.sum()

    def sample(self) -> float:
        band = self._rng.choice(len(self.BANDS), p=self._weights)
        _, low, high = self.BANDS[band]
        return float(self._rng.uniform(low, high))


def sinfo(
    controller: "SlurmController",
    whisk_partition: str = "whisk",
    exclude: Optional[set[str]] = None,
) -> SinfoSnapshot:
    """Instantaneous node-state view (the poller adds latency around it)."""
    from repro.cluster.node import NodeState

    exclude = exclude or set()
    idle: List[str] = []
    whisk: List[str] = []
    busy: List[str] = []
    unavailable: List[str] = []
    nodes = controller.nodes
    idle_state, allocated_state = NodeState.IDLE, NodeState.ALLOCATED
    for name in sorted(nodes):
        if name in exclude:
            continue
        node = nodes[name]
        if node.state is idle_state:
            idle.append(name)
        elif node.state is allocated_state:
            assert node.job is not None
            if node.job.spec.partition == whisk_partition:
                whisk.append(name)
            else:
                busy.append(name)
        else:
            unavailable.append(name)
    return SinfoSnapshot(
        time=controller.env.now,
        idle_nodes=tuple(idle),
        whisk_nodes=tuple(whisk),
        busy_nodes=tuple(busy),
        unavailable_nodes=tuple(unavailable),
    )
