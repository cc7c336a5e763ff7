"""A federation of Slurm clusters behind one merged query surface.

Real sites run fleets of heterogeneous partitions and clusters; the
:class:`Federation` facade makes N :class:`~repro.cluster.slurmctld.SlurmController`
members addressable by ``cluster_id`` and exposes the merged views the
upper layers need — joint job queues, node counts, utilization weighted
by member size, and per-cluster + merged ``sacct``-style accounting.

Every member keeps its own scheduler hot loop, pending queue, and
allocation log; the federation never schedules across members itself.
Cross-cluster *activation* routing lives one layer up, in
:class:`repro.faas.router.FederationRouter` — this facade is the Slurm
half of the control plane.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.accounting import PartitionAccounting, merge_accounts, summarize
from repro.cluster.job import Job
from repro.cluster.slurmctld import SlurmController


class Federation:
    """N member clusters under one control plane, keyed by ``cluster_id``."""

    def __init__(self, members: Sequence[SlurmController]) -> None:
        if not members:
            raise ValueError("a federation needs at least one member cluster")
        self._members: Dict[str, SlurmController] = {}
        for member in members:
            if member.cluster_id in self._members:
                raise ValueError(
                    f"duplicate cluster_id {member.cluster_id!r} in federation"
                )
            self._members[member.cluster_id] = member

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def ids(self) -> List[str]:
        """Member ids in declaration order (the failover order)."""
        return list(self._members)

    @property
    def primary(self) -> SlurmController:
        """The first-declared member (the N=1 compatibility cluster)."""
        return next(iter(self._members.values()))

    def cluster(self, cluster_id: str) -> SlurmController:
        try:
            return self._members[cluster_id]
        except KeyError:
            raise KeyError(
                f"unknown cluster {cluster_id!r}; members: {self.ids}"
            ) from None

    def members(self) -> List[Tuple[str, SlurmController]]:
        return list(self._members.items())

    def __iter__(self) -> Iterator[SlurmController]:
        return iter(self._members.values())

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, cluster_id: str) -> bool:
        return cluster_id in self._members

    # ------------------------------------------------------------------
    # merged queries (squeue / sinfo over the fleet)
    # ------------------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        return sum(len(member.nodes) for member in self)

    def pending_jobs(self, partition: Optional[str] = None) -> List[Job]:
        jobs: List[Job] = []
        for member in self:
            jobs.extend(member.pending_jobs(partition))
        return jobs

    def running_jobs(self, partition: Optional[str] = None) -> List[Job]:
        jobs: List[Job] = []
        for member in self:
            jobs.extend(member.running_jobs(partition))
        return jobs

    def idle_node_names(self) -> Dict[str, List[str]]:
        """``cluster_id -> sorted idle node names`` across the fleet."""
        return {cid: member.idle_node_names() for cid, member in self.members()}

    def idle_node_count(self) -> int:
        return sum(member.idle_node_count() for member in self)

    # ------------------------------------------------------------------
    # merged accounting
    # ------------------------------------------------------------------
    def utilization(
        self, start: float, end: float, partition: Optional[str] = None
    ) -> float:
        """Node-time-weighted utilization over every member's log."""
        total = sum(len(member.nodes) for member in self)
        if total == 0:
            return 0.0
        weighted = sum(
            member.utilization(start, end, partition) * len(member.nodes)
            for member in self
        )
        return weighted / total

    def summarize(self) -> Dict[str, Dict[str, PartitionAccounting]]:
        """Per-member ``sacct`` accounting, keyed by cluster id."""
        return {cid: summarize(member) for cid, member in self.members()}

    def summarize_merged(self) -> Dict[str, PartitionAccounting]:
        """Fleet-wide accounting: every member's jobs in one view."""
        return merge_accounts(list(self.summarize().values()))

    def close_interval_logs(self) -> None:
        for member in self:
            member.close_interval_log()

    # ------------------------------------------------------------------
    # fleet-level failure injection (outage / maintenance windows)
    # ------------------------------------------------------------------
    def fail_cluster(self, cluster_id: str) -> None:
        """Take every node of one member down (a whole-cluster outage)."""
        member = self.cluster(cluster_id)
        for name in sorted(member.nodes):
            member.fail_node(name)

    def restore_cluster(self, cluster_id: str) -> None:
        """Return every DOWN node of one member to service."""
        member = self.cluster(cluster_id)
        for name in sorted(member.nodes):
            member.restore_node(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {cid: len(m.nodes) for cid, m in self.members()}
        return f"Federation({sizes})"


def federation_of(members: Mapping[str, SlurmController]) -> Federation:
    """Build a federation from an already-keyed mapping (id order kept)."""
    return Federation(list(members.values()))
