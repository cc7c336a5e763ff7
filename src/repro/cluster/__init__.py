"""A Slurm-like HPC workload manager, simulated.

This package reimplements the slice of Slurm that HPC-Whisk depends on
(Sec. III-D of the paper):

* whole-node allocations with **priority tiers** — a lower-tier job is never
  placed where it would delay a higher-tier job;
* **preemption** (``PreemptMode=CANCEL``) with a SIGTERM → grace →
  SIGKILL sequence (3-minute grace on Prometheus);
* an EASY-style **backfill scheduler** operating on 2-minute slots over a
  120-minute window, including **variable-length jobs**
  (``--time-min``/``--time``), whose placement procedure is costlier — the
  mechanism the paper blames for the var model's coverage gap;
* a **query interface** (`sinfo`-like) with the response-latency jitter the
  authors measured while polling the production system.

The controller is :class:`~repro.cluster.slurmctld.SlurmController`; each
node runs a :class:`~repro.cluster.slurmd.NodeDaemon`.
"""

from repro.cluster.job import (
    Job,
    JobSignal,
    JobSpec,
    JobState,
)
from repro.cluster.node import Node, NodeState
from repro.cluster.partition import Partition, PreemptMode
from repro.cluster.backfill import BackfillScheduler, SchedulerConfig
from repro.cluster.pending import PendingQueue
from repro.cluster.slurmctld import SlurmConfig, SlurmController
from repro.cluster.slurmd import NodeDaemon
from repro.cluster.reservations import Reservation
from repro.cluster.query import QueryLatencyModel, SinfoSnapshot
from repro.cluster.accounting import (
    PartitionAccounting,
    merge_accounts,
    render_sacct,
    summarize,
)
from repro.cluster.federation import Federation

__all__ = [
    "BackfillScheduler",
    "Federation",
    "PartitionAccounting",
    "PendingQueue",
    "merge_accounts",
    "render_sacct",
    "summarize",
    "Job",
    "JobSignal",
    "JobSpec",
    "JobState",
    "Node",
    "NodeState",
    "NodeDaemon",
    "Partition",
    "PreemptMode",
    "QueryLatencyModel",
    "Reservation",
    "SchedulerConfig",
    "SinfoSnapshot",
    "SlurmConfig",
    "SlurmController",
]
