"""The controller's pending queue, indexed for the backfill planner.

A scheduling pass needs two views of the pending jobs: the jobs of each
priority tier that may start now, in planning order, and per node the
earliest start that a pending higher-tier pinned job has announced (the
claim that bounds tier-0 windows there).  Rebuilding both from a flat list
scans and sorts the whole queue every pass, although most of it is
trace-replay jobs waiting for their ``--begin`` time.
:class:`PendingQueue` keeps the views up to date as jobs are added and
removed, so a pass costs work in proportion to the jobs that are ready.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.cluster.job import Job
from repro.cluster.partition import Partition


def ready_time(job: Job) -> float:
    """When a higher-tier job may start: its ``--begin``, else its submit time."""
    begin = job.spec.begin_time
    return begin if begin is not None else job.submit_time


def _order_key(job: Job) -> Tuple[float, float, int]:
    """Planning order within a tier: priority first, then FIFO."""
    return (-job.spec.priority, job.submit_time, job.job_id)


class PendingQueue:
    """Pending jobs in submission order, plus the planner's indices.

    * ``ready(tier)`` -- the tier's jobs that may start now, sorted by
      ``(-priority, submit_time, job_id)``.  Tier-0 jobs are ready on
      arrival (backfill places them regardless of ``--begin``); a
      higher-tier job waits in a heap until :meth:`promote` reaches its
      :func:`ready_time`.
    * ``earliest`` -- node name -> earliest :func:`ready_time` of the
      pending higher-tier jobs pinned to that node.

    Iteration, ``len`` and ``in`` see the jobs in submission order, like
    the list this replaces.  ``promote`` assumes a non-decreasing clock.
    """

    def __init__(self, partitions: Mapping[str, Partition], jobs: Iterable[Job] = ()) -> None:
        self._partitions = partitions
        #: every pending job -> its tier, in submission order
        self._jobs: Dict[Job, int] = {}
        #: tier -> ready jobs as sorted ``(*_order_key(job), job)`` entries
        self._ready: Dict[int, List[tuple]] = {}
        #: ``(ready_time, job_id, job)`` of higher-tier jobs not yet ready
        #: (those in ``_not_ready``); a job removed before its turn is
        #: dropped when it surfaces
        self._waiting: List[tuple] = []
        self._not_ready: Set[Job] = set()
        #: node -> heap of ``(ready_time, job_id, job)`` of the pinned
        #: higher-tier jobs on it; the top entry is always a pending job
        self._pins: Dict[str, List[tuple]] = {}
        #: node -> earliest ready time of a pending higher-tier job pinned there
        self.earliest: Dict[str, float] = {}
        for job in jobs:
            self.add(job)

    # -- the list surface ------------------------------------------------
    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job: object) -> bool:
        return job in self._jobs

    # -- updates ---------------------------------------------------------
    def add(self, job: Job) -> None:
        tier = self._partitions[job.spec.partition].priority_tier
        self._jobs[job] = tier
        if tier == 0:
            insort(self._ready.setdefault(0, []), (*_order_key(job), job))
            return
        at = ready_time(job)
        heappush(self._waiting, (at, job.job_id, job))
        self._not_ready.add(job)
        spec = job.spec
        if spec.required_nodes:
            for name in spec.required_nodes[: spec.num_nodes]:
                heappush(self._pins.setdefault(name, []), (at, job.job_id, job))
                earliest = self.earliest.get(name)
                if earliest is None or at < earliest:
                    self.earliest[name] = at

    def remove(self, job: Job) -> None:
        """Drop *job* (started or cancelled); ``KeyError`` if not pending."""
        tier = self._jobs.pop(job)
        if job in self._not_ready:
            self._not_ready.remove(job)
        else:
            entries = self._ready[tier]
            del entries[bisect_left(entries, _order_key(job))]
        spec = job.spec
        if tier and spec.required_nodes:
            jobs = self._jobs
            for name in set(spec.required_nodes[: spec.num_nodes]):
                pins = self._pins[name]
                while pins and pins[0][2] not in jobs:
                    heappop(pins)
                if pins:
                    self.earliest[name] = pins[0][0]
                else:
                    del self._pins[name]
                    del self.earliest[name]

    def promote(self, now: float) -> None:
        """Move every higher-tier job whose ready time is ``<= now`` to its ready list."""
        waiting = self._waiting
        not_ready = self._not_ready
        while waiting and waiting[0][0] <= now:
            job = heappop(waiting)[2]
            if job in not_ready:
                not_ready.remove(job)
                insort(self._ready.setdefault(self._jobs[job], []), (*_order_key(job), job))

    # -- planner views -----------------------------------------------------
    def ready_tiers(self) -> List[int]:
        """Tiers above 0 with ready jobs, highest first."""
        tiers = [tier for tier, entries in self._ready.items() if tier and entries]
        return sorted(tiers, reverse=True)

    def ready(self, tier: int) -> List[Job]:
        """The tier's ready jobs in planning order."""
        return [entry[-1] for entry in self._ready.get(tier, ())]
