"""Priority-tier scheduling with EASY-style backfill.

The planner is a pure function of the clock, the controller's
:class:`~repro.cluster.pending.PendingQueue`, the nodes, the partitions and
the ``committed`` map: it returns *decisions* — jobs to start now (with
granted time limits) and preemptions to issue.  The controller
(:mod:`repro.cluster.slurmctld`) owns all side effects and keeps the queue's
indices current, so a pass only visits the jobs that may start now plus the
per-node earliest begin times of pinned jobs; it never scans the queue.

Semantics reproduced from the paper's Slurm configuration (Sec. III-D):

* Higher priority tiers are planned first; a lower-tier job is started only
  where it cannot delay any known higher-tier start ("Slurm never allots a
  job with a lower priority tier if it would delay any job with a higher
  priority tier").
* Tier-0 jobs in a ``PreemptMode=CANCEL`` partition are *invisible* to
  higher-tier planning: a node running one counts as preemptable-now.
* Backfill operates on 2-minute slots over a 120-minute window: granted
  times of flexible jobs are rounded down to whole slots.
* Variable-length (``--time-min``) jobs are granted
  ``clamp(window, time_min, time_limit)``; their placement procedure is
  costlier, which we model with a per-pass budget
  (``max_flex_starts_per_pass``) and by restricting them to periodic
  backfill passes — the mechanism the paper blames for var's coverage gap
  (Sec. V-B2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.job import Job
from repro.cluster.node import Node, NodeState
from repro.cluster.partition import Partition
from repro.cluster.pending import PendingQueue, ready_time


@dataclass
class SchedulerConfig:
    """Tunables of the scheduling machinery.

    Defaults reproduce the Prometheus configuration described in the paper;
    ablation benchmarks sweep them.
    """

    #: backfill slot granularity, seconds (the paper: 2-minute slots)
    slot: float = 120.0
    #: backfill planning window, seconds (the paper: 120 minutes)
    bf_window: float = 7200.0
    #: delay between a triggering event and the pass taking effect, seconds
    sched_latency: float = 1.0
    #: periodic main-scheduler pass interval, seconds
    sched_interval: float = 15.0
    #: periodic backfill pass interval, seconds: tier-0 (pilot) jobs are
    #: placed only by these passes, never by event-triggered main passes —
    #: matching real Slurm, where backfill is a separate, slower cycle
    bf_interval: float = 30.0
    #: interval between backfill passes that also consider *flexible*
    #: (``--time-min``) jobs, seconds.  Scheduling a flexible job means
    #: "schedule at minimum time, then extend" (Sec. V-B2) — costly enough
    #: that the paper blames it for var's coverage gap; we model the cost
    #: as a slower cadence plus the per-pass start budget below.
    bf_flex_interval: float = 60.0
    #: max flexible-job starts per pass (extension procedure is expensive)
    max_flex_starts_per_pass: int = 4
    #: flexible-job extension success: Slurm grants ``time_min`` first and
    #: extends "until the time limit is reached or available resources are
    #: exhausted" (Sec. III-D).  With ~100 pending flexible pilots, their
    #: own reservations collide with the extension, so only a uniform
    #: fraction in [flex_extension_min, 1] of the feasible window is
    #: granted.  (1, 1) disables the pathology for ablations.
    flex_extension_min: float = 0.15
    flex_extension_max: float = 1.0
    #: max fixed tier-0 starts per pass (effectively unlimited by default)
    max_fixed_starts_per_pass: int = 1000
    #: reservations computed per pass for blocked unpinned jobs (EASY = 1)
    max_reservations: int = 8

    def floor_slot(self, seconds: float) -> float:
        """Round *seconds* down to a whole number of backfill slots."""
        return math.floor(seconds / self.slot) * self.slot


@dataclass
class StartDecision:
    """Start *job* on *nodes* with the given granted time limit."""

    job: Job
    nodes: Tuple[Node, ...]
    granted_time: float


@dataclass
class PreemptDecision:
    """Evict *victim* (a preemptible lower-tier job) to free nodes for *for_job*."""

    victim: Job
    for_job: Job


@dataclass
class SchedulingPlan:
    """Everything one pass decided."""

    starts: List[StartDecision] = field(default_factory=list)
    preemptions: List[PreemptDecision] = field(default_factory=list)
    #: node name -> job id: nodes to hold for a job awaiting preemptions
    commits: Dict[str, int] = field(default_factory=dict)
    #: tier-0 jobs examined (budget accounting, diagnostics)
    examined_tier0: int = 0
    #: ``_claim_map`` arguments, captured at the end of Phase A
    _claim_inputs: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _reservations: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def reservations(self) -> Dict[str, float]:
        """node name -> earliest known higher-tier claim (diagnostics/tests).

        Derived on first read: only passes that place tier-0 jobs need it.
        """
        if self._reservations is None:
            self._reservations = _claim_map(*self._claim_inputs) if self._claim_inputs else {}
        return self._reservations


def _free_nodes(nodes: Dict[str, Node], committed: Dict[str, int]) -> Dict[str, Node]:
    """Idle nodes not held for a waiting preemptor."""
    idle = NodeState.IDLE
    return {name: n for name, n in nodes.items() if n.state is idle and name not in committed}


def _claim_map(
    now: float, earliest: Dict[str, float], reserved: Dict[str, float]
) -> Dict[str, float]:
    """node -> earliest instant (``>= now``) a higher-tier job needs it.

    Pending pinned jobs announce their begin times as soon as they are
    submitted (the scheduler knows the queue), so they bound tier-0
    windows even before they become eligible; blocked jobs add the
    reservations in *reserved*.
    """
    claims = {name: at if at > now else now for name, at in earliest.items()}
    for name, when in reserved.items():
        prev = claims.get(name)
        if prev is None or when < prev:
            claims[name] = when
    return claims


class BackfillScheduler:
    """Plans one scheduling pass.  Stateless between passes (the RNG only
    feeds the flexible-extension model)."""

    def __init__(self, config: Optional[SchedulerConfig] = None, rng=None) -> None:
        self.config = config or SchedulerConfig()
        if rng is None:
            import numpy as np

            rng = np.random.default_rng(0)
        self.rng = rng

    # ------------------------------------------------------------------
    def plan(
        self,
        now: float,
        pending: Union[PendingQueue, Sequence[Job]],
        nodes: Dict[str, Node],
        partitions: Dict[str, Partition],
        committed: Dict[str, int],
        include_tier0: bool = True,
        include_flexible: bool = True,
    ) -> SchedulingPlan:
        """Compute one pass.

        ``pending`` is the controller's :class:`PendingQueue`; a plain
        sequence of jobs is indexed into one first.  ``committed`` maps
        node name → job id for nodes whose pilots are already being
        preempted on behalf of a waiting job; such nodes are untouchable
        by this pass (except by that waiting job itself).
        """
        if not isinstance(pending, PendingQueue):
            pending = PendingQueue(partitions, [j for j in pending if j.is_pending])
        pending.promote(now)
        plan = SchedulingPlan()
        cfg = self.config

        # free_now: nodes idle and not committed to a waiting preemptor
        # (built on first use: most passes have nothing ready to place)
        free_now: Optional[Dict[str, Node]] = None
        # Claims on nodes, beyond the begin times that pending pinned jobs
        # announce (``pending.earliest``): the reservations of blocked jobs.
        reserved: Dict[str, float] = {}

        def claim(node_name: str, when: float) -> None:
            prev = reserved.get(node_name)
            if prev is None or when < prev:
                reserved[node_name] = when

        # -- Phase A: higher tiers, highest first ------------------------
        reservations_left = cfg.max_reservations
        for tier in pending.ready_tiers():
            for job in pending.ready(tier):
                if free_now is None:
                    free_now = _free_nodes(nodes, committed)
                placed = self._try_start_or_preempt(
                    now, job, tier, nodes, partitions, free_now, committed, plan
                )
                if placed:
                    continue
                # Blocked: record a reservation so lower tiers cannot delay it.
                if reservations_left > 0:
                    reservations_left -= 1
                    self._reserve(now, job, nodes, partitions, committed, claim)

        plan._claim_inputs = (now, dict(pending.earliest), reserved)

        # -- Phase B: tier-0 backfill ------------------------------------
        if not include_tier0:
            return plan
        tier0_jobs = pending.ready(0)
        if not tier0_jobs:
            return plan
        if free_now is None:
            free_now = _free_nodes(nodes, committed)
        # claims[node] = earliest future instant a higher-tier job needs it
        claims = plan.reservations
        fixed_budget = cfg.max_fixed_starts_per_pass
        flex_budget = cfg.max_flex_starts_per_pass if include_flexible else 0
        # window(node) = time until the earliest higher-tier claim
        for job in tier0_jobs:
            if not free_now:
                break
            is_flex = job.spec.is_flexible
            if is_flex and flex_budget <= 0:
                continue
            if not is_flex and fixed_budget <= 0:
                continue
            plan.examined_tier0 += 1
            choice = self._fit_tier0(now, job, free_now, claims)
            if choice is None:
                continue
            node, granted = choice
            del free_now[node.name]
            plan.starts.append(StartDecision(job=job, nodes=(node,), granted_time=granted))
            if is_flex:
                flex_budget -= 1
            else:
                fixed_budget -= 1
        return plan

    # ------------------------------------------------------------------
    def _try_start_or_preempt(
        self,
        now: float,
        job: Job,
        tier: int,
        nodes: Dict[str, Node],
        partitions: Dict[str, Partition],
        free_now: Dict[str, Node],
        committed: Dict[str, int],
        plan: SchedulingPlan,
    ) -> bool:
        """Start *job* now, possibly by preempting lower-tier jobs.

        Returns True if the job was started or its nodes were committed via
        preemption; False if it stays blocked.
        """
        want = job.spec.num_nodes

        def claimed_by_other(name: str) -> bool:
            """Node already committed to another job — by a previous pass
            (the ``committed`` input) or earlier in THIS pass (the plan's
            accumulating commits)."""
            for claim_map in (committed, plan.commits):
                owner = claim_map.get(name)
                if owner is not None and owner != job.job_id:
                    return True
            return False

        if job.spec.required_nodes:
            candidates = list(job.spec.required_nodes[:want])
            usable: List[Node] = []
            preemptable: List[Job] = []
            for name in candidates:
                node = nodes[name]
                if claimed_by_other(name):
                    return False  # someone else already claimed this node
                if node.state is NodeState.IDLE:
                    # The node must also still be unclaimed within THIS
                    # pass: an earlier start decision pops it from
                    # free_now while the live state stays IDLE until the
                    # controller executes the plan.  (Reachable when an
                    # outage window delays one pinned job into the
                    # next one's slot on the same node.)
                    if name not in free_now and committed.get(name) != job.job_id:
                        return False
                    usable.append(node)
                elif node.state is NodeState.ALLOCATED and node.job is not None:
                    victim = node.job
                    vpart = partitions[victim.spec.partition]
                    if vpart.preemptible and vpart.priority_tier < tier:
                        preemptable.append(victim)
                    else:
                        return False  # busy with an equal/higher tier job
                else:
                    return False  # down / reserved
            if preemptable:
                for victim in preemptable:
                    plan.preemptions.append(PreemptDecision(victim=victim, for_job=job))
                for name in candidates:
                    plan.commits[name] = job.job_id
                    free_now.pop(name, None)
                return True  # will start once nodes free (controller commits)
            if len(usable) == want:
                for node in usable:
                    free_now.pop(node.name, None)
                plan.starts.append(
                    StartDecision(job=job, nodes=tuple(usable), granted_time=job.spec.time_limit)
                )
                return True
            return False

        # Unpinned: idle nodes already committed to this job (earlier
        # preemption round) come first, then any free node, then preempt
        # lower tiers for the remainder.
        mine = [
            nodes[name]
            for name in sorted(nodes)
            if committed.get(name) == job.job_id and nodes[name].state is NodeState.IDLE
        ]
        pool = mine + [free_now[name] for name in sorted(free_now) if free_now[name] not in mine]
        chosen = pool[:want]
        if len(chosen) == want:
            for node in chosen:
                free_now.pop(node.name, None)
            plan.starts.append(
                StartDecision(job=job, nodes=tuple(chosen), granted_time=job.spec.time_limit)
            )
            return True
        victims: List[Job] = []
        needed = want - len(chosen)
        for name in sorted(nodes):
            if needed <= len(victims):
                break
            node = nodes[name]
            if node.state is not NodeState.ALLOCATED or node.job is None:
                continue
            if claimed_by_other(name):
                continue
            vpart = partitions[node.job.spec.partition]
            if vpart.preemptible and vpart.priority_tier < tier and node.job not in victims:
                victims.append(node.job)
        if len(victims) >= needed:
            for victim in victims[:needed]:
                plan.preemptions.append(PreemptDecision(victim=victim, for_job=job))
                for node in victim.nodes:
                    plan.commits[node.name] = job.job_id
            # Hold the idle part of the allocation as well, so no pilot
            # slips onto it while the victims drain.
            for node in chosen:
                plan.commits[node.name] = job.job_id
                free_now.pop(node.name, None)
            return True
        return False

    def _reserve(
        self,
        now: float,
        job: Job,
        nodes: Dict[str, Node],
        partitions: Dict[str, Partition],
        committed: Dict[str, int],
        claim,
    ) -> None:
        """Claim the nodes a blocked job will use at its earliest start."""
        want = job.spec.num_nodes
        if job.spec.required_nodes:
            names = list(job.spec.required_nodes[:want])
            start = now
            for name in names:
                node = nodes[name]
                if node.state is NodeState.ALLOCATED and node.job is not None:
                    end = node.job.planned_end or now
                    vpart = partitions[node.job.spec.partition]
                    if vpart.preemptible:
                        end = now  # preemptable: effectively free now
                    start = max(start, end)
            start = max(start, ready_time(job))
            for name in names:
                claim(name, start)
            return
        # Unpinned: earliest instant `want` nodes are free, claiming the
        # earliest-freeing nodes (classic EASY shadow computation).
        frees: List[Tuple[float, str]] = []
        for name, node in nodes.items():
            if node.state is NodeState.IDLE:
                if committed.get(name) is None:
                    frees.append((now, name))
            elif node.state is NodeState.ALLOCATED and node.job is not None:
                vpart = partitions[node.job.spec.partition]
                end = now if vpart.preemptible else (node.job.planned_end or now)
                frees.append((end, name))
        frees.sort()
        if len(frees) < want:
            return
        shadow = max(t for t, _ in frees[:want])
        shadow = max(shadow, ready_time(job))
        for _, name in frees[:want]:
            claim(name, shadow)

    def _fit_tier0(
        self,
        now: float,
        job: Job,
        free_now: Dict[str, Node],
        claims: Dict[str, float],
    ) -> Optional[Tuple[Node, float]]:
        """Best-fit placement of a single-node tier-0 job.

        Picks the free node with the *smallest adequate* window, so long
        windows are preserved for long jobs.  Returns (node, granted_time)
        or None.
        """
        cfg = self.config
        spec = job.spec
        best: Optional[Tuple[float, Node, float]] = None
        for name in sorted(free_now):
            node = free_now[name]
            claim_at = claims.get(name)
            window = math.inf if claim_at is None else claim_at - now
            if window <= 0:
                continue
            if spec.is_flexible:
                fit = cfg.floor_slot(min(window, spec.time_limit))
                time_min = spec.time_min or fit
                if fit < time_min:
                    continue
                # Extension model: grant time_min plus a random share of
                # the remaining feasible window (see SchedulerConfig).
                share = float(
                    self.rng.uniform(cfg.flex_extension_min, cfg.flex_extension_max)
                )
                granted = cfg.floor_slot(time_min + share * (fit - time_min))
                granted = max(granted, time_min)
            else:
                if window < spec.time_limit:
                    continue
                granted = spec.time_limit
            key = window
            if best is None or key < best[0]:
                best = (key, node, granted)
        if best is None:
            return None
        return best[1], best[2]
