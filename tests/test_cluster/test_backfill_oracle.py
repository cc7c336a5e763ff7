"""The indexed planner against the scanning planner it replaced.

``_reference_plan`` is the pass as it was written over a flat pending
list: every pass classifies the whole queue by tier, re-emits every
pinned job's begin-time claim and sorts each tier, skipping the jobs
whose begin time lies ahead.  It shares the placement helpers
(``_try_start_or_preempt``, ``_reserve``, ``_fit_tier0``) with the
planner under test: the index changes which jobs a pass visits, in
what order, and where the claims come from, not how one job is placed.
Random sequences of submit, cancel, start, node and commit changes and
passes must give field-for-field identical plans, and the same RNG
state after each pass.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.backfill import BackfillScheduler, SchedulerConfig, SchedulingPlan, StartDecision
from repro.cluster.job import Job, JobSpec, JobState
from repro.cluster.node import Node, NodeState
from repro.cluster.partition import Partition, PreemptMode, default_partitions
from repro.cluster.pending import PendingQueue


def _reference_plan(
    scheduler: BackfillScheduler,
    now: float,
    pending: List[Job],
    nodes: Dict[str, Node],
    partitions: Dict[str, Partition],
    committed: Dict[str, int],
    include_tier0: bool = True,
    include_flexible: bool = True,
):
    """One pass by scanning *pending*; returns ``(plan, reservations)``."""
    plan = SchedulingPlan()
    cfg = scheduler.config

    def tier_of(job: Job) -> int:
        return partitions[job.spec.partition].priority_tier

    eligible = [j for j in pending if j.is_pending]
    tiers = sorted({tier_of(j) for j in eligible}, reverse=True)
    free_now = {
        name: n
        for name, n in nodes.items()
        if n.state is NodeState.IDLE and name not in committed
    }
    claims: Dict[str, float] = {}

    def claim(node_name: str, when: float) -> None:
        prev = claims.get(node_name)
        if prev is None or when < prev:
            claims[node_name] = when

    for job in pending:
        if not job.is_pending or tier_of(job) == 0:
            continue
        if job.spec.required_nodes:
            begin = job.spec.begin_time
            start_at = max(now, begin if begin is not None else job.submit_time)
            for node_name in job.spec.required_nodes[: job.spec.num_nodes]:
                claim(node_name, start_at)

    reservations_left = cfg.max_reservations
    for tier in tiers:
        if tier == 0:
            continue
        tier_jobs = sorted(
            (j for j in eligible if tier_of(j) == tier),
            key=lambda j: (-j.spec.priority, j.submit_time, j.job_id),
        )
        for job in tier_jobs:
            begin = job.spec.begin_time if job.spec.begin_time is not None else job.submit_time
            if begin > now:
                continue
            placed = scheduler._try_start_or_preempt(
                now, job, tier, nodes, partitions, free_now, committed, plan
            )
            if placed:
                continue
            if reservations_left > 0:
                reservations_left -= 1
                scheduler._reserve(now, job, nodes, partitions, committed, claim)

    if not include_tier0:
        return plan, dict(claims)
    fixed_budget = cfg.max_fixed_starts_per_pass
    flex_budget = cfg.max_flex_starts_per_pass if include_flexible else 0
    tier0_jobs = sorted(
        (j for j in eligible if tier_of(j) == 0),
        key=lambda j: (-j.spec.priority, j.submit_time, j.job_id),
    )
    for job in tier0_jobs:
        if not free_now:
            break
        is_flex = job.spec.is_flexible
        if is_flex and flex_budget <= 0:
            continue
        if not is_flex and fixed_budget <= 0:
            continue
        plan.examined_tier0 += 1
        choice = scheduler._fit_tier0(now, job, free_now, claims)
        if choice is None:
            continue
        node, granted = choice
        del free_now[node.name]
        plan.starts.append(StartDecision(job=job, nodes=(node,), granted_time=granted))
        if is_flex:
            flex_budget -= 1
        else:
            fixed_budget -= 1
    return plan, dict(claims)


def _fields(plan: SchedulingPlan, reservations: Dict[str, float]):
    return (
        [(d.job.job_id, tuple(n.name for n in d.nodes), d.granted_time) for d in plan.starts],
        [(p.victim.job_id, p.for_job.job_id) for p in plan.preemptions],
        list(plan.commits.items()),
        reservations,
        plan.examined_tier0,
    )


NUM_NODES = 5
NAMES = [f"n{i:04d}" for i in range(NUM_NODES)]


def _partitions() -> Dict[str, Partition]:
    partitions = default_partitions()
    # a second prime tier above "main", and a preemptible tier-1 one
    partitions["urgent"] = Partition(name="urgent", priority_tier=2)
    partitions["scavenger"] = Partition(
        name="scavenger", priority_tier=1, preempt_mode=PreemptMode.CANCEL
    )
    return partitions


_PRIME_PARTITION = st.sampled_from(["main", "urgent", "scavenger"])
_BEGIN = st.one_of(st.none(), st.sampled_from([-60.0, 0.0, 30.0, 45.0, 120.0, 600.0, 3600.0]))
_PRIORITY = st.sampled_from([0.0, 1.0, 5.0])

_SUBMIT = st.one_of(
    st.tuples(  # pinned prime job, one or more nodes
        st.just("pinned"),
        _PRIME_PARTITION,
        st.lists(st.integers(0, NUM_NODES - 1), min_size=1, max_size=3, unique=True),
        _BEGIN,
        _PRIORITY,
        st.sampled_from([300.0, 1800.0]),
    ),
    st.tuples(  # unpinned prime job
        st.just("unpinned"),
        _PRIME_PARTITION,
        st.integers(1, 3),
        _BEGIN,
        _PRIORITY,
        st.sampled_from([300.0, 1800.0]),
    ),
    st.tuples(  # tier-0 pilot: fixed or flexible; --begin is ignored for them
        st.just("pilot"),
        st.booleans(),
        st.sampled_from([120.0, 480.0, 1320.0, 5400.0]),
        _BEGIN,
        _PRIORITY,
    ),
)

_CHANGE = st.one_of(
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("start"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.sampled_from([15.0, 30.0, 45.0, 200.0, 1000.0])),
    st.tuples(
        st.just("node"),
        st.integers(0, NUM_NODES - 1),
        st.sampled_from(["idle", "down", "reserved", "whisk", "main", "scavenger"]),
        st.sampled_from([60.0, 900.0, 7200.0]),
    ),
    st.tuples(st.just("commit"), st.integers(0, NUM_NODES - 1), st.integers(-1, 63)),
)
#: one round: submissions, then queue/node/commit changes, then a pass
#: ``(include_tier0, include_flexible, apply its decisions)``
_ROUND = st.tuples(
    st.lists(_SUBMIT, max_size=4),
    st.lists(_CHANGE, max_size=4),
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
)


def _spec(kind, now: float, serial: int) -> JobSpec:
    if kind[0] == "pilot":
        _, flexible, length, begin, priority = kind
        begin_time = None if begin is None else max(0.0, now + begin)
        if flexible:
            return JobSpec(
                name=f"pilot-{serial}", partition="whisk", time_limit=7200.0,
                time_min=120.0, priority=priority, begin_time=begin_time,
            )
        return JobSpec(
            name=f"pilot-{serial}", partition="whisk", time_limit=length,
            priority=priority, begin_time=begin_time,
        )
    shape, partition, where, begin, priority, limit = kind
    begin_time = None if begin is None else max(0.0, now + begin)
    if shape == "pinned":
        return JobSpec(
            name=f"pinned-{serial}", partition=partition, num_nodes=len(where),
            required_nodes=tuple(NAMES[i] for i in where), begin_time=begin_time,
            priority=priority, time_limit=limit,
        )
    return JobSpec(
        name=f"unpinned-{serial}", partition=partition, num_nodes=where,
        begin_time=begin_time, priority=priority, time_limit=limit,
    )


def _occupy(node: Node, job: Job, now: float, granted: float) -> None:
    job.state = JobState.RUNNING
    job.start_time = now
    job.granted_time = granted
    job.nodes = job.nodes + (node,)
    node.state = NodeState.ALLOCATED
    node.job = job


@given(seed=st.integers(0, 2**16), rounds=st.lists(_ROUND, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_indexed_plan_matches_scanning_reference(seed, rounds):
    partitions = _partitions()
    nodes = {name: Node(name) for name in NAMES}
    config = SchedulerConfig(max_reservations=2, max_flex_starts_per_pass=2)
    under_test = BackfillScheduler(config, rng=np.random.default_rng(seed))
    wrapped = BackfillScheduler(config, rng=np.random.default_rng(seed))
    reference = BackfillScheduler(config, rng=np.random.default_rng(seed))
    queue = PendingQueue(partitions)
    pending: List[Job] = []  # the flat list the reference planner scanned
    committed: Dict[str, int] = {}
    now = 0.0
    serial = 0

    def drop(job: Job) -> None:
        queue.remove(job)
        pending.remove(job)
        for name in [n for n, jid in committed.items() if jid == job.job_id]:
            del committed[name]

    for submits, changes, (include_tier0, include_flexible, apply) in rounds:
        for kind in submits:
            serial += 1
            job = Job(_spec(kind, now, serial), submit_time=now)
            queue.add(job)
            pending.append(job)
        for op in changes:
            serial += 1
            kind = op[0]
            if kind in ("cancel", "start") and pending:
                job = pending[op[1] % len(pending)]
                drop(job)
                job.state = JobState.CANCELLED if kind == "cancel" else JobState.RUNNING
            elif kind == "advance":
                now += op[1]
            elif kind == "node":
                _, index, state, granted = op
                node = nodes[NAMES[index]]
                node.job = None
                if state == "idle":
                    node.state = NodeState.IDLE
                elif state == "down":
                    node.state = NodeState.DOWN
                elif state == "reserved":
                    node.state = NodeState.RESERVED
                else:
                    running = Job(JobSpec(name=f"running-{serial}", partition=state), now)
                    _occupy(node, running, now, granted)
            elif kind == "commit":
                _, index, which = op
                if which < 0 or not pending:
                    committed.pop(NAMES[index], None)
                else:
                    committed[NAMES[index]] = pending[which % len(pending)].job_id
        assert list(queue) == pending
        assert len(queue) == len(pending)

        flags = dict(include_tier0=include_tier0, include_flexible=include_flexible)
        expected_plan, expected_reservations = _reference_plan(
            reference, now, list(pending), nodes, partitions, dict(committed), **flags
        )
        expected = _fields(expected_plan, expected_reservations)
        got = under_test.plan(now, queue, nodes, partitions, dict(committed), **flags)
        assert _fields(got, got.reservations) == expected
        via_list = wrapped.plan(now, list(pending), nodes, partitions, dict(committed), **flags)
        assert _fields(via_list, via_list.reservations) == expected
        state = reference.rng.bit_generator.state
        assert under_test.rng.bit_generator.state == state
        assert wrapped.rng.bit_generator.state == state
        if apply:  # execute the plan as the controller would
            committed.update(got.commits)
            for decision in got.starts:
                drop(decision.job)
                for node in decision.nodes:
                    committed.pop(node.name, None)
                    _occupy(node, decision.job, now, decision.granted_time)
