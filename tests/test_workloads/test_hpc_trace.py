"""Tests for trace → prime-job conversion and the Fig 2 population."""

import numpy as np
import pytest

from repro.cluster import JobState, SlurmConfig, SlurmController
from repro.sim import Environment
from repro.workloads.hpc_trace import (
    JobPopulation,
    busy_intervals,
    trace_to_prime_jobs,
)
from repro.workloads.idleness import IdlenessTrace, IdlenessTraceGenerator, IdlePeriod


def small_trace():
    return IdlenessTrace(
        horizon=3600.0,
        num_nodes=2,
        periods=[
            IdlePeriod("n0000", 600.0, 900.0),
            IdlePeriod("n0000", 1800.0, 2000.0),
            IdlePeriod("n0001", 0.0, 300.0),
        ],
    )


def test_busy_intervals_complement():
    trace = small_trace()
    busy0 = busy_intervals(trace, "n0000")
    assert busy0 == [(0.0, 600.0), (900.0, 1800.0), (2000.0, 3600.0)]
    busy1 = busy_intervals(trace, "n0001")
    assert busy1 == [(300.0, 3600.0)]


def test_busy_intervals_fully_idle_node():
    trace = IdlenessTrace(
        horizon=100.0, num_nodes=1, periods=[IdlePeriod("n0000", 0.0, 100.0)]
    )
    assert busy_intervals(trace, "n0000") == []


def test_busy_intervals_from_grouped_periods_match_a_per_node_scan(rng):
    """Grouping the trace once gives the complement a per-node scan of
    every period gives, including unsorted and overlapping periods."""
    trace = IdlenessTraceGenerator(rng, num_nodes=12).generate(6 * 3600.0)
    trace.periods.append(IdlePeriod("n0003", 10.0, 20.0))
    trace.periods.append(IdlePeriod("n0003", 15.0, 40.0))
    by_node = trace.periods_by_node()
    for node in trace.node_names:
        idle = sorted(((p.start, p.end) for p in trace.periods if p.node == node),
                      key=lambda iv: iv[0])
        expected, cursor = [], 0.0
        for start, end in idle:
            if start > cursor:
                expected.append((cursor, start))
            cursor = max(cursor, end)
        if cursor < trace.horizon:
            expected.append((cursor, trace.horizon))
        assert busy_intervals(trace, node, by_node) == expected
        assert busy_intervals(trace, node) == expected


def test_trace_to_prime_jobs_pins_and_anchors(rng):
    trace = small_trace()
    workload = trace_to_prime_jobs(trace, rng)
    assert len(workload) > 0
    for prime in workload.jobs:
        spec = prime.spec
        assert spec.num_nodes == 1
        assert spec.required_nodes is not None and len(spec.required_nodes) == 1
        assert spec.begin_time is not None
        assert prime.submit_time <= spec.begin_time
        assert spec.actual_runtime is not None
        assert spec.time_limit >= spec.actual_runtime - 1e-6


def test_trace_to_prime_jobs_cover_busy_time(rng):
    trace = small_trace()
    workload = trace_to_prime_jobs(trace, rng)
    per_node_runtime = {}
    for prime in workload.jobs:
        node = prime.spec.required_nodes[0]
        per_node_runtime[node] = per_node_runtime.get(node, 0.0) + prime.spec.actual_runtime
    busy0 = sum(e - s for s, e in busy_intervals(trace, "n0000"))
    assert per_node_runtime["n0000"] == pytest.approx(busy0, rel=1e-9)


def test_replay_reproduces_idleness(rng):
    """Submitting the prime workload into the cluster sim must reproduce
    the trace's idle windows on the nodes (up to scheduling latency)."""
    trace = small_trace()
    workload = trace_to_prime_jobs(trace, rng)
    env = Environment()
    controller = SlurmController(env, SlurmConfig(num_nodes=2))
    submitted = workload.submit_all(env, controller)
    env.run(until=3600.0)
    controller.close_interval_log()
    finished = [j for j in submitted if j.finished]
    assert all(j.state is JobState.COMPLETED for j in finished)
    # Node n0000 must be free around t=700 (inside its idle window).
    busy_at_700 = [
        iv for iv in controller.allocation_log
        if iv.node == "n0000" and iv.start <= 700.0 < (iv.end or 3600.0)
    ]
    assert busy_at_700 == []
    # And busy around t=300 (inside a busy segment).
    busy_at_300 = [
        iv for iv in controller.allocation_log
        if iv.node == "n0000" and iv.start <= 300.0 < (iv.end or 3600.0)
    ]
    assert len(busy_at_300) == 1


def test_population_sampling(rng):
    jobs = JobPopulation(rng).sample(5000)
    assert len(jobs) == 5000
    limits = np.array([j.limit for j in jobs])
    slacks = np.array([j.slack for j in jobs])
    assert np.median(limits) == pytest.approx(3600.0, rel=0.1)
    assert (slacks >= -1e-9).all()
    assert slacks.mean() > 0  # visible slack, per Fig 2
