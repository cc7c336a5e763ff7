"""The controller's indexed pending queue."""

from repro.cluster import JobSpec, JobState, SlurmConfig, SlurmController
from repro.cluster.job import Job
from repro.cluster.partition import default_partitions
from repro.cluster.pending import PendingQueue


def make_cluster(env, nodes=4):
    return SlurmController(env, SlurmConfig(num_nodes=nodes))


def pinned(node, begin, name="prime", runtime=None, **kwargs):
    return JobSpec(
        name=name, time_limit=600.0, required_nodes=(node,), begin_time=begin,
        actual_runtime=runtime, **kwargs,
    )


def claims_of(controller):
    plan = controller.scheduler.plan(
        controller.env.now, controller.pending, controller.nodes,
        controller.partitions, controller.committed, include_tier0=False,
    )
    return plan.reservations


def test_cancelling_a_future_pinned_job_drops_its_claim(env):
    controller = make_cluster(env)
    job = controller.submit(pinned("n0001", begin=1000.0))
    assert controller.pending.earliest == {"n0001": 1000.0}
    assert claims_of(controller) == {"n0001": 1000.0}
    controller.cancel(job)
    assert controller.pending.earliest == {}
    assert claims_of(controller) == {}


def test_starting_the_earlier_of_two_pinned_jobs_exposes_the_later_claim(env):
    controller = make_cluster(env)
    first = controller.submit(pinned("n0002", begin=100.0, name="first", runtime=50.0))
    second = controller.submit(pinned("n0002", begin=500.0, name="second", runtime=50.0))
    assert controller.pending.earliest == {"n0002": 100.0}
    env.run(until=130.0)
    assert first.is_running
    assert controller.pending.earliest == {"n0002": 500.0}
    assert claims_of(controller) == {"n0002": 500.0}
    env.run(until=700.0)
    assert second.state is JobState.COMPLETED
    assert controller.pending.earliest == {}


def test_job_is_promoted_once_its_begin_time_is_reached():
    queue = PendingQueue(default_partitions())
    future = Job(JobSpec(name="later", begin_time=500.0), submit_time=0.0)
    pilot = Job(JobSpec(name="pilot", partition="whisk", begin_time=900.0), submit_time=0.0)
    queue.add(future)
    queue.add(pilot)
    # tier-0 jobs are ready on arrival; higher tiers wait for --begin
    assert queue.ready(0) == [pilot]
    queue.promote(499.0)
    assert queue.ready_tiers() == [] and queue.ready(1) == []
    queue.promote(500.0)
    assert queue.ready_tiers() == [1] and queue.ready(1) == [future]
    queue.remove(future)
    assert queue.ready(1) == [] and future not in queue


def test_iteration_is_submission_order(env):
    controller = make_cluster(env, nodes=1)
    controller.submit(JobSpec(name="blocker", time_limit=900.0, actual_runtime=900.0))
    env.run(until=5.0)
    specs = [
        JobSpec(name="p1", partition="whisk", time_limit=120.0, priority=1.0),
        pinned("n0000", begin=3000.0, name="f1"),
        JobSpec(name="p2", partition="whisk", time_limit=480.0, priority=9.0),
        JobSpec(name="u1", time_limit=300.0),
        JobSpec(name="p3", partition="whisk", time_limit=120.0, priority=4.0),
    ]
    jobs = [controller.submit(spec) for spec in specs]
    controller.cancel(jobs[2])
    expected = [jobs[0], jobs[1], jobs[3], jobs[4]]
    assert list(controller.pending) == expected
    assert len(controller.pending) == 4
    # the supply observation's pending tuple is this filtered view
    assert controller.pending_jobs("whisk") == [jobs[0], jobs[4]]
    assert controller.pending_jobs() == expected


def test_started_job_leaves_the_queue(env):
    controller = make_cluster(env, nodes=1)
    controller.submit(JobSpec(name="a", time_limit=100.0, actual_runtime=100.0))
    waiting = controller.submit(JobSpec(name="b", time_limit=100.0))
    env.run(until=10.0)
    assert waiting in controller.pending
    env.run(until=150.0)
    assert waiting.is_running
    assert waiting not in controller.pending
    assert len(controller.pending) == 0


def test_idle_node_count_matches_the_sorted_names(env):
    controller = make_cluster(env, nodes=5)
    controller.submit(JobSpec(name="a", num_nodes=2, time_limit=100.0))
    env.run(until=10.0)
    assert controller.idle_node_count() == len(controller.idle_node_names()) == 3
