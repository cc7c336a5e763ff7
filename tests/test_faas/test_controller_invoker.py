"""Integration tests for the controller + invoker protocol."""

import numpy as np
import pytest

from repro.faas import (
    ActivationStatus,
    Broker,
    Controller,
    FaaSConfig,
    FunctionDef,
    Invoker,
    InvokerStatus,
)
from repro.faas.broker import FASTLANE_TOPIC
from repro.sim import Interrupt


def fast_config(**overrides):
    defaults = dict(
        publish_latency=0.001,
        system_overhead=0.0,
        drain_notify_delay=0.01,
        drain_republish_delay=0.001,
        drain_deregister_delay=0.01,
    )
    defaults.update(overrides)
    return FaaSConfig(**defaults)


def build_stack(env, config=None):
    config = config or fast_config()
    broker = Broker(env, publish_latency=config.publish_latency)
    controller = Controller(env, broker, config=config, rng=np.random.default_rng(0))
    return broker, controller, config


def spawn_invoker(env, broker, controller, config, invoker_id="inv-1", node="n0000"):
    invoker = Invoker(
        env, invoker_id, node, broker, controller.registry,
        config=config, rng=np.random.default_rng(1),
    )

    def lifecycle(env):
        yield from invoker.register()
        try:
            yield from invoker.serve()
        except Interrupt:
            yield from invoker.drain()

    proc = env.process(lifecycle(env))
    return invoker, proc


# ----------------------------------------------------------------------
# registration & health
# ----------------------------------------------------------------------
def test_register_makes_invoker_healthy(env):
    broker, controller, config = build_stack(env)
    invoker, _ = spawn_invoker(env, broker, controller, config)
    env.run(until=1)
    assert controller.healthy_invokers() == ["inv-1"]
    assert controller.invokers["inv-1"].status is InvokerStatus.HEALTHY


def test_missed_pings_mark_invoker_gone(env):
    """An invoker that registers and then falls silent (crash / SIGKILL
    without drain) is detected by the ping scanner."""
    broker, controller, config = build_stack(env)
    from repro.faas.messages import PingMessage

    broker.publish("health", PingMessage("crashed", "register", 0.0, node="n0000"))
    env.run(until=30)  # ping_timeout is 10 s, scanner period 2 s
    assert controller.invokers["crashed"].status is InvokerStatus.GONE
    assert any(e.kind == "invoker_lost" for e in controller.events)


def test_invoker_lost_reports_stranded_without_creating_its_topic(env):
    """The loss event counts the crashed invoker's unpulled messages by
    peeking: a topic nobody ever published to stays uncreated."""
    broker, controller, config = build_stack(env)
    from repro.faas.messages import PingMessage

    broker.publish("health", PingMessage("crashed", "register", 0.0, node="n0000"))
    env.run(until=30)
    lost = [e for e in controller.events if e.kind == "invoker_lost"]
    assert [e.detail for e in lost] == [{"stranded": 0}]
    assert controller.invoker_topic("crashed") not in broker.topic_names()


def test_invoke_without_function_fails(env):
    broker, controller, config = build_stack(env)

    def client(env):
        result = yield from controller.invoke("ghost")
        return result

    proc = env.process(client(env))
    env.run(until=5)
    assert proc.value.status is ActivationStatus.FAILED


def test_invoke_without_invokers_returns_503(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))

    def client(env):
        result = yield from controller.invoke("f")
        return result

    proc = env.process(client(env))
    env.run(until=5)
    assert proc.value.status is ActivationStatus.UNAVAILABLE
    assert controller.unavailable_count == 1


# ----------------------------------------------------------------------
# invocation path
# ----------------------------------------------------------------------
def test_end_to_end_invocation(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.05))
    spawn_invoker(env, broker, controller, config)

    def client(env):
        yield env.timeout(1)  # let registration land
        result = yield from controller.invoke("f")
        return result

    proc = env.process(client(env))
    env.run(until=10)
    result = proc.value
    assert result.status is ActivationStatus.SUCCESS
    assert result.response_time > 0.05  # duration + cold start
    record = controller.records[0]
    assert record.status is ActivationStatus.SUCCESS
    assert record.duration == pytest.approx(0.05)
    assert record.init_time > 0  # cold start charged


def test_warm_second_invocation_faster(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.05))
    spawn_invoker(env, broker, controller, config)

    def client(env):
        yield env.timeout(1)
        first = yield from controller.invoke("f")
        second = yield from controller.invoke("f")
        return first, second

    proc = env.process(client(env))
    env.run(until=10)
    first, second = proc.value
    assert second.response_time < first.response_time


def test_hash_affinity_routes_same_function_to_same_invoker(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    spawn_invoker(env, broker, controller, config, invoker_id="inv-1")
    spawn_invoker(env, broker, controller, config, invoker_id="inv-2", node="n0001")

    def client(env):
        yield env.timeout(1)
        for _ in range(5):
            yield from controller.invoke("f")

    env.process(client(env))
    env.run(until=10)
    assert len({r.invoker_id for r in controller.records}) == 1


def test_activation_timeout_when_invoker_silent(env):
    config = fast_config(activation_timeout=5.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    # Register a ghost invoker that never pulls its topic but pings.
    from repro.faas.messages import PingMessage

    broker.publish("health", PingMessage("ghost", "register", 0.0, node="x"))

    def keep_alive(env):
        while True:
            yield env.timeout(1.0)
            broker.publish("health", PingMessage("ghost", "healthy", env.now))

    env.process(keep_alive(env))

    def client(env):
        yield env.timeout(0.5)
        result = yield from controller.invoke("f")
        return result

    proc = env.process(client(env))
    env.run(until=20)
    assert proc.value.status is ActivationStatus.TIMEOUT
    assert proc.value.response_time == pytest.approx(5.0, abs=0.1)


def test_overload_rejection(env):
    config = fast_config(buffer_limit=2, max_containers=1)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="slow", duration=30.0))
    invoker, _ = spawn_invoker(env, broker, controller, config)

    def client(env):
        yield env.timeout(1)
        results = []
        procs = [env.process(controller.invoke("slow")) for _ in range(6)]
        for proc in procs:
            results.append((yield proc))
        return results

    proc = env.process(client(env))
    env.run(until=300)
    statuses = [r.status for r in proc.value]
    assert statuses.count(ActivationStatus.FAILED) >= 3
    assert invoker.stats.rejected_overload >= 3


# ----------------------------------------------------------------------
# drain protocol (Sec. III-C)
# ----------------------------------------------------------------------
def test_drain_deregisters_and_moves_unpulled_to_fastlane(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    invoker, proc = spawn_invoker(env, broker, controller, config)
    env.run(until=1)
    # Park messages in the invoker topic while it is busy pulling: publish
    # directly (controller would route here anyway).
    proc.interrupt("sigterm")
    env.run(until=5)
    assert controller.invokers["inv-1"].status is InvokerStatus.GONE
    assert invoker.stats.deregistered_at is not None


def test_drain_requeues_buffered_work_to_fastlane_and_other_invoker_serves(env):
    config = fast_config(activation_timeout=30.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="job", duration=5.0))
    # Single invoker first: it will receive the work.
    invoker1, proc1 = spawn_invoker(env, broker, controller, config, "inv-1")

    results = []

    def client(env):
        yield env.timeout(1)
        procs = [env.process(controller.invoke("job")) for _ in range(4)]
        for p in procs:
            results.append((yield p))

    env.process(client(env))

    def second_invoker(env):
        yield env.timeout(2.5)
        spawn_invoker(env, broker, controller, config, "inv-2", node="n0001")

    env.process(second_invoker(env))

    def sigterm(env):
        yield env.timeout(3.0)  # inv-1 executing + buffered work
        proc1.interrupt("sigterm")

    env.process(sigterm(env))
    env.run(until=60)
    statuses = [r.status for r in results]
    assert statuses.count(ActivationStatus.SUCCESS) == 4
    # At least one activation travelled through the fast lane.
    assert any(r.fast_laned for r in results)
    served_by = {r.activation_id: None for r in results}
    assert any(rec.invoker_id == "inv-2" for rec in controller.records)


def test_drain_without_other_invokers_loses_requeued_work_to_timeout(env):
    config = fast_config(activation_timeout=8.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="job", duration=5.0))
    invoker, proc = spawn_invoker(env, broker, controller, config)

    results = []

    def client(env):
        yield env.timeout(1)
        procs = [env.process(controller.invoke("job")) for _ in range(2)]
        for p in procs:
            results.append((yield p))

    env.process(client(env))

    def sigterm(env):
        yield env.timeout(2.0)
        proc.interrupt("sigterm")

    env.process(sigterm(env))
    env.run(until=60)
    # Requeued messages sat in the fast lane with nobody to serve them.
    statuses = {r.status for r in results}
    assert ActivationStatus.TIMEOUT in statuses


def test_non_interruptible_execution_finishes_during_drain(env):
    config = fast_config(interrupt_running=True, activation_timeout=30.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="job", duration=4.0))
    invoker, proc = spawn_invoker(env, broker, controller, config)

    results = []

    def client(env):
        yield env.timeout(1)
        result = yield from controller.invoke("job", interruptible=False)
        results.append(result)

    env.process(client(env))

    def sigterm(env):
        yield env.timeout(2.0)  # mid-execution
        proc.interrupt("sigterm")

    env.process(sigterm(env))
    env.run(until=60)
    assert results[0].status is ActivationStatus.SUCCESS
    # It was NOT fast-laned: the execution ran to completion locally.
    assert invoker.stats.completed == 1


def test_interruptible_execution_requeued_on_drain(env):
    config = fast_config(interrupt_running=True, activation_timeout=30.0)
    broker, controller, _ = build_stack(env, config)
    controller.deploy(FunctionDef(name="job", duration=10.0))
    invoker1, proc1 = spawn_invoker(env, broker, controller, config, "inv-1")
    spawn_stage = {}

    results = []

    def client(env):
        yield env.timeout(1)
        result = yield from controller.invoke("job", interruptible=True)
        results.append(result)

    env.process(client(env))

    def sigterm(env):
        yield env.timeout(3.0)
        proc1.interrupt("sigterm")
        # A second invoker appears and picks the requeued execution up.
        spawn_invoker(env, broker, controller, config, "inv-2", node="n0001")

    env.process(sigterm(env))
    env.run(until=60)
    assert results and results[0].status is ActivationStatus.SUCCESS
    assert results[0].fast_laned
    assert invoker1.stats.requeued_on_drain == 1


def test_fastlane_served_before_own_topic(env):
    broker, controller, config = build_stack(env)
    controller.deploy(FunctionDef(name="f", duration=0.01))
    from repro.faas.messages import ActivationMessage

    # Pre-load both topics before the invoker starts pulling.
    own = ActivationMessage("act-own", "f", None, 0.0, duration=0.01)
    fast = ActivationMessage("act-fast", "f", None, 0.0, duration=0.01)
    broker.topic("invoker-inv-1").put(own)
    broker.topic(FASTLANE_TOPIC).put(fast)

    served = []
    invoker = Invoker(
        env, "inv-1", "n0000", broker, controller.registry,
        config=config, rng=np.random.default_rng(1),
    )
    original = invoker._accept

    def spy(message):
        served.append(message.activation_id)
        original(message)

    invoker._accept = spy

    def lifecycle(env):
        yield from invoker.register()
        try:
            yield from invoker.serve()
        except Interrupt:
            pass

    env.process(lifecycle(env))
    env.run(until=5)
    assert served[0] == "act-fast"
