"""Tests for controller load-balancing strategies."""

import numpy as np
import pytest

from repro.faas.broker import Broker
from repro.faas.loadbalancer import HashAffinity, LeastLoaded, RoundRobin


@pytest.fixture
def broker(env):
    return Broker(env, publish_latency=0.0)


HEALTHY = ["inv-1", "inv-2", "inv-3"]


def test_hash_affinity_stable(broker):
    balancer = HashAffinity()
    first = balancer.choose("my-function", HEALTHY, broker)
    for _ in range(10):
        assert balancer.choose("my-function", HEALTHY, broker) == first


def test_hash_affinity_spreads_functions(broker):
    balancer = HashAffinity()
    chosen = {balancer.choose(f"fn-{i}", HEALTHY, broker) for i in range(50)}
    assert chosen == set(HEALTHY)


def test_hash_affinity_empty(broker):
    assert HashAffinity().choose("f", [], broker) is None


def test_hash_affinity_remaps_on_membership_change(broker):
    balancer = HashAffinity()
    with_three = balancer.choose("f", HEALTHY, broker)
    with_two = balancer.choose("f", HEALTHY[:2], broker)
    assert with_three in HEALTHY
    assert with_two in HEALTHY[:2]


def test_round_robin_cycles(broker):
    balancer = RoundRobin()
    sequence = [balancer.choose("whatever", HEALTHY, broker) for _ in range(6)]
    assert sequence == HEALTHY * 2


def test_round_robin_empty(broker):
    assert RoundRobin().choose("f", [], broker) is None


def test_least_loaded_picks_shallowest(broker):
    balancer = LeastLoaded()
    broker.topic("invoker-inv-1").put("m1")
    broker.topic("invoker-inv-1").put("m2")
    broker.topic("invoker-inv-2").put("m1")
    assert balancer.choose("f", HEALTHY, broker) == "inv-3"


def test_least_loaded_tie_breaks_by_name(broker):
    assert LeastLoaded().choose("f", HEALTHY, broker) == "inv-1"


def test_least_loaded_routing_creates_no_topics(broker):
    """Routing observes topic depths; it must not materialize a topic
    for every invoker it asks about."""
    broker.topic("invoker-inv-2").put("m1")
    before = broker.topic_names()
    for _ in range(3):
        assert LeastLoaded().choose("f", HEALTHY, broker) == "inv-1"
    assert broker.topic_names() == before == ["invoker-inv-2"]


def test_controller_accepts_custom_balancer(env):
    from repro.faas import Controller, FaaSConfig

    broker = Broker(env, publish_latency=0.0)
    controller = Controller(
        env, broker, config=FaaSConfig(), rng=np.random.default_rng(0),
        load_balancer=RoundRobin(),
    )
    assert controller.load_balancer.name == "round-robin"
