"""Unit tests for generator processes and interrupts."""

import pytest

from repro.sim import Interrupt, InterruptError


def test_process_runs_and_returns(env):
    def body(env):
        yield env.timeout(3)
        return "done"

    process = env.process(body(env))
    env.run()
    assert process.processed and process.value == "done"
    assert not process.is_alive


def test_process_bootstraps_at_current_instant(env):
    ticks = []

    def body(env):
        ticks.append(env.now)
        yield env.timeout(1)

    env.process(body(env))
    env.run()
    assert ticks == [0.0]


def test_processes_wait_on_each_other(env):
    def child(env):
        yield env.timeout(2)
        return 21

    def parent(env):
        value = yield env.process(child(env))
        return value * 2

    parent_proc = env.process(parent(env))
    env.run()
    assert parent_proc.value == 42


def test_failed_child_raises_in_parent(env):
    def child(env):
        yield env.timeout(1)
        raise ValueError("child broke")

    def parent(env):
        with pytest.raises(ValueError, match="child broke"):
            yield env.process(child(env))
        return "recovered"

    parent_proc = env.process(parent(env))
    env.run()
    assert parent_proc.value == "recovered"


def test_uncaught_process_exception_fails_process(env):
    def body(env):
        yield env.timeout(1)
        raise RuntimeError("kaboom")

    process = env.process(body(env))
    with pytest.raises(RuntimeError, match="kaboom"):
        env.run()
    assert process.failed


def test_interrupt_delivers_cause(env):
    causes = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            causes.append((env.now, interrupt.cause))

    def attacker(env, target):
        yield env.timeout(5)
        target.interrupt({"reason": "test"})

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert causes == [(5.0, {"reason": "test"})]


def test_interrupt_preempts_same_instant_timeout(env):
    """An interrupt issued at t (by an already-resumed process) wins over
    the victim's own timeout expiring at t, because interrupts are URGENT."""
    outcome = []

    def attacker(env):
        yield env.timeout(5)
        victim_proc.interrupt()

    def victim(env):
        try:
            yield env.timeout(5)
            outcome.append("timeout")
        except Interrupt:
            outcome.append("interrupt")

    # The attacker is created first, so its t=5 wakeup processes first.
    env.process(attacker(env))
    victim_proc = env.process(victim(env))
    env.run()
    assert outcome == ["interrupt"]


def test_interrupting_dead_process_raises(env):
    def body(env):
        yield env.timeout(1)

    process = env.process(body(env))
    env.run()
    with pytest.raises(InterruptError):
        process.interrupt()


def test_self_interrupt_rejected(env):
    def body(env):
        me = env.active_process
        with pytest.raises(InterruptError):
            me.interrupt()
        yield env.timeout(1)

    process = env.process(body(env))
    env.run()
    assert process.ok


def test_interrupted_process_can_rewait_original_event(env):
    log = []

    def victim(env):
        target = env.timeout(10, "original")
        try:
            yield target
        except Interrupt:
            log.append(("interrupted", env.now))
        value = yield target  # re-wait the same event
        log.append((value, env.now))

    def attacker(env, target):
        yield env.timeout(4)
        target.interrupt()

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    env.run()
    assert log == [("interrupted", 4.0), ("original", 10.0)]


def test_interrupt_does_not_resume_twice(env):
    """After an interrupt detaches from its target, the target settling
    must not resume the generator a second time."""
    resumes = []

    def victim(env):
        try:
            yield env.timeout(10)
        except Interrupt:
            pass
        resumes.append(env.now)
        yield env.timeout(100)

    def attacker(env, target):
        yield env.timeout(3)
        target.interrupt()

    proc = env.process(victim(env))
    env.process(attacker(env, proc))
    env.run(until=50)
    assert resumes == [3.0]


def test_yielding_non_event_is_an_error(env):
    def body(env):
        yield 42  # type: ignore[misc]

    process = env.process(body(env))
    with pytest.raises(TypeError):
        env.run()
    assert process.failed


def test_run_until_event_returns_value(env):
    def body(env):
        yield env.timeout(7)
        return "payload"

    process = env.process(body(env))
    assert env.run(until=process) == "payload"
    assert env.now == 7.0


def test_run_until_time_stops_clock_exactly(env):
    def ticker(env):
        while True:
            yield env.timeout(1)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_is_alive_transitions(env):
    def body(env):
        yield env.timeout(2)

    process = env.process(body(env))
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_finished_processes_leave_no_reference_cycles(env, cycles_of):
    """A finished process (and its generator) is freed by reference
    counting alone: nothing waits for the cyclic garbage collector."""

    def child(env):
        yield env.timeout(1)
        return "ok"

    def parent(env):
        value = yield env.process(child(env))
        assert value == "ok"

    for _ in range(50):
        env.process(parent(env))
    env.run()
    assert cycles_of(env) == []
