"""The invoker: one FaaS worker on one (transiently idle) node.

The serve loop pulls the **fast lane first**, then its own topic
(Sec. III-C), and spawns one executor per activation; executors serialize
on the container pool.  On SIGTERM the pilot job calls :meth:`drain`:

1. notify the controller (it stops routing here and moves the unpulled
   topic remainder to the fast lane),
2. republish the internal buffer — executors that have not started a
   function body — to the fast lane,
3. interrupt the *running* executions too, when both the deployment and
   the message allow it, and republish them,
4. wait out non-interruptible executions (SIGKILL may cut this short —
   then those activations are simply lost and time out at the controller),
5. deregister.

The whole handoff takes "a few seconds" in the paper; the step delays are
configurable in :class:`~repro.faas.config.FaaSConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faas.broker import Broker, COMPLETED_TOPIC, FASTLANE_TOPIC, HEALTH_TOPIC
from repro.faas.config import FaaSConfig
from repro.faas.containers import ContainerPool
from repro.faas.functions import FunctionRegistry
from repro.faas.messages import ActivationMessage, CompletionMessage, PingMessage
from repro.faas.runtime import ContainerRuntime, SingularityRuntime
from repro.sim import Environment, Interrupt, Process, Store


@dataclass
class InvokerStats:
    """Lifecycle + work statistics one invoker leaves behind."""

    invoker_id: str
    node: str
    started_at: float
    registered_at: Optional[float] = None
    drain_started_at: Optional[float] = None
    deregistered_at: Optional[float] = None
    completed: int = 0
    failed: int = 0
    rejected_overload: int = 0
    requeued_on_drain: int = 0
    abandoned_on_kill: int = 0
    cold_starts: int = 0
    warm_hits: int = 0

    @property
    def serving_time(self) -> float:
        """Seconds the invoker was registered and accepting work."""
        if self.registered_at is None:
            return 0.0
        end = self.drain_started_at or self.deregistered_at
        if end is None:
            return 0.0
        return max(0.0, end - self.registered_at)


class _Requeue(Exception):
    """Interrupt cause telling an executor to hand its message back."""


class _Kill(Exception):
    """Interrupt cause telling an executor to die silently (crash/SIGKILL):
    no completion is published — the activation is simply lost."""


class Invoker:
    """One OpenWhisk worker process."""

    def __init__(
        self,
        env: Environment,
        invoker_id: str,
        node: str,
        broker: Broker,
        registry: FunctionRegistry,
        config: Optional[FaaSConfig] = None,
        rng: Optional[np.random.Generator] = None,
        runtime: Optional[ContainerRuntime] = None,
        cluster_id: str = "",
    ) -> None:
        self.env = env
        self.invoker_id = invoker_id
        self.node = node
        #: federation member this worker's node belongs to
        self.cluster_id = cluster_id
        self.broker = broker
        self.registry = registry
        self.config = config or FaaSConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.runtime = runtime or SingularityRuntime(self.rng)
        self.pool = ContainerPool(env, self.runtime, self.config.max_containers)
        self.topic = f"invoker-{invoker_id}"
        self.stats = InvokerStats(invoker_id=invoker_id, node=node, started_at=env.now)
        self._draining = False
        #: activation_id -> (executor process, message, phase holder)
        self._executors: Dict[str, Tuple[Process, ActivationMessage, List[str]]] = {}
        self._ping_proc: Optional[Process] = None
        #: messages rescued from an interrupted pull (drain handles them)
        self._orphans: List[ActivationMessage] = []
        #: the topic stores _pull waits on, fast lane first; looked up at
        #: the first pull, which is when those topics come into being
        self._pull_stores: Optional[List[Store]] = None
        #: log-median of the per-activation system overhead
        self._log_overhead = (
            math.log(self.config.system_overhead)
            if self.config.system_overhead > 0 else 0.0
        )

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._executors)

    def register(self):
        """Announce this worker; start heartbeats.  (Generator.)"""
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id,
                "register",
                self.env.now,
                node=self.node,
                cluster=self.cluster_id,
            ),
        )
        self.stats.registered_at = self.env.now
        self._ping_proc = self.env.process(self._heartbeat())
        # Registration becomes effective when the controller consumes the
        # ping — one publish latency away.
        yield self.env.timeout(self.broker.publish_latency)

    def serve(self):
        """Main loop (generator).  Runs until interrupted by the pilot."""
        try:
            while True:
                messages = yield from self._pull()
                for message in messages:
                    self._accept(message)
        except Interrupt:
            raise  # the pilot's SIGTERM; drain() takes over

    def drain(self):
        """The SIGTERM handoff (generator).  Returns the final stats."""
        env = self.env
        cfg = self.config
        if self._draining:
            return self.stats
        self._draining = True
        self.stats.drain_started_at = env.now
        try:
            # 1. Tell the controller: no new work; it re-routes our topic.
            yield env.timeout(cfg.drain_notify_delay)
            self.broker.publish(
                HEALTH_TOPIC,
                PingMessage(
                    self.invoker_id,
                    "draining",
                    env.now,
                    node=self.node,
                    cluster=self.cluster_id,
                ),
            )

            # 2. + 3. Interrupt executors that may be requeued.
            for activation_id, (proc, message, phase) in list(self._executors.items()):
                if phase[0] == "running" and not (
                    cfg.interrupt_running and message.interruptible
                ):
                    continue  # must let it finish
                if proc.is_alive:
                    proc.interrupt(_Requeue())

            # Republish rescued + requeued messages onto the fast lane.
            requeue = list(self._orphans)
            self._orphans.clear()
            # Give interrupted executors their (URGENT) wakeups: one tick.
            yield env.timeout(0.0)
            for activation_id, (proc, message, phase) in list(self._executors.items()):
                if phase[0] == "requeued":
                    requeue.append(message)
                    del self._executors[activation_id]
            for message in requeue:
                if not cfg.use_fast_lane:
                    # Stock OpenWhisk: the message is simply lost; the
                    # activation will time out at the controller.
                    continue
                message.retries += 1
                message.fast_laned = True
                self.stats.requeued_on_drain += 1
                if message.retries <= cfg.max_retries:
                    self.broker.publish(FASTLANE_TOPIC, message)
                else:
                    self._complete(message, success=False, error="too many requeues")
                yield env.timeout(cfg.drain_republish_delay)

            # 4. Wait for non-interruptible executions to finish.
            remaining = [proc for proc, _m, _p in self._executors.values() if proc.is_alive]
            if remaining:
                yield env.all_of(remaining)

            # 5. Deregister.
            yield env.timeout(cfg.drain_deregister_delay)
        except Interrupt:
            # SIGKILL arrived mid-drain: everything still tracked is lost.
            self.stats.abandoned_on_kill += len(self._executors) + len(self._orphans)
            self._kill_executors()
            self._orphans.clear()
        self._shutdown()
        return self.stats

    def vanish(self) -> None:
        """Crash teardown: the node died.  Nothing is published — the
        controller must discover the loss via missed pings, and anything
        in flight is simply gone."""
        self._draining = True
        if self._ping_proc is not None and self._ping_proc.is_alive:
            self._ping_proc.interrupt("node_fail")
        self.stats.abandoned_on_kill += len(self._executors) + len(self._orphans)
        self._kill_executors()
        self._orphans.clear()
        self.pool.destroy_all()
        self.stats.cold_starts = self.pool.cold_starts
        self.stats.warm_hits = self.pool.warm_hits

    def _kill_executors(self) -> None:
        """Terminate every in-flight execution without completions: the
        processes must not keep computing (and publishing!) after the
        worker is gone."""
        for _aid, (proc, _message, _phase) in list(self._executors.items()):
            if proc.is_alive:
                proc.interrupt(_Kill())
        self._executors.clear()

    def abort(self) -> None:
        """Immediate teardown without the handoff (e.g. SIGTERM arrived
        before the invoker ever became healthy).  Deregisters so a
        register ping already in flight does not leave a ghost entry."""
        self._draining = True
        self._shutdown()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        env = self.env
        self.broker.publish(
            HEALTH_TOPIC,
            PingMessage(
                self.invoker_id,
                "deregister",
                env.now,
                node=self.node,
                cluster=self.cluster_id,
            ),
        )
        self.stats.deregistered_at = env.now
        if self._ping_proc is not None and self._ping_proc.is_alive:
            self._ping_proc.interrupt("shutdown")
        self.pool.destroy_all()
        self.stats.cold_starts = self.pool.cold_starts
        self.stats.warm_hits = self.pool.warm_hits

    def _heartbeat(self):
        env = self.env
        try:
            while True:
                yield env.timeout(self.config.ping_interval)
                kind = "healthy" if not self._draining else "draining"
                self.broker.publish(
                    HEALTH_TOPIC,
                    PingMessage(
                        self.invoker_id,
                        kind,
                        env.now,
                        node=self.node,
                        cluster=self.cluster_id,
                        free_slots=self.config.max_containers - self.pool.busy_count,
                    ),
                )
        except Interrupt:
            return

    def _pull(self):
        """Block until at least one message is available; fast lane first.

        If the pilot's SIGTERM lands exactly when a getter has already
        popped a message, that message is stashed in ``_orphans`` so the
        drain republishes it instead of losing it.
        """
        stores = self._pull_stores
        if stores is None:
            stores = self._pull_stores = []
            if self.config.use_fast_lane:
                stores.append(self.broker.topic(FASTLANE_TOPIC))
            stores.append(self.broker.topic(self.topic))
        getters = [store.get() for store in stores]
        try:
            yield self.env.any_of(getters)
        except Interrupt:
            for getter in getters:
                if getter.triggered:
                    self._orphans.append(getter.value)
                else:
                    getter.cancel()
            raise
        messages: List[ActivationMessage] = []
        for getter in getters:
            if getter.triggered:
                messages.append(getter.value)
            else:
                getter.cancel()
        return messages

    def _accept(self, message: ActivationMessage) -> None:
        """Admission control + executor spawn."""
        if self._draining:
            self._orphans.append(message)
            return
        if self.in_flight >= self.config.buffer_limit:
            # "the upper limit of concurrently running container
            # processes" (Sec. V-C): the activation fails outright.
            self.stats.rejected_overload += 1
            self._complete(message, success=False, error="invoker overloaded")
            return
        phase = ["waiting"]
        proc = self.env.process(self._execute(message, phase))
        proc.name = f"exec-{message.activation_id}"
        self._executors[message.activation_id] = (proc, message, phase)

    def _execute(self, message: ActivationMessage, phase: List[str]):
        env = self.env
        accepted_at = env.now
        container = None
        try:
            try:
                function = self.registry.get(message.function)
            except KeyError as exc:
                self._complete(message, success=False, error=str(exc))
                return
            container, init_time = yield from self.pool.acquire(function)
            phase[0] = "running"
            wait_time = env.now - accepted_at
            duration = (
                message.duration
                if message.duration is not None
                else function.sample_duration(self.rng)
            )
            overhead = self._sample_overhead()
            yield env.timeout(duration + overhead)
            self.pool.release(container)
            container = None
            self._complete(
                message,
                success=True,
                result={"ok": True},
                wait_time=wait_time,
                init_time=init_time,
                duration=duration,
            )
            self.stats.completed += 1
        except Interrupt as interrupt:
            if container is not None:
                self.pool.release(container)
            if isinstance(interrupt.cause, _Requeue):
                phase[0] = "requeued"
                return
            if isinstance(interrupt.cause, _Kill):
                return  # crash: no completion, the activation is lost
            raise
        finally:
            if phase[0] != "requeued":
                self._executors.pop(message.activation_id, None)

    def _sample_overhead(self) -> float:
        cfg = self.config
        if cfg.system_overhead <= 0:
            return 0.0
        return float(self.rng.lognormal(self._log_overhead, cfg.overhead_sigma))

    def _complete(
        self,
        message: ActivationMessage,
        success: bool,
        result=None,
        error: Optional[str] = None,
        wait_time: float = 0.0,
        init_time: float = 0.0,
        duration: float = 0.0,
    ) -> None:
        if not success:
            self.stats.failed += 1
        self.broker.publish(
            COMPLETED_TOPIC,
            CompletionMessage(
                activation_id=message.activation_id,
                invoker_id=self.invoker_id,
                success=success,
                result=result,
                error=error,
                wait_time=wait_time,
                init_time=init_time,
                duration=duration,
                fast_laned=message.fast_laned,
            ),
        )
