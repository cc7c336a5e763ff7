"""Per-invoker container pools: warm reuse, cold starts, LRU eviction.

OpenWhisk keeps containers warm per function: a repeat invocation lands in
an existing container in milliseconds, a first (or evicted) one pays the
cold start.  The pool enforces the node's container capacity; when full,
an idle container of another function is evicted, and if everything is
busy the acquisition waits in FIFO order.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.faas.functions import FunctionDef
from repro.faas.runtime import ContainerRuntime
from repro.sim import Environment, Event

_container_ids = itertools.count(1)


class Container:
    """One container bound to a function's image and name."""

    __slots__ = ("container_id", "function", "busy", "created_at", "last_used")

    def __init__(self, function: str, now: float) -> None:
        self.container_id = next(_container_ids)
        self.function = function
        self.busy = False
        self.created_at = now
        self.last_used = now

    def __repr__(self) -> str:  # pragma: no cover
        state = "busy" if self.busy else "warm"
        return f"<Container {self.container_id} {self.function} {state}>"


class ContainerPool:
    """Warm-container management for one invoker."""

    def __init__(
        self,
        env: Environment,
        runtime: ContainerRuntime,
        capacity: int,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.runtime = runtime
        self.capacity = capacity
        self._containers: List[Container] = []
        self._waiters: List[Event] = []
        #: statistics
        self.cold_starts = 0
        self.warm_hits = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._containers)

    @property
    def busy_count(self) -> int:
        return sum(1 for c in self._containers if c.busy)

    def warm_for(self, function: str) -> Optional[Container]:
        """An idle warm container for *function*, most recently used first."""
        # One pass; strict ">" keeps the first of equally recent
        # containers, the tie-break max(key=last_used) has.
        best = None
        for container in self._containers:
            if not container.busy and container.function == function and (
                best is None or container.last_used > best.last_used
            ):
                best = container
        return best

    # ------------------------------------------------------------------
    def acquire(self, function: FunctionDef):
        """A process generator: yields until a container is available.

        Returns ``(container, init_time)`` where *init_time* is the cold
        start charged to the activation (0 for warm hits).
        """
        env = self.env
        while True:
            container = self.warm_for(function.name)
            if container is not None:
                container.busy = True
                container.last_used = env.now
                self.warm_hits += 1
                delay = self.runtime.warm_start_delay()
                if delay:
                    yield env.timeout(delay)
                return container, 0.0

            if self.size < self.capacity:
                return (yield from self._create(function))

            evictable = [c for c in self._containers if not c.busy]
            if evictable:
                victim = min(evictable, key=lambda c: c.last_used)
                self._containers.remove(victim)
                self.evictions += 1
                return (yield from self._create(function))

            # Everything is busy: wait until someone releases.
            waiter = Event(env)
            self._waiters.append(waiter)
            try:
                yield waiter
            except BaseException:
                # interrupted while waiting (drain): withdraw cleanly
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                raise

    def release(self, container: Container) -> None:
        """Return a container to the warm set and wake one waiter."""
        container.busy = False
        container.last_used = self.env.now
        if self._waiters:
            self._waiters.pop(0).succeed()

    def destroy_all(self) -> None:
        """Tear down every container (invoker shutdown)."""
        self._containers.clear()
        for waiter in self._waiters:
            if not waiter.triggered:
                waiter.succeed()
        self._waiters.clear()

    # ------------------------------------------------------------------
    def _create(self, function: FunctionDef):
        env = self.env
        container = Container(function.name, env.now)
        container.busy = True
        self._containers.append(container)
        self.cold_starts += 1
        init = self.runtime.cold_start_delay()
        try:
            yield env.timeout(init)
        except BaseException:
            # interrupted mid-cold-start: the half-built container is junk
            if container in self._containers:
                self._containers.remove(container)
            raise
        container.last_used = env.now
        return container, init
