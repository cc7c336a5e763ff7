"""Controller-side load-balancing strategies.

OpenWhisk routes by hashed function name to maximize warm-container reuse
(Sec. II) — that is :class:`HashAffinity`, the default.  Two alternatives
are provided for the ablation benchmarks:

* :class:`RoundRobin` — even spread, oblivious to warm containers;
* :class:`LeastLoaded` — route to the invoker with the shallowest queue
  (topic depth), trading warm hits for queueing delay.

The paper's responsiveness experiment sidesteps the affinity/balance trade
by deploying 100 identically-bodied functions with distinct names; the
ablation quantifies what that trick buys.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.faas.broker import Broker


class LoadBalancer:
    """Strategy interface: pick a healthy invoker for a function call."""

    name = "base"

    def choose(
        self, function: str, healthy: List[str], broker: "Broker"
    ) -> Optional[str]:
        raise NotImplementedError


class HashAffinity(LoadBalancer):
    """Stock OpenWhisk: hash the function name over the healthy list.

    The crc32 of each function name is cached — it is a pure function
    of the name, computed once per deployed function instead of once
    per invocation (encode + crc32 was measurable on the invoke hot
    path at bench scale).
    """

    name = "hash-affinity"

    def __init__(self) -> None:
        self._crc: dict = {}

    def choose(self, function: str, healthy: List[str], broker: "Broker") -> Optional[str]:
        if not healthy:
            return None
        crc = self._crc.get(function)
        if crc is None:
            crc = self._crc[function] = zlib.crc32(function.encode("utf-8"))
        return healthy[crc % len(healthy)]


class RoundRobin(LoadBalancer):
    """Cycle through healthy invokers regardless of function."""

    name = "round-robin"

    def __init__(self) -> None:
        self._counter = 0

    def choose(self, function: str, healthy: List[str], broker: "Broker") -> Optional[str]:
        if not healthy:
            return None
        choice = healthy[self._counter % len(healthy)]
        self._counter += 1
        return choice


class LeastLoaded(LoadBalancer):
    """Route to the invoker with the fewest unconsumed messages."""

    name = "least-loaded"

    def choose(self, function: str, healthy: List[str], broker: "Broker") -> Optional[str]:
        if not healthy:
            return None
        # peek_depth: asking about a topic nobody published to must not
        # create it (routing is an observation of the broker)
        return min(healthy, key=lambda i: (broker.peek_depth(f"invoker-{i}"), i))
