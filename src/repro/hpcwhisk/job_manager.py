"""The shared pilot-job supply loop (Sec. III-D), policy-pluggable.

The paper's supply managers are external processes on the head node
that watch the queue through the normal job management commands and top
it up every 15 seconds, creating new jobs only to replace ones that
have already started.  None exceeds 100 queued jobs, so Slurm's
scheduler is never overloaded.

:class:`PolicyJobManager` hosts that loop once for every strategy: each
round it assembles a pure :class:`~repro.supply.base.SupplyObservation`
(queue, cluster, and middleware state), asks its
:class:`~repro.supply.base.SupplyPolicy` for a
:class:`~repro.supply.base.SubmissionPlan`, and submits the plan's
requests until the round budget (``max_queued`` minus the current
queue depth) runs out.

:class:`FibJobManager` and :class:`VarJobManager` are the paper's two
strategies pinned to their policies (:class:`~repro.supply.policies.FibPolicy`
/ :class:`~repro.supply.policies.VarPolicy`) — same constructor
signature as always, byte-identical behaviour (the golden-trace suite
enforces this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List

from repro.cluster.job import JobSpec
from repro.cluster.slurmctld import SlurmController
from repro.hpcwhisk.config import HPCWhiskConfig
from repro.sim import Environment, Interrupt
from repro.supply.base import PilotRequest, SupplyObservation, SupplyPolicy
from repro.supply.policies import FibPolicy, VarPolicy

_submission_ids = itertools.count(1)


@dataclass
class ManagerStats:
    """Submission accounting for a supply manager."""

    submitted: int = 0
    replenish_rounds: int = 0
    #: queue depth observed at each round (diagnostics)
    queue_depths: List[int] = field(default_factory=list)
    #: requests the policy asked for, before budget truncation
    requested: int = 0
    #: requests dropped by the per-round budget (queue-cap pressure)
    truncated: int = 0

    @property
    def mean_queue_depth(self) -> float:
        if not self.queue_depths:
            return 0.0
        return sum(self.queue_depths) / len(self.queue_depths)


class PolicyJobManager:
    """Common replenishment loop: observe -> plan -> submit (budgeted)."""

    def __init__(
        self,
        env: Environment,
        controller: SlurmController,
        config: HPCWhiskConfig,
        body_factory: Callable,
        policy: SupplyPolicy,
        *,
        faas_controller=None,
        broker=None,
    ) -> None:
        self.env = env
        self.controller = controller
        self.config = config
        self.body_factory = body_factory
        self.policy = policy
        #: the FaaS middleware handles this member's policy may observe
        #: (None for reduced stacks — middleware fields read as 0)
        self.faas_controller = faas_controller
        self.broker = broker
        self.stats = ManagerStats()
        self._proc = env.process(self._run())

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("stop")

    # -- observation (pure reads; never perturbs the simulation) ----------
    def _middleware_state(self) -> tuple:
        """``(healthy, inflight, buffered, fastlane)`` for this member.

        The first three are **member-scoped** so federated feedback
        loops stay isolated: healthy invokers, in-flight activations,
        and buffered invoker-topic messages all count only this
        member's workers (capacity one member holds never masks another
        member's demand signal, and vice versa).  ``fastlane`` is the
        one shared term — republished demand no member owns yet, which
        any member could absorb — and is kept separate so the
        observation's member-scoped arithmetic never mixes scopes.  For
        single-cluster systems member scope *is* fleet scope.
        """
        faas = self.faas_controller
        if faas is None:
            return 0, 0, 0, 0
        cluster_id = self.controller.config.cluster_id or None
        healthy = len(faas.healthy_invokers(cluster=cluster_id))
        inflight = faas.inflight_count_for(cluster_id)
        buffered = 0
        fastlane = 0
        if self.broker is not None:
            from repro.faas.broker import FASTLANE_TOPIC

            fastlane = self.broker.peek_depth(FASTLANE_TOPIC)
            for invoker_id, record in faas.invokers.items():
                if cluster_id is None or record.cluster_id == cluster_id:
                    buffered += self.broker.peek_depth(
                        faas.invoker_topic(invoker_id)
                    )
        return healthy, inflight, buffered, fastlane

    def _observe(self, pending: list, budget: int) -> SupplyObservation:
        slurm = self.controller
        healthy, inflight, buffered, fastlane = self._middleware_state()
        return SupplyObservation(
            now=self.env.now,
            round_index=self.stats.replenish_rounds,
            pending=tuple(pending),
            queue_depth=len(pending),
            budget=budget,
            running_pilots=len(
                slurm.running_jobs(partition=self.config.partition)
            ),
            idle_nodes=slurm.idle_node_count(),
            total_nodes=slurm.config.num_nodes,
            healthy_invokers=healthy,
            inflight_activations=inflight,
            buffered_activations=buffered,
            fastlane_activations=fastlane,
        )

    # -- submission --------------------------------------------------------
    def _spec(self, request: PilotRequest) -> JobSpec:
        kwargs = {}
        if request.time_min is not None:
            kwargs["time_min"] = request.time_min
        if request.priority is not None:
            kwargs["priority"] = request.priority
        return JobSpec(
            name=f"whisk-{self.policy.name}-{next(_submission_ids):07d}",
            num_nodes=1,
            time_limit=request.seconds,
            partition=self.config.partition,
            body=self.body_factory(),
            user="hpc-whisk",
            **kwargs,
        )

    # -- loop ---------------------------------------------------------------
    def _run(self):
        env = self.env
        stats = self.stats
        try:
            while True:
                pending = self.controller.pending_jobs(partition=self.config.partition)
                stats.queue_depths.append(len(pending))
                budget = max(0, self.config.max_queued - len(pending))
                plan = self.policy.observe(self._observe(pending, budget))
                stats.requested += len(plan.requests)
                stats.truncated += max(0, len(plan.requests) - budget)
                for request in plan.requests[:budget]:
                    self.controller.submit(self._spec(request))
                    stats.submitted += 1
                stats.replenish_rounds += 1
                yield env.timeout(self.config.replenish_interval)
        except Interrupt:
            return


class FibJobManager(PolicyJobManager):
    """Fixed-length supply: 10 queued jobs of each length (Sec. III-D fib)."""

    def __init__(
        self,
        env: Environment,
        controller: SlurmController,
        config: HPCWhiskConfig,
        body_factory: Callable,
        **kwargs,
    ) -> None:
        super().__init__(
            env,
            controller,
            config,
            body_factory,
            FibPolicy(config.length_set, config.queue_per_length),
            **kwargs,
        )


class VarJobManager(PolicyJobManager):
    """Flexible-length supply: 100 queued ``--time-min/--time`` jobs."""

    def __init__(
        self,
        env: Environment,
        controller: SlurmController,
        config: HPCWhiskConfig,
        body_factory: Callable,
        **kwargs,
    ) -> None:
        super().__init__(
            env,
            controller,
            config,
            body_factory,
            VarPolicy(
                depth=config.var_queue_depth,
                time_min=config.var_time_min,
                time_max=config.var_time_max,
            ),
            **kwargs,
        )


#: historical name for the shared loop (deploy/type annotations)
_BaseJobManager = PolicyJobManager


def reset_submission_ids() -> None:
    """Restart pilot-submission numbering (test isolation)."""
    global _submission_ids
    _submission_ids = itertools.count(1)
