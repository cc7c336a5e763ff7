"""Prime HPC workload: trace replay and free-standing population.

Two roles:

1. **Trace replay** — :func:`trace_to_prime_jobs` converts an
   :class:`~repro.workloads.idleness.IdlenessTrace` into pinned prime jobs
   for the cluster simulator: each node's *busy* intervals (the complement
   of its idle periods) are segmented into jobs with Fig 2-consistent
   declared limits, pinned to the node (``required_nodes``), anchored at
   their trace start (``begin_time``), and submitted with a stochastic
   *lead time*.  The lead time controls how much of the future the
   scheduler can see — visible begin times bound the backfill windows that
   pilot jobs are sized against; invisible arrivals preempt pilots.

2. **Population sampling** — :class:`JobPopulation` draws a standalone set
   of jobs (limits, runtimes, widths) to regenerate Fig 2's CDFs and feed
   generic scheduler tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.job import JobSpec
from repro.workloads.distributions import JobPopulationModel, LeadTimeModel
from repro.workloads.idleness import IdlenessTrace, IdlePeriod


def busy_intervals(
    trace: IdlenessTrace,
    node: str,
    by_node: Optional[Dict[str, List[IdlePeriod]]] = None,
) -> List[Tuple[float, float]]:
    """Complement of a node's idle periods over the trace horizon.

    *by_node* is ``trace.periods_by_node()``; a caller asking for many
    nodes passes it in, so the trace is grouped once, not per node.
    """
    if by_node is None:
        by_node = trace.periods_by_node()
    busy: List[Tuple[float, float]] = []
    cursor = 0.0
    for period in by_node.get(node, ()):
        if period.start > cursor:
            busy.append((cursor, period.start))
        cursor = max(cursor, period.end)
    if cursor < trace.horizon:
        busy.append((cursor, trace.horizon))
    return busy


@dataclass
class PrimeJob:
    """One prime job of the replayed workload, pre-submission."""

    spec: JobSpec
    submit_time: float


@dataclass
class PrimeWorkload:
    """The full prime-job list for an experiment, submit-time ordered."""

    jobs: List[PrimeJob] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.jobs.sort(key=lambda j: j.submit_time)

    def __len__(self) -> int:
        return len(self.jobs)

    def submit_all(self, env, controller) -> List:
        """A process generator: submits every job at its submit time."""
        submitted = []

        def driver():
            for prime in self.jobs:
                if prime.submit_time > env.now:
                    yield env.timeout(prime.submit_time - env.now)
                submitted.append(controller.submit(prime.spec))

        env.process(driver())
        return submitted


def _segment_busy_interval(
    start: float,
    end: float,
    population: JobPopulationModel,
    rng: np.random.Generator,
    min_piece: float = 120.0,
) -> List[Tuple[float, float]]:
    """Split one busy interval into job-sized pieces.

    Pieces follow the runtime distribution; a final remainder shorter than
    *min_piece* is merged into the previous piece, so no sub-2-minute jobs
    are produced (the cluster sim's slot floor would reject them anyway).
    """
    pieces: List[Tuple[float, float]] = []
    cursor = start
    while cursor < end:
        runtime, _limit = population.sample_runtime_and_limit()
        piece_end = min(cursor + max(runtime, min_piece), end)
        if end - piece_end < min_piece:
            piece_end = end
        pieces.append((cursor, piece_end))
        cursor = piece_end
    return pieces


def trace_to_prime_jobs(
    trace: IdlenessTrace,
    rng: np.random.Generator,
    partition: str = "main",
    lead_model: Optional[LeadTimeModel] = None,
    population: Optional[JobPopulationModel] = None,
) -> PrimeWorkload:
    """Convert an idleness trace into a pinned prime workload.

    Every busy segment becomes one job with:

    * ``required_nodes = (node,)`` and ``begin_time`` = segment start,
    * ``actual_runtime`` = segment length (the ground truth),
    * ``time_limit`` drawn via the inverse slack model — so the scheduler's
      expectation of when the node frees is realistically wrong, and idle
      windows open as *surprises* at early-completion events, exactly as on
      the production cluster,
    * ``submit_time = begin_time - lead`` (never negative).

    Over-declared limits may overlap the following idle window or even the
    next job's begin time; this is harmless because the scheduler derives
    its claims from queued jobs' begin times and reacts to completion
    events, never trusting planned ends of pinned jobs for starting them.
    """
    lead_model = lead_model or LeadTimeModel(rng)
    population = population or JobPopulationModel(rng)

    jobs: List[PrimeJob] = []
    by_node = trace.periods_by_node()
    for node in trace.node_names:
        node_busy = busy_intervals(trace, node, by_node)
        if not node_busy:
            continue
        for index, (seg_start, seg_end) in enumerate(node_busy):
            pieces = _segment_busy_interval(seg_start, seg_end, population, rng)
            for piece_index, (p_start, p_end) in enumerate(pieces):
                runtime = p_end - p_start
                limit = population.limit_for_runtime(runtime)
                lead = lead_model.sample()
                submit = max(0.0, p_start - lead)
                spec = JobSpec(
                    name=f"prime-{node}-{index}-{piece_index}",
                    num_nodes=1,
                    time_limit=limit,
                    partition=partition,
                    required_nodes=(node,),
                    begin_time=p_start,
                    actual_runtime=runtime,
                    user="trace",
                    metadata={"trace": True},
                )
                jobs.append(PrimeJob(spec=spec, submit_time=submit))
    return PrimeWorkload(jobs=jobs)


@dataclass
class SampledJob:
    """A free-standing sampled job (Fig 2 population)."""

    limit: float
    runtime: float
    width: int

    @property
    def slack(self) -> float:
        return self.limit - self.runtime


class JobPopulation:
    """Samples the Fig 2 job population (limits / runtimes / slack)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._model = JobPopulationModel(rng)

    def sample(self, count: int) -> List[SampledJob]:
        jobs = []
        for _ in range(count):
            runtime, limit = self._model.sample_runtime_and_limit()
            jobs.append(SampledJob(limit=limit, runtime=runtime, width=self._model.sample_width()))
        return jobs
