"""Which public functions of the program each layer's spans wrap.

:func:`instrument` installs the wrappers; :func:`layer_metrics` turns the
spans and counters of one run into the per-layer metrics listed in
``BENCHMARK.json``.  Layer names are the program's package names.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Tuple

import numpy as np

from tracer import Tracer

#: layers timed by spans (a span's layer is its name's prefix); "sim" is
#: the residual of the run no span covers
LAYERS = ("workloads", "faas", "cluster", "supply", "api", "warehouse")


def _classes_defining(base: type, attr: str) -> Iterable[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if attr in cls.__dict__]


def _wrap_all(tracer: Tracer, base: type, attr: str, name: str) -> None:
    for cls in _classes_defining(base, attr):
        tracer.wrap(cls, attr, name)


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (call once, before any run)."""
    from repro.api import load_builtin_components
    from repro.api.stack import Probe, Stack
    from repro.cluster.backfill import BackfillScheduler
    from repro.cluster.slurmctld import SlurmController
    from repro.faas.broker import Broker
    from repro.faas.controller import Controller
    from repro.faas.loadbalancer import LoadBalancer
    from repro.faas.router import FederationRouter
    from repro.sim.core import Environment
    from repro.supply import policies  # noqa: F401  (registers subclasses)
    from repro.supply.base import SupplyPolicy
    from repro.warehouse import capture
    from repro.workloads.streaming import StreamSource

    load_builtin_components()

    # workloads: lazy arrival generation (one span per resume) and marking
    _wrap_all(tracer, StreamSource, "iter_invocations", "workloads.iter_invocations")
    _wrap_all(tracer, StreamSource, "make", "workloads.make")
    counts = tracer.counts
    counts.update({"workloads.rate_calls": 0, "workloads.candidates": 0})
    depth = [0]

    def counted_rate(fn):
        """Count every ``rate()`` call; an outermost one is a thinning
        candidate (a modulator's call into its base source nests)."""
        @functools.wraps(fn)
        def rate(self, t):
            counts["workloads.rate_calls"] += 1
            if depth[0] == 0:
                counts["workloads.candidates"] += 1
            depth[0] += 1
            try:
                return fn(self, t)
            finally:
                depth[0] -= 1
        return rate

    for cls in _classes_defining(StreamSource, "rate"):
        cls.rate = counted_rate(cls.__dict__["rate"])

    # faas: the control plane
    tracer.wrap(Controller, "invoke", "faas.invoke", request=True)
    tracer.wrap(Broker, "publish", "faas.publish")
    _wrap_all(tracer, FederationRouter, "choose", "faas.route")
    _wrap_all(tracer, LoadBalancer, "choose", "faas.route")

    # cluster: the Slurm model
    counts.update({"cluster.starts": 0, "cluster.useful_plans": 0})

    def on_plan(plan) -> None:
        counts["cluster.starts"] += len(plan.starts)
        if plan.starts or plan.preemptions:
            counts["cluster.useful_plans"] += 1

    tracer.wrap(BackfillScheduler, "plan", "cluster.plan", on_return=on_plan)
    tracer.wrap(SlurmController, "submit", "cluster.submit")

    # supply: pilot-supply policies
    _wrap_all(tracer, SupplyPolicy, "observe", "supply.observe")

    # api + warehouse: assembly, measurement collection, capture
    tracer.wrap(Stack, "build", "api.build")
    _wrap_all(tracer, Probe, "finish", "api.collect")
    _wrap_all(tracer, Probe, "collect", "api.collect")
    tracer.wrap(capture, "record_stack", "warehouse.record")

    # sim: process spawns are counted, not timed (the kernel is the residual)
    tracer.wrap_counter(Environment, "process", "sim.processes")


def kernel_counts() -> Dict[str, int]:
    from repro.sim.core import KERNEL_TOTALS

    processed, scheduled, reused, peak = KERNEL_TOTALS.snapshot()
    return {"events": processed, "scheduled": scheduled, "reused": reused, "peak": peak}


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    run_s: float,
    requests: int,
    kernel: Dict[str, int],
    processes: int,
    pilots: int,
    lo: float,
    hi: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced run, and each layer's self seconds.

    Spans starting in ``[lo, hi)`` belong to the run of ``run_s`` wall
    seconds; ``api.build`` (set-up) is reported whenever it happened.
    ``sim.self_s`` is ``run_s`` minus every other layer's self time.
    """
    spans = tracer.summary(lo, hi)
    everything = tracer.summary()
    zero = {"calls": 0, "spans": 0, "incl_s": 0.0, "self_s": 0.0}

    def get(name: str, whole: bool = False) -> Dict[str, float]:
        return (everything if whole else spans).get(name, zero)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in spans.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    counts = tracer.counts
    plan = get("cluster.plan")
    plan_ms = tracer.durations("cluster.plan") * 1000.0
    arrivals = get("workloads.make")["calls"]
    return {
        "sim.events": float(kernel["events"]),
        "sim.events_per_invocation": _ratio(kernel["events"], requests),
        "sim.processes_per_invocation": _ratio(processes, requests),
        "sim.events_reused_share": _ratio(kernel["reused"], kernel["scheduled"]),
        "sim.peak_queue_depth": float(kernel["peak"]),
        "sim.self_s": run_s - sum(layer_self.values()),
        "workloads.self_s": layer_self["workloads"],
        "workloads.rate_calls_per_arrival": _ratio(counts.get("workloads.rate_calls", 0), arrivals),
        "workloads.accept_share": _ratio(arrivals, counts.get("workloads.candidates", 0)),
        "faas.invoke_s": get("faas.invoke")["incl_s"],
        "faas.invoke_per_request": _ratio(counts.get("faas.invoke", 0), requests),
        "faas.publish_per_request": _ratio(get("faas.publish")["calls"], requests),
        "faas.route_s": get("faas.route")["incl_s"],
        "cluster.plan_s": plan["incl_s"],
        "cluster.plan_calls": float(plan["calls"]),
        "cluster.plan_ms_p50": float(np.median(plan_ms)) if len(plan_ms) else 0.0,
        "cluster.starts_per_plan": _ratio(counts.get("cluster.starts", 0), plan["calls"]),
        "cluster.useful_plan_share": _ratio(counts.get("cluster.useful_plans", 0), plan["calls"]),
        "cluster.submit_calls": float(get("cluster.submit")["calls"]),
        "supply.observe_s": get("supply.observe")["incl_s"],
        "supply.observe_calls": float(get("supply.observe")["calls"]),
        "hpcwhisk.pilots_submitted": float(pilots),
        "api.build_s": get("api.build", whole=True)["incl_s"],
        "api.collect_s": get("api.collect")["incl_s"],
        "warehouse.record_s": get("warehouse.record")["incl_s"],
    }, layer_self

