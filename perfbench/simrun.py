"""One simulated replay in a fresh process: ``stream`` or ``backfill``.

Run by ``run.py`` (never imported by it), so every replay starts from a
clean interpreter: set-up time includes imports, peak RSS is the
replay's own, and the kernel's process-wide counters start at zero.

    python3 perfbench/simrun.py <workload> <seed> <trace 0|1> <spawned_at> <workdir> <full|setup>

Prints one JSON object: timings, kernel counts, output digest and
check results (plus per-layer metrics when traced).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: quick ``stream_day`` shape over about half a simulated hour
STREAM = dict(nodes=96, edge_nodes=48, horizon=1800.0, qps=12.0)
#: fib-supply experiment day, Slurm only (no FaaS load), a few hours
BACKFILL = dict(num_nodes=300, hours=4.0)


def make_stack(workload: str, seed: int):
    if workload == "stream":
        from repro.experiments.stream_day import stream_day_stack

        return stream_day_stack(seed=seed, **STREAM)
    if workload == "backfill":
        from repro.experiments.day import DayConfig, day_stack
        from repro.hpcwhisk.config import SupplyModel

        return day_stack(DayConfig(
            model=SupplyModel.FIB,
            seed=seed,
            horizon=BACKFILL["hours"] * 3600.0,
            num_nodes=BACKFILL["num_nodes"],
            with_load=False,
        ))
    raise ValueError(f"unknown simulated workload {workload!r}")


class SetupDone(Exception):
    """Raised at the first ``Environment.run`` of a set-up-only child."""


def outputs(workload: str, report) -> dict:
    """The run's deterministic outputs (what the digest covers)."""
    out = {key: report.metrics[key] for key in sorted(report.metrics)}
    if workload == "stream":
        by_status = report.artifacts["stream-report"].by_status
        out["outcomes"] = {key: by_status[key] for key in sorted(by_status)}
    else:
        slurm = report.system.slurm
        states = {}
        for job in slurm.completed:
            states[job.state.name] = states.get(job.state.name, 0) + 1
        out["final_jobs"] = {key: states[key] for key in sorted(states)}
    return out


def digest(values: dict) -> str:
    def canon(value):
        if isinstance(value, dict):
            return {key: canon(value[key]) for key in value}
        if isinstance(value, float):
            return float(f"{value:.10g}")
        return value

    text = json.dumps(canon(values), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(workload: str, report, out: dict) -> list:
    """Conservation checks that hold for every seed; returns problems."""
    problems = []
    metrics = report.metrics
    if workload == "stream":
        total = int(metrics["stream_requests_total"])
        if total <= 0:
            problems.append("no stream requests completed")
        if sum(out["outcomes"].values()) != total:
            problems.append(f"outcome counts {out['outcomes']} do not sum to {total} requests")
        routed = sum(v for k, v in metrics.items() if k.startswith("fed_routed@"))
        if routed != metrics["fed_routed_total"]:
            problems.append(f"per-member routed {routed} != fed_routed_total {metrics['fed_routed_total']}")
    else:
        slurm = report.system.slurm
        if not out["final_jobs"]:
            problems.append("no Slurm job reached a final state")
        last_end = {}
        for interval in sorted(slurm.allocation_log, key=lambda iv: (iv.node, iv.start)):
            if interval.start < last_end.get(interval.node, float("-inf")):
                problems.append(f"node {interval.node} allocated twice at t={interval.start}")
                break
            end = interval.end if interval.end is not None else float("inf")
            last_end[interval.node] = end
    for key, value in metrics.items():
        if ("share" in key or key.startswith("coverage")) and not 0.0 <= value <= 1.0:
            problems.append(f"{key}={value} outside [0, 1]")
    return problems


def main(argv) -> int:
    workload, seed, trace, spawned_at, workdir, mode = argv
    seed, trace, spawned_at = int(seed), trace == "1", float(spawned_at)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    # Hermetic: the warehouse capture goes to a store of this child's
    # own in the run's work dir (created now, during set-up), never to
    # .repro/ in the checkout.
    os.chdir(workdir)
    os.environ["REPRO_WAREHOUSE"] = os.path.join(workdir, f"warehouse-{os.getpid()}.sqlite")

    from repro.sim.core import Environment
    from repro.warehouse import capture

    tracer = None
    if trace:
        from layers import instrument
        from tracer import Tracer

        tracer = Tracer()
        instrument(tracer)
    capture.default_store()

    marks = {}
    original_run = Environment.run

    def marked_run(self, *args, **kwargs):
        if "setup" not in marks:
            marks["setup"] = time.time()
            marks["run_start"] = time.perf_counter()
            marks["processes0"] = tracer.counts["sim.processes"] if tracer else 0
            if mode == "setup":
                raise SetupDone
        return original_run(self, *args, **kwargs)

    Environment.run = marked_run
    stack = make_stack(workload, seed)
    try:
        report = stack.run()
    except SetupDone:
        print(json.dumps({"setup_s": marks["setup"] - spawned_at}))
        return 0
    run_end = time.perf_counter()
    run_s = run_end - marks["run_start"]

    from layers import kernel_counts

    kernel = kernel_counts()
    out = outputs(workload, report)
    out["sim.events"] = kernel["events"]
    if workload == "stream":
        ops = int(report.metrics["stream_requests_total"])
    else:
        ops = sum(out["final_jobs"].values())
    result = {
        "setup_s": marks["setup"] - spawned_at,
        "run_s": run_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(out),
        "outcomes": out["outcomes"] if workload == "stream" else out["final_jobs"],
        "problems": check(workload, report, out),
    }
    if tracer is not None:
        from layers import layer_metrics

        requests = ops if workload == "stream" else 0
        pilots = sum(m.stats.submitted for m in report.system.managers.values())
        processes = tracer.counts["sim.processes"] - marks["processes0"]
        metrics, layer_self = layer_metrics(
            tracer, run_s, requests, kernel, processes, pilots,
            lo=marks["run_start"], hi=run_end,
        )
        result["layers"] = metrics
        result["layer_self_s"] = layer_self
        result["spans"] = len(tracer.name)
        result["nesting_errors"] = tracer.nesting_errors()
        if workload == "stream":
            arrivals = tracer.summary(marks["run_start"], run_end).get(
                "workloads.make", {"calls": 0})["calls"]
            if arrivals < ops:
                result["problems"].append(
                    f"{ops} requests ended but only {arrivals} arrivals were generated")
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{workload}-seed{seed}.tsv.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
