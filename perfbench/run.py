"""The repository benchmark: two simulated workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {stream,backfill} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --seed N            # both workloads, untraced

Workloads (the rationale for each is in ``BENCHMARK.json``):

* ``stream``   -- quick-shape ``stream_day`` federation, half a simulated hour;
* ``backfill`` -- fib-supply experiment day, 300 nodes, no FaaS load, 4 h.

One *unit* of a workload replays each of its stack seeds once, each in a
fresh process (``simrun.py``): one seed for ``stream``, three different
days for ``backfill``.  Units repeat with the same inputs until
``--seconds`` of wall time are spent (at least ``MIN_UNITS``); every
metric is the median over units.

End-to-end metrics (``--trace 0``):

* ``setup_s``     -- process spawn through ``Stack.build`` and workload/probe
  attach, imports included; median of every replay's set-up (at least
  ``SETUP_SAMPLES``);
* ``run_s``       -- wall time of one unit: ``Environment.run`` through probe
  collection and warehouse capture, summed over the unit's replays;
* ``ops_per_s``   -- operations per wall second of ``run_s``: simulated
  requests (``stream``), Slurm jobs that reached a final state (``backfill``);
* ``peak_rss_mb`` -- peak RSS of the process that ran the stack.

``failed``/``attempted`` in the result count operations; a replay that
crashes or fails its output check counts all its unit's operations as
failed.  A simulated request that ends in a 503 or a timeout is
simulation output (covered by the digest), not a failed operation.

``--trace 1`` replays the workload's first stack seed untraced and then
traced, and reports the per-layer metrics of the traced replay, measured
by wrapping each layer's public functions from outside (``layers.py``).
The traced ``stream`` run also serves the control plane live
(``live.py``) and reports the ``live.*`` layer.  Live serving is not an
end-to-end workload: over three 10-seed sets on a 2-vCPU VM its wall
throughput spread 0.36, 0.06 and 0.39 of its median, following the
host's CPU steal, while the simulated workloads stayed within 0.17.

Outputs are checked on every replay: conservation laws for any seed,
and for the reference seed a digest of the deterministic outputs against
``reference.json``.  A failed check prints the result with
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Tuple

import live

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("stream", "backfill")
REFERENCE_SEED = 1
#: backfill's cost depends on the day drawn (one seed's day costs a third
#: more than another's), so a backfill unit replays this many different
#: days, seeded from --seed, and times them together
BACKFILL_DAYS = 3
MIN_UNITS = {"stream": 2, "backfill": 1}
SETUP_SAMPLES = 5
#: a replay that takes longer than this has hung
REPLAY_TIMEOUT_S = 90.0


class RunFailed(RuntimeError):
    """A replay crashed or hung, or the live server could not be driven."""


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {entry["name"]: entry["unit"]
            for entry in declared["per_layer" if trace else "end_to_end"]}


def stack_seeds(workload: str, seed: int) -> List[int]:
    """The stack seed of each replay in a unit."""
    if workload == "backfill":
        return [seed * 100 + day for day in range(BACKFILL_DAYS)]
    return [seed]


def replay(workload: str, stack_seed: int, trace: bool, workdir: str, mode: str = "full") -> dict:
    """One replay (or, with ``mode="setup"``, one set-up) in a fresh process."""
    spawned = time.time()
    cmd = [sys.executable, os.path.join(HERE, "simrun.py"), workload, str(stack_seed),
           "1" if trace else "0", repr(spawned), workdir, mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} replay exceeded {REPLAY_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RunFailed(f"{workload} replay exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_reference(workload: str, seed: int, index: int, digest: str) -> List[str]:
    """For the reference seed, replay ``index`` must reproduce the committed digest."""
    if seed != REFERENCE_SEED:
        return []
    with open(REFERENCE) as handle:
        expected = json.load(handle)[workload][index]
    if digest != expected:
        return [f"replay {index} output digest {digest} != reference {expected} for seed {seed}"]
    return []


def measure(workload: str, seed: int, seconds: float, workdir: str, log) -> dict:
    """Untraced units until ``seconds`` are spent; the end-to-end metrics."""
    units: List[dict] = []
    setups: List[float] = []
    problems: List[str] = []
    first_digests = None
    started = time.perf_counter()
    while len(units) < MIN_UNITS[workload] or time.perf_counter() - started < seconds:
        replays = []
        for index, stack_seed in enumerate(stack_seeds(workload, seed)):
            result = replay(workload, stack_seed, False, workdir)
            replays.append(result)
            setups.append(result["setup_s"])
            problems += result["problems"] + check_reference(workload, seed, index, result["digest"])
            log(f"  unit {len(units) + 1} stack seed {stack_seed}: run_s={result['run_s']:.3f} "
                f"setup_s={result['setup_s']:.3f} digest={result['digest']} "
                f"simulated {result['outcomes']}")
        digests = [result["digest"] for result in replays]
        first_digests = first_digests or digests
        if digests != first_digests:
            problems.append(f"the same inputs gave different outputs: {first_digests} then {digests}")
        units.append({
            "run_s": sum(result["run_s"] for result in replays),
            "ops": sum(result["ops"] for result in replays),
            "peak_rss_mb": max(result["peak_rss_mb"] for result in replays),
        })
    while len(setups) < SETUP_SAMPLES:
        setups.append(replay(workload, stack_seeds(workload, seed)[0], False, workdir, "setup")["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(unit["run_s"] for unit in units),
        "ops_per_s": statistics.median(unit["ops"] / unit["run_s"] for unit in units),
        "peak_rss_mb": statistics.median(unit["peak_rss_mb"] for unit in units),
    }
    attempted = sum(unit["ops"] for unit in units)
    return {"metrics": metrics, "problems": problems, "attempted": attempted,
            "failed": attempted if problems else 0}


def measure_layers(workload: str, seed: int, workdir: str, log) -> dict:
    """One untraced and one traced replay; the per-layer metrics."""
    stack_seed = stack_seeds(workload, seed)[0]
    plain = replay(workload, stack_seed, False, workdir)
    traced = replay(workload, stack_seed, True, workdir)
    problems = plain["problems"] + traced["problems"]
    if traced["digest"] != plain["digest"]:
        problems.append(f"traced outputs {traced['digest']} != untraced {plain['digest']}")
    problems += check_reference(workload, seed, 0, plain["digest"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["run_s"] / plain["run_s"]
    metrics["trace.spans"] = float(traced["spans"])
    problems += breakdown(log, traced, metrics)
    attempted = plain["ops"] + traced["ops"]
    failed = attempted if problems else 0
    if workload == "stream":
        live_metrics, live_failures, requests = live.session(SRC, workdir, seed)
        log(f"live: p50 {live_metrics['live.p50_ms']:.3f} ms over "
            f"{live_metrics['live.samples']:.0f} requests, p99 {live_metrics['live.p99_ms']:.3f} ms, "
            f"overhead p50 {live_metrics['live.overhead_ms_p50']:.3f} ms")
        metrics.update(live_metrics)
        problems += live_failures[:5]
        attempted += requests
        failed += len(live_failures)
    else:
        metrics.update(dict.fromkeys(live.METRICS, 0.0))
    return {"metrics": metrics, "problems": problems, "attempted": attempted, "failed": failed}


def breakdown(log, traced: dict, metrics: Dict[str, float]) -> List[str]:
    """Print each layer's self time as a share of the traced ``run_s``; check the spans.

    ``sim`` is what no span covers: the kernel and every process body
    outside the wrapped functions.  The shares sum to ``run_s`` by
    construction, so the check is on the spans themselves: each lies
    inside its parent, and together they fit inside ``run_s``.
    """
    run_s = traced["run_s"]
    shares = dict(traced["layer_self_s"], sim=metrics["sim.self_s"])
    log(f"layer self time as a share of the traced run_s ({run_s:.3f} s); "
        f"tracing overhead x{metrics['trace.overhead']:.3f}:")
    for layer, value in sorted(shares.items(), key=lambda item: -item[1]):
        log(f"  {layer:<10} {value:9.3f} s  {100.0 * value / run_s:6.2f} %")
    total = sum(shares.values())
    log(f"  {'sum':<10} {total:9.3f} s  {100.0 * total / run_s:6.2f} %")
    problems = []
    if traced["nesting_errors"]:
        problems.append(f"{traced['nesting_errors']} spans lie outside their parent span")
    if metrics["sim.self_s"] < 0.0:
        problems.append(f"layer spans cover {total - metrics['sim.self_s']:.3f} s, "
                        f"more than run_s {run_s:.3f} s")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        if trace:
            outcome = measure_layers(workload, seed, workdir, log)
        else:
            outcome = measure(workload, seed, seconds, workdir, log)
    except (RunFailed, live.LiveFailed) as error:
        outcome = {"metrics": {}, "problems": [str(error)], "attempted": 1, "failed": 1}
    except Exception:  # a benchmark bug or an unexpected reply: report it as a failed run
        outcome = {"metrics": {}, "problems": [traceback.format_exc()], "attempted": 1, "failed": 1}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome["correct"] = not outcome["problems"]
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: both, untraced)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall seconds of measurement per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    def terminated(signum, _frame):
        raise SystemExit(128 + signum)  # unwinds through every teardown ``finally``

    signal.signal(signal.SIGTERM, terminated)
    declared = declared_metrics(bool(args.trace))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in workloads:
        log(f"== {workload} (seed {args.seed}, trace {args.trace})")
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), log)
        if result["metrics"] and set(result["metrics"]) != set(declared):
            raise SystemExit(f"perfbench: {workload} reported {sorted(result['metrics'])}, "
                             f"BENCHMARK.json declares {sorted(declared)}")
        results[workload] = result
        for problem in result["problems"]:
            log(f"  CHECK FAILED: {problem}")
        for name, value in sorted(result["metrics"].items()):
            log(f"  {name:<34} {value:16.6f} {declared[name]}")
        log(f"  {'fail_share':<34} {result['failed'] / result['attempted']:16.6f} "
            f"({result['failed']} of {result['attempted']} operations)")
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": declared[name]}
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
