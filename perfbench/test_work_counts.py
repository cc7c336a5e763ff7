"""Exact work counts: the zero-noise "does more work" signal.

The kernel's event and process counts depend only on the seed, so two
traced replays of one seed must agree on them exactly.  Run with

    python3 -m pytest perfbench/test_work_counts.py -q
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("sim.events", "sim.events_per_invocation", "sim.processes_per_invocation")


def traced_replay(workload: str, seed: int) -> dict:
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="test-") as workdir:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "simrun.py"), workload, str(seed), "1",
             repr(time.time()), workdir, "full"],
            capture_output=True, text=True, timeout=300, check=True,
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["stream", "backfill"])
def test_work_counts_repeat_exactly(workload):
    first, second = traced_replay(workload, 3), traced_replay(workload, 3)
    assert first["problems"] == [] and second["problems"] == []
    assert first["layers"]["sim.events"] > 0
    for key in EXACT:
        assert first["layers"][key] == second["layers"][key], key
    assert first["digest"] == second["digest"]
