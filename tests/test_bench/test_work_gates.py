"""Exact work gates: kernel events per smoke scenario, pinned.

How many events a run processes and schedules depends only on the
scenario and its seed — not on the host, the event-queue implementation
or timing noise — so a change that makes the simulation do more (or
less) kernel work shows up here as an exact mismatch.  A performance
change that is meant to leave the event trace alone must keep these
counts; a change that cuts events on purpose updates them (and the
benchmark reference digest, which also covers the event count).
"""

import pytest

from repro.scenarios.registry import REGISTRY, load_builtin
from repro.scenarios.sweep import reset_run_state
from repro.sim.core import KERNEL_TOTALS

load_builtin()

#: scenario -> (events_processed, events_scheduled) of one smoke run
WORK = {
    "stream_day": (140_610, 141_658),
    "day": (183_744, 184_388),
    "federation": (182_846, 183_502),
}


@pytest.mark.parametrize("name", sorted(WORK))
def test_smoke_run_kernel_work_is_pinned(name):
    reset_run_state()
    processed0, scheduled0, _, _ = KERNEL_TOTALS.snapshot()
    REGISTRY.run(name, {}, scale="smoke")
    processed1, scheduled1, _, _ = KERNEL_TOTALS.snapshot()
    assert (processed1 - processed0, scheduled1 - scheduled0) == WORK[name]
