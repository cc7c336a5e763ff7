"""Shared fixtures: a fresh environment and reset global counters."""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.cluster.job import reset_job_ids
from repro.faas.messages import reset_activation_ids
from repro.hpcwhisk.pilot import reset_pilot_ids
from repro.sim import Environment

# the suite runs hundreds of scenarios; don't write them all into a
# results warehouse (warehouse tests opt back in with their own paths)
os.environ.setdefault("REPRO_WAREHOUSE", "0")


@pytest.fixture(autouse=True)
def _reset_counters():
    """Deterministic ids in every test."""
    reset_job_ids()
    reset_activation_ids()
    reset_pilot_ids()
    yield


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def cycles_of():
    """Cyclic GC off for the test; yields ``cycles_of(env)``, the objects
    of *env* (events, processes) that only the cyclic collector could
    free — what a run leaves behind in reference cycles."""
    gc.collect()
    gc.disable()

    def cycles_of(env):
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return [obj for obj in gc.garbage if getattr(obj, "env", None) is env]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    try:
        yield cycles_of
    finally:
        gc.enable()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
