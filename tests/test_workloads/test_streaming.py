"""Streaming invocation sources, modulators and the streaming report.

Covers the two halves of the "sham streaming" fix: the retrofitted
:meth:`PoissonInvocationProcess.iter_generate` (same distribution as the
eager ``generate``, O(1) memory) and the lazy :mod:`repro.workloads.
streaming` source stack that the trace-scale runs are built on.
"""

import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.activation import ActivationStatus
from repro.workloads.faas_trace import Invocation, PoissonInvocationProcess
from repro.workloads.streaming import (
    BurstModulator,
    DiurnalModulator,
    FixedDurationModel,
    FlashCrowdModulator,
    Modulator,
    PoissonSource,
    RegionShiftModulator,
    StreamReport,
    StreamSource,
    build_stream_source,
)

FUNCTIONS = [f"f{i}" for i in range(10)]


def _fixed_source(seed, rate=5.0, functions=("f",)):
    return PoissonSource(
        np.random.default_rng(seed),
        list(functions),
        rate,
        duration_model=FixedDurationModel(0.1),
    )


# ---------------------------------------------------------------------------
# PoissonInvocationProcess.iter_generate: the bugfix itself
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_iter_generate_deterministic_per_seed(seed):
    def trace():
        process = PoissonInvocationProcess(
            np.random.default_rng(seed), FUNCTIONS, rate_per_second=5.0
        )
        return [
            (i.time, i.function, i.duration) for i in process.iter_generate(60.0)
        ]

    assert trace() == trace()


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_iter_generate_agrees_with_generate_distribution(seed):
    """Same homogeneous Poisson process, different construction: the
    count-sort-uniforms path and the incremental exponential-gaps path
    must agree in distribution (per seed, not per draw)."""
    rate, horizon = 10.0, 500.0

    def build():
        return PoissonInvocationProcess(
            np.random.default_rng(seed), FUNCTIONS, rate_per_second=rate
        )

    eager = build().generate(horizon)
    lazy = list(build().iter_generate(horizon))

    # Poisson(rate * horizon) counts: both within 6 sd of the mean, so
    # the test is deterministic-in-practice for any seed
    expected = rate * horizon
    slack = 6.0 * math.sqrt(expected)
    assert abs(len(eager) - expected) < slack
    assert abs(len(lazy) - expected) < slack

    times = [i.time for i in lazy]
    assert times == sorted(times)
    assert all(0.0 <= t < horizon for t in times)
    assert all(i.duration > 0.0 for i in lazy)

    # the Zipf marks are shared: the most popular function dominates
    # the least popular in both constructions
    def counts(invocations):
        out = {}
        for invocation in invocations:
            out[invocation.function] = out.get(invocation.function, 0) + 1
        return out

    for hist in (counts(eager), counts(lazy)):
        assert hist["f0"] > hist.get("f9", 0) * 2


def test_iter_generate_is_incremental_not_materialized():
    """Partial consumption draws only what it yields: two same-seed
    iterators agree prefix-for-prefix without running out the horizon."""

    def head(n):
        process = PoissonInvocationProcess(
            np.random.default_rng(99), FUNCTIONS, rate_per_second=2.0
        )
        return [
            (i.time, i.function)
            for i in islice(process.iter_generate(1e9), n)
        ]

    assert head(50) == head(100)[:50]


def test_iter_generate_constant_memory():
    process = PoissonInvocationProcess(
        np.random.default_rng(7), FUNCTIONS, rate_per_second=50.0
    )
    iterator = process.iter_generate(600.0)  # ~30k invocations
    tracemalloc.start()
    try:
        produced = sum(1 for _ in iterator)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert produced > 20_000
    # the eager path would hold every Invocation (> 2 MiB here); the
    # lazy path's peak is per-draw scratch only
    assert peak < 256 * 1024


# ---------------------------------------------------------------------------
# StreamSource / PoissonSource
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_stream_source_deterministic_per_seed(seed):
    def trace():
        source = PoissonSource(
            np.random.default_rng(seed), FUNCTIONS, rate_per_second=5.0
        )
        return [
            (i.time, i.function, i.duration)
            for i in source.iter_invocations(120.0)
        ]

    assert trace() == trace()


def test_stream_source_rate_and_ordering():
    source = _fixed_source(seed=12, rate=10.0)
    times = [i.time for i in source.iter_invocations(2000.0)]
    assert times == sorted(times)
    assert all(0.0 <= t < 2000.0 for t in times)
    # Poisson(20000): 6 sd is ~850
    assert len(times) == pytest.approx(20_000, abs=900)


def test_stream_source_empty_horizon():
    source = _fixed_source(seed=1)
    assert list(source.iter_invocations(0.0)) == []
    assert list(source.iter_invocations(-5.0)) == []


def test_stream_source_constant_memory():
    source = _fixed_source(seed=7, rate=100.0)
    iterator = source.iter_invocations(600.0)  # ~60k invocations
    tracemalloc.start()
    try:
        produced = sum(1 for _ in iterator)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert produced > 50_000
    assert peak < 256 * 1024


def test_poisson_source_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="rate"):
        PoissonSource(rng, ["f"], rate_per_second=0.0)
    with pytest.raises(ValueError, match="function"):
        PoissonSource(rng, [], rate_per_second=1.0)


def test_fixed_duration_model():
    model = FixedDurationModel(0.25)
    assert model.sample() == 0.25
    with pytest.raises(ValueError, match="positive"):
        FixedDurationModel(0.0)
    with pytest.raises(ValueError, match="positive"):
        FixedDurationModel(-1.0)


# ---------------------------------------------------------------------------
# modulators
# ---------------------------------------------------------------------------


def test_neutral_diurnal_modulator_is_identity():
    """amplitude=0 consumes the RNG stream exactly like the bare source
    (the unconditional accept draw), so arrivals are byte-identical."""

    def arrivals(wrap):
        source = _fixed_source(seed=42)
        if wrap:
            source = DiurnalModulator(source, amplitude=0.0)
        return [(i.time, i.function) for i in source.iter_invocations(600.0)]

    assert arrivals(True) == arrivals(False)


def test_diurnal_modulator_shape_and_validation():
    source = DiurnalModulator(_fixed_source(seed=1, rate=2.0), amplitude=0.5,
                              period=100.0)
    assert source.rate(25.0) == pytest.approx(3.0)   # sin peak: 2 * 1.5
    assert source.rate(75.0) == pytest.approx(1.0)   # sin trough: 2 * 0.5
    assert source.peak_rate(1000.0) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="amplitude"):
        DiurnalModulator(_fixed_source(seed=1), amplitude=1.5)
    with pytest.raises(ValueError, match="period"):
        DiurnalModulator(_fixed_source(seed=1), period=0.0)


def test_burst_modulator_multiplies_arrivals_in_window():
    source = BurstModulator(
        _fixed_source(seed=3, rate=5.0), start=300.0, duration=300.0, factor=4.0
    )
    times = [i.time for i in source.iter_invocations(900.0)]
    inside = sum(1 for t in times if 300.0 <= t < 600.0)
    outside = len(times) - inside
    inside_rate = inside / 300.0
    outside_rate = outside / 600.0
    assert outside_rate == pytest.approx(5.0, rel=0.2)
    assert inside_rate == pytest.approx(20.0, rel=0.2)
    with pytest.raises(ValueError, match="duration"):
        BurstModulator(_fixed_source(seed=3), start=0.0, duration=0.0)
    with pytest.raises(ValueError, match="factor"):
        BurstModulator(_fixed_source(seed=3), start=0.0, duration=1.0, factor=-1.0)


def test_flash_crowd_modulator_shape():
    source = FlashCrowdModulator(
        _fixed_source(seed=4, rate=2.0), at=100.0, magnitude=9.0,
        rise=10.0, decay=50.0,
    )
    assert source.factor(50.0) == 1.0
    assert source.factor(105.0) == pytest.approx(5.5)    # mid-ramp
    assert source.factor(110.0) == pytest.approx(10.0)   # peak
    assert source.factor(160.0) == pytest.approx(1.0 + 9.0 * math.exp(-1.0))
    assert source.peak_rate(1000.0) == pytest.approx(20.0)
    with pytest.raises(ValueError, match="magnitude"):
        FlashCrowdModulator(_fixed_source(seed=4), at=0.0, magnitude=-1.0)
    with pytest.raises(ValueError, match="rise/decay"):
        FlashCrowdModulator(_fixed_source(seed=4), at=0.0, rise=0.0)


def test_region_shift_tags_every_invocation_and_rotates():
    source = RegionShiftModulator(
        _fixed_source(seed=5, rate=5.0), ["a", "b"],
        period=1000.0, sharpness=1.0,
    )
    # intensity untouched — only the marking changes
    assert source.factor(123.0) == 1.0
    assert source.peak_rate(1000.0) == pytest.approx(5.0)
    invocations = list(source.iter_invocations(1000.0))
    assert invocations and all(i.cluster in {"a", "b"} for i in invocations)
    # follow-the-sun: with sharpness 1 and two regions, the active
    # region's weight at its own peak is 2 and the other's is ~0
    early = [i.cluster for i in invocations if i.time < 100.0]
    late = [i.cluster for i in invocations if 450.0 <= i.time < 550.0]
    assert early.count("a") > 0.9 * len(early)
    assert late.count("b") > 0.9 * len(late)


def test_region_shift_validation():
    base = _fixed_source(seed=5)
    with pytest.raises(ValueError, match="region"):
        RegionShiftModulator(base, [])
    with pytest.raises(ValueError, match="period"):
        RegionShiftModulator(base, ["a"], period=0.0)
    with pytest.raises(ValueError, match="sharpness"):
        RegionShiftModulator(base, ["a"], sharpness=-0.1)


def test_build_stream_source_composition_order():
    """The canonical wrapper order both execution paths rely on:
    region-shift(flash(burst(diurnal(poisson))))."""
    source = build_stream_source(
        np.random.default_rng(1), ["f"], 2.0,
        diurnal_amplitude=0.3,
        burst_at=10.0,
        flash_at=50.0,
        regions=["a", "b"],
        region_period=100.0,
    )
    assert isinstance(source, RegionShiftModulator)
    assert isinstance(source.base, FlashCrowdModulator)
    assert isinstance(source.base.base, BurstModulator)
    assert isinstance(source.base.base.base, DiurnalModulator)
    assert isinstance(source.base.base.base.base, PoissonSource)
    assert source.functions == ["f"]
    # peaks compose multiplicatively: 2 * 1.3 * 4 (burst) * 10 (flash)
    assert source.peak_rate(1000.0) == pytest.approx(104.0)


def test_build_stream_source_defaults_to_bare_poisson():
    source = build_stream_source(np.random.default_rng(1), ["f"], 2.0)
    assert type(source) is PoissonSource


# ---------------------------------------------------------------------------
# the flat sampler against the layered reference
# ---------------------------------------------------------------------------
#
# The reference walks the stack layer by layer: every candidate
# multiplies the base rate by each layer's factor, inner first, every
# arrival builds one invocation per marking layer, and draws go through
# exponential(scale), uniform(0, peak) and searchsorted.  The flat
# sampler must reproduce its arrivals exactly and leave the generator
# in the same state.


def _nested_rate(source, t):
    if isinstance(source, Modulator):
        return _nested_rate(source.base, t) * source.factor(t)
    return source.rate(t)


def _reference_weights(source, t):
    n = len(source.regions)
    angle = 2.0 * math.pi * (t + source.phase) / source.period
    raw = [
        max(0.0, 1.0 + source.sharpness * math.cos(angle - 2.0 * math.pi * i / n))
        for i in range(n)
    ]
    return raw if sum(raw) > 0.0 else [1.0] * n


def _nested_make(source, t, zipf_s):
    make = type(source).make
    if make is RegionShiftModulator.make:
        invocation = _nested_make(source.base, t, zipf_s)
        weights = _reference_weights(source, t)
        threshold = float(source.rng.random()) * sum(weights)
        acc = 0.0
        region = source.regions[-1]
        for name, weight in zip(source.regions, weights):
            acc += weight
            if threshold <= acc:
                region = name
                break
        return Invocation(
            time=invocation.time,
            function=invocation.function,
            duration=invocation.duration,
            cluster=region,
        )
    if make is Modulator.make:
        return _nested_make(source.base, t, zipf_s)
    if make is PoissonSource.make:
        functions = source.functions
        ranks = np.arange(1, len(functions) + 1, dtype=float)
        popularity = ranks ** (-zipf_s)
        cumulative = np.cumsum(popularity / popularity.sum())
        u = float(source.rng.random())
        index = min(
            int(np.searchsorted(cumulative, u, side="right")), len(functions) - 1
        )
        return Invocation(
            time=t,
            function=functions[index],
            duration=float(source.duration_model.sample()),
        )
    return source.make(t)


def _reference_invocations(source, horizon, zipf_s=1.1):
    out = []
    if horizon <= 0.0:
        return out
    peak = float(source.peak_rate(horizon))
    if peak <= 0.0:
        return out
    rng = source.rng
    scale = 1.0 / peak
    t = 0.0
    while True:
        t += float(rng.exponential(scale))
        if t >= horizon:
            return out
        if float(rng.uniform(0.0, peak)) <= _nested_rate(source, t):
            out.append(_nested_make(source, t, zipf_s))


_LAYER = st.one_of(
    st.tuples(
        st.just("diurnal"),
        st.floats(0.0, 1.0),
        st.floats(1.0, 500.0),
        st.floats(-300.0, 300.0),
    ),
    st.tuples(
        st.just("burst"),
        st.floats(-20.0, 150.0),
        st.floats(0.5, 100.0),
        st.floats(0.0, 4.0),
    ),
    st.tuples(
        st.just("flash"),
        st.floats(-20.0, 150.0),
        st.floats(0.0, 9.0),
        st.tuples(st.floats(0.1, 60.0), st.floats(0.1, 200.0)),
    ),
    st.tuples(
        st.just("region"),
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=7),
        st.floats(1.0, 500.0),
        st.tuples(st.floats(-300.0, 300.0), st.floats(0.0, 3.0)),
    ),
)


def _wrap(source, layer):
    kind, a, b, c = layer
    if kind == "diurnal":
        return DiurnalModulator(source, amplitude=a, period=b, phase=c)
    if kind == "burst":
        return BurstModulator(source, start=a, duration=b, factor=c)
    if kind == "flash":
        return FlashCrowdModulator(source, at=a, magnitude=b, rise=c[0], decay=c[1])
    return RegionShiftModulator(source, a, period=b, phase=c[0], sharpness=c[1])


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.floats(0.05, 4.0),
    functions=st.integers(1, 12),
    zipf_s=st.floats(0.5, 2.0),
    layers=st.lists(_LAYER, max_size=5),
    horizon=st.floats(0.0, 150.0),
)
@settings(max_examples=120, deadline=None)
def test_flat_sampler_matches_layered_reference(seed, rate, functions, zipf_s, layers, horizon):
    names = [f"fn{i}" for i in range(functions)]

    def build():
        rng = np.random.default_rng(seed)
        source = PoissonSource(rng, names, rate, zipf_s=zipf_s)
        for layer in layers:
            source = _wrap(source, layer)
        return source, rng

    flat, flat_rng = build()
    layered, layered_rng = build()
    assert list(flat.iter_invocations(horizon)) == _reference_invocations(
        layered, horizon, zipf_s
    )
    assert flat_rng.bit_generator.state == layered_rng.bit_generator.state
    # the resolved rate and the region weights are the layered ones, bit
    # for bit
    for t in (0.0, horizon / 3.0, horizon):
        assert flat.rate(t) == _nested_rate(layered, t)
        layer = flat
        while isinstance(layer, Modulator):
            if isinstance(layer, RegionShiftModulator):
                assert layer.weights(t) == _reference_weights(layer, t)
            layer = layer.base


class _SquareWave(StreamSource):
    """A custom source written against the bare contract: intensity
    (``rate``/``peak_rate``), RNG and ``make`` — no marks, no rate terms."""

    def __init__(self, rng, period=20.0):
        self._rng = rng
        self.period = period

    @property
    def rng(self):
        return self._rng

    @property
    def functions(self):
        return ["on", "off"]

    def rate(self, t):
        return 3.0 if (t // self.period) % 2 == 0 else 0.5

    def peak_rate(self, horizon):
        return 3.0

    def make(self, t):
        function = self.functions[int(self._rng.random() * 2)]
        return Invocation(t, function, 0.1)


@pytest.mark.parametrize("wrap", ["bare", "modulated"])
def test_custom_source_with_bare_contract(wrap):
    def build():
        rng = np.random.default_rng(17)
        source = _SquareWave(rng)
        if wrap == "modulated":
            source = DiurnalModulator(source, amplitude=0.4, period=90.0)
            source = RegionShiftModulator(source, ["a", "b"], period=60.0)
            source = FlashCrowdModulator(source, at=30.0, magnitude=2.0, rise=5.0, decay=20.0)
        return source, rng

    source, rng = build()
    reference, reference_rng = build()
    invocations = list(source.iter_invocations(200.0))
    assert invocations == _reference_invocations(reference, 200.0)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert invocations and {i.function for i in invocations} <= {"on", "off"}
    if wrap == "modulated":
        assert {i.cluster for i in invocations} == {"a", "b"}
    # the square wave shows through: the "high" half-periods get ~6x the
    # arrivals of the "low" ones
    high = sum(1 for i in invocations if (i.time // 20.0) % 2 == 0)
    assert high > 2 * (len(invocations) - high)


def test_overridden_make_and_rate_survive_wrapping():
    """A subclass that re-marks in ``make`` or reshapes ``rate`` keeps
    its behaviour under modulators: the flat rate product and the marks
    pass-through fall back to the overridden methods."""

    class Doubled(PoissonSource):
        def rate(self, t):
            return 2.0 * super().rate(t)

        def peak_rate(self, horizon):
            return 2.0 * super().peak_rate(horizon)

        def make(self, t):
            invocation = super().make(t)
            return Invocation(t, invocation.function.upper(), invocation.duration)

    class Relabel(DiurnalModulator):
        def make(self, t):
            invocation = self.base.make(t)
            return Invocation(t, invocation.function + "!", invocation.duration)

    def build():
        rng = np.random.default_rng(11)
        source = Doubled(rng, ["f", "g"], 1.0, duration_model=FixedDurationModel(0.1))
        source = Relabel(source, amplitude=0.3, period=50.0)
        source = RegionShiftModulator(source, ["a", "b"], period=80.0)
        return source, rng

    source, rng = build()
    reference, reference_rng = build()
    invocations = list(source.iter_invocations(100.0))
    assert invocations == _reference_invocations(reference, 100.0)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert {i.function for i in invocations} == {"F!", "G!"}
    assert source.rate(10.0) == _nested_rate(reference, 10.0)
    assert 150 < len(invocations) < 250   # ~2/s over 100 s, not ~1/s


def test_rate_is_called_once_per_candidate(monkeypatch):
    """The sampler's contract: one ``rate`` call per thinning candidate
    and one ``make`` call per arrival, counted over every class of the
    stack — a modulator stack does not recurse through its layers."""
    import repro.workloads.streaming as streaming

    calls = {"rate": 0, "make": 0}

    def counted(cls, name):
        original = cls.__dict__[name]

        def wrapper(self, t):
            calls[name] += 1
            return original(self, t)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (streaming.PoissonSource, streaming.Modulator, streaming.RegionShiftModulator):
        for name in ("rate", "make"):
            if name in cls.__dict__:
                counted(cls, name)

    source = build_stream_source(
        np.random.default_rng(3), FUNCTIONS, 5.0,
        diurnal_amplitude=0.5, diurnal_period=200.0, burst_at=100.0,
        flash_at=50.0, regions=["a", "b"], region_period=100.0,
    )
    peak = source.peak_rate(300.0)
    arrivals = list(source.iter_invocations(300.0))
    assert calls["make"] == len(arrivals) > 0
    # candidates ~ Poisson(peak * horizon); rate is asked once for each
    assert calls["rate"] == pytest.approx(peak * 300.0, rel=0.05)


# ---------------------------------------------------------------------------
# StreamReport
# ---------------------------------------------------------------------------


def test_stream_report_counts_and_shares():
    report = StreamReport()
    report.add(ActivationStatus.SUCCESS, 1.0)
    report.add(ActivationStatus.SUCCESS, 3.0)
    report.add(ActivationStatus.FAILED, 0.5)
    report.add(ActivationStatus.UNAVAILABLE, 0.0)
    assert report.total == 4
    assert report.count(ActivationStatus.SUCCESS) == 2
    assert report.invoked_share == pytest.approx(0.75)
    assert report.success_share_of_invoked == pytest.approx(2.0 / 3.0)
    metrics = report.metrics()
    assert metrics["stream_requests_total"] == 4
    assert metrics["stream_accepted_share"] == pytest.approx(0.75)
    # response-time aggregates cover successes only
    assert metrics["stream_mean_response_s"] == pytest.approx(2.0)
    assert metrics["stream_p50_response_s"] == pytest.approx(2.0)


def test_stream_report_empty():
    report = StreamReport()
    assert report.invoked_share == 0.0
    assert report.success_share_of_invoked == 0.0
    metrics = report.metrics()
    assert metrics["stream_requests_total"] == 0
    assert "stream_mean_response_s" not in metrics


def test_stream_report_merge_matches_single_report():
    """Shard-split outcomes merged back equal the unsplit report: counts
    and moments exactly (quantiles per the sketch-merge contract)."""
    rng = np.random.default_rng(8)
    statuses = [
        ActivationStatus.SUCCESS,
        ActivationStatus.FAILED,
        ActivationStatus.UNAVAILABLE,
        ActivationStatus.TIMEOUT,
    ]
    outcomes = [
        (statuses[int(rng.integers(len(statuses)))], float(rng.uniform(0.1, 5.0)))
        for _ in range(400)
    ]
    left, right, whole = StreamReport(), StreamReport(), StreamReport()
    for index, (status, response_time) in enumerate(outcomes):
        (left if index % 2 else right).add(status, response_time)
        whole.add(status, response_time)
    left.run_horizon = 600.0
    right.run_horizon = 900.0
    left.merge(right)
    assert left.total == whole.total
    assert left.by_status == whole.by_status
    assert left.run_horizon == 900.0
    assert left.response.count == whole.response.count
    assert left.response.min == whole.response.min
    assert left.response.max == whole.response.max
    assert left.response.total == pytest.approx(whole.response.total)
    assert left.response.mean == pytest.approx(whole.response.mean)
    # 400 successes max < the default sketch capacity -> quantiles exact
    assert left.response.quantile(0.5) == pytest.approx(
        whole.response.quantile(0.5)
    )


def test_stream_report_merge_empty_sides():
    report = StreamReport()
    report.add(ActivationStatus.SUCCESS, 2.0)
    report.merge(StreamReport())
    assert report.total == 1
    empty = StreamReport()
    empty.merge(report)
    assert empty.total == 1
    assert empty.response.mean == pytest.approx(2.0)
