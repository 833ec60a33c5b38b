"""Property-based tests: the vector fluid engine is bit-for-bit the scalar one.

The vectorized event loop (``engine="vector"``) is a pure performance
refactor: it must walk the identical global epoch sequence and perform
the identical per-element IEEE-754 arithmetic as the scalar reference
loop, differing only in wall-clock cost. These properties pin that
contract over random training steps, card populations, bucket sizes,
and both contention modes:

* ``ExecutionResult``s from both engines carry *equal* ``TraceEvent``
  lists (dataclass ``==`` — every field, every event, in order) and
  equal aggregate floats (no tolerance);
* the same holds end-to-end through ``SynapseProfiler`` and
  ``HLS1Profiler``, which run the default engine: patching
  ``runtime.DEFAULT_SIM_ENGINE`` to ``"scalar"`` swaps in the reference
  loop, and ``ProfileResult`` timelines and derived aggregates match
  exactly. Pipelined (pp > 1) runs are covered in
  ``test_lazy_timeline.py``.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import ht
from repro.ht import functional as F
from repro.hw.config import GaudiConfig, HLS1Config
from repro.hw.costmodel import EngineKind
from repro.hw.device import GaudiDevice, HLS1Device
from repro.synapse import (
    GraphCompiler,
    HLS1Runtime,
    Runtime,
    default_compiler_options,
    runtime,
)
from repro.synapse.profiler import HLS1Profiler, SynapseProfiler
from repro.util.errors import ExecutionError


def record_step(width, depth, batch):
    lins = [ht.Linear(width, width, materialize=False) for _ in range(depth)]
    with ht.record("engine-prop", mode="symbolic") as rec:
        h = ht.input_tensor((batch, width), name="x")
        for lin in lins:
            h = F.relu(lin(h))
        loss = F.mean(h)
        loss.backward()
        params = [p for lin in lins for p in lin.parameters()]
        ht.SGD(params, lr=0.01).step()
    return rec.graph


def compile_step(graph, bucket_mb, *, collectives=True):
    options = dataclasses.replace(
        default_compiler_options(),
        inject_collectives=collectives,
        bucket_mb=bucket_mb,
    )
    return GraphCompiler(options=options).compile(graph)


def default_engine(engine):
    """Make ``engine`` the fluid loop a caller gets by not naming one."""
    return mock.patch.object(runtime, "DEFAULT_SIM_ENGINE", engine)


def assert_results_identical(r_scalar, r_vector):
    assert r_scalar.timeline.events == r_vector.timeline.events
    assert r_scalar.total_time_us == r_vector.total_time_us
    assert r_scalar.start_offset_us == r_vector.start_offset_us
    assert r_scalar.contention_stall_us == r_vector.contention_stall_us
    assert r_scalar.exposed_comm_us == r_vector.exposed_comm_us
    assert r_scalar.fabric_busy_us == r_vector.fabric_busy_us
    assert r_scalar.issue_order == r_vector.issue_order
    assert r_scalar.num_cards == r_vector.num_cards


width_st = st.integers(4, 24)
depth_st = st.integers(1, 3)
batch_st = st.integers(2, 6)
cards_st = st.sampled_from([1, 2, 4, 8])
bucket_st = st.sampled_from([0.001, 0.01, 25.0])
contention_st = st.booleans()


class TestEngineEquivalenceProperties:
    @given(width_st, depth_st, batch_st, cards_st, bucket_st, contention_st)
    @settings(max_examples=20, deadline=None)
    def test_hls1_trace_streams_byte_identical(
        self, width, depth, batch, cards, bucket_mb, contention
    ):
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb)
        results = {}
        for engine in ("scalar", "vector"):
            system = HLS1Device(HLS1Config(num_cards=cards))
            results[engine] = HLS1Runtime(system).execute(
                schedule, hbm_contention=contention, engine=engine
            )
        assert_results_identical(results["scalar"], results["vector"])

    @given(width_st, depth_st, batch_st, bucket_st, contention_st)
    @settings(max_examples=20, deadline=None)
    def test_single_card_trace_streams_byte_identical(
        self, width, depth, batch, bucket_mb, contention
    ):
        graph = record_step(width, depth, batch)
        schedule = compile_step(graph, bucket_mb, collectives=False)
        results = {}
        for engine in ("scalar", "vector"):
            results[engine] = Runtime(GaudiDevice()).execute(
                schedule, hbm_contention=contention, engine=engine
            )
        assert_results_identical(results["scalar"], results["vector"])

    @given(width_st, depth_st, batch_st, cards_st, bucket_st, contention_st)
    @settings(max_examples=10, deadline=None)
    def test_profile_result_aggregates_identical(
        self, width, depth, batch, cards, bucket_mb, contention
    ):
        graph = record_step(width, depth, batch)
        profiles = {}
        for engine in ("scalar", "vector"):
            options = dataclasses.replace(
                default_compiler_options(),
                bucket_mb=bucket_mb,
                hbm_contention=contention,
            )
            profiler = HLS1Profiler(
                HLS1Config(num_cards=cards), options
            )
            with default_engine(engine):
                profiles[engine] = profiler.profile(graph)
        ps, pv = profiles["scalar"], profiles["vector"]
        assert ps.timeline.events == pv.timeline.events
        assert ps.total_time_us == pv.total_time_us
        assert ps.exposed_comm_us == pv.exposed_comm_us
        assert ps.fabric_busy_us == pv.fabric_busy_us
        for engine_kind in (EngineKind.MME, EngineKind.TPC, EngineKind.DMA):
            assert ps.utilization(engine_kind) == pv.utilization(engine_kind)
            assert ps.idle_fraction(engine_kind) == pv.idle_fraction(
                engine_kind
            )

    @given(width_st, depth_st, batch_st, contention_st)
    @settings(max_examples=10, deadline=None)
    def test_single_card_profiler_aggregates_identical(
        self, width, depth, batch, contention
    ):
        graph = record_step(width, depth, batch)
        profiles = {}
        for engine in ("scalar", "vector"):
            options = dataclasses.replace(
                default_compiler_options(),
                hbm_contention=contention,
            )
            profiler = SynapseProfiler(GaudiConfig(), options)
            with default_engine(engine):
                profiles[engine] = profiler.profile(graph)
        ps, pv = profiles["scalar"], profiles["vector"]
        assert ps.timeline.events == pv.timeline.events
        assert ps.total_time_us == pv.total_time_us


def test_default_engine_patch_reaches_both_profilers():
    # the seam the profiler properties rely on: an engine name the
    # runtime rejects must surface through each profiler
    graph = record_step(8, 1, 2)
    with default_engine("bogus"):
        for profiler in (SynapseProfiler(GaudiConfig()),
                         HLS1Profiler(HLS1Config(num_cards=2))):
            with pytest.raises(ExecutionError, match="bogus"):
                profiler.profile(graph)
