"""Unit + property tests for the DES core and memory tracker."""

import pytest
from hypothesis import given, strategies as st

from repro.hw import EngineTimeline, Interval, MemoryTracker
from repro.hw.memory import plan_peak_bytes
from repro.util.errors import DeviceMemoryError, ExecutionError


class TestEngineTimeline:
    def test_reserve_sequencing(self):
        tl = EngineTimeline("MME")
        a = tl.reserve(0.0, 10.0, "op1")
        b = tl.reserve(5.0, 10.0, "op2")  # engine busy until 10
        assert (a.start, a.end) == (0.0, 10.0)
        assert (b.start, b.end) == (10.0, 20.0)

    def test_gap_when_waiting_on_dependency(self):
        tl = EngineTimeline("MME")
        tl.reserve(0.0, 10.0, "op1")
        tl.reserve(25.0, 5.0, "op2")  # dependency ready at 25
        gaps = tl.gaps()
        assert gaps == [Interval(10.0, 25.0, "idle")]

    def test_utilization(self):
        tl = EngineTimeline("TPC")
        tl.reserve(0.0, 10.0)
        tl.reserve(30.0, 10.0)
        assert tl.utilization() == pytest.approx(0.5)
        assert tl.busy_time() == pytest.approx(20.0)

    def test_utilization_empty(self):
        assert EngineTimeline("X").utilization() == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ExecutionError):
            EngineTimeline("X").reserve(0.0, -1.0)

    def test_reset(self):
        tl = EngineTimeline("X")
        tl.reserve(0.0, 5.0)
        tl.reset()
        assert tl.free_at == 0.0
        assert tl.intervals == []

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e5),
                st.floats(min_value=0, max_value=1e4),
            ),
            max_size=40,
        )
    )
    def test_invariant_no_overlap(self, reservations):
        """Core hardware invariant: one op at a time per engine."""
        tl = EngineTimeline("E")
        for earliest, duration in reservations:
            tl.reserve(earliest, duration)
        ivs = tl.intervals
        for prev, nxt in zip(ivs, ivs[1:]):
            assert nxt.start >= prev.end

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e5),
                st.floats(min_value=0, max_value=1e4),
            ),
            max_size=40,
        )
    )
    def test_invariant_busy_plus_gaps_covers_horizon(self, reservations):
        tl = EngineTimeline("E")
        for earliest, duration in reservations:
            tl.reserve(earliest, duration)
        horizon = tl.free_at
        total_gap = sum(g.duration for g in tl.gaps(horizon))
        assert total_gap + tl.busy_time(horizon) == pytest.approx(
            horizon, abs=1e-6
        )


class TestMemoryTracker:
    def test_alloc_free_cycle(self):
        mem = MemoryTracker(1000)
        a = mem.alloc(400, "x")
        assert mem.live_bytes == 400
        mem.free(a)
        assert mem.live_bytes == 0
        assert mem.peak_bytes == 400

    def test_oom_raises(self):
        mem = MemoryTracker(1000)
        mem.alloc(800)
        with pytest.raises(DeviceMemoryError) as exc:
            mem.alloc(300, "activations")
        assert exc.value.capacity_bytes == 1000
        assert "activations" in str(exc.value)

    def test_enforce_false_allows_overflow(self):
        mem = MemoryTracker(100, enforce=False)
        mem.alloc(500)
        assert mem.peak_bytes == 500

    def test_double_free_rejected(self):
        mem = MemoryTracker(100)
        a = mem.alloc(10)
        mem.free(a)
        with pytest.raises(ValueError, match="double free"):
            mem.free(a)

    def test_headroom_and_would_fit(self):
        mem = MemoryTracker(100)
        mem.alloc(60)
        assert mem.headroom_bytes() == 40
        assert mem.would_fit(40)
        assert not mem.would_fit(41)

    def test_summary_and_reset(self):
        mem = MemoryTracker(100)
        mem.alloc(10)
        s = mem.summary()
        assert s["live_bytes"] == 10 and s["num_allocations"] == 1
        mem.reset()
        assert mem.summary()["peak_bytes"] == 0

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=30))
    def test_peak_at_least_live(self, sizes):
        mem = MemoryTracker(10**9)
        for s in sizes:
            mem.alloc(s)
        assert mem.peak_bytes == mem.live_bytes == sum(sizes)


class TestPlanPeakBytes:
    def test_simple_sequence(self):
        # step0: +10; step1: +20, free 0; step2: +5, free 1
        peak = plan_peak_bytes([10, 20, 5], [[], [0], [1]])
        assert peak == 30

    def test_all_live(self):
        assert plan_peak_bytes([1, 2, 3], [[], [], []]) == 6

    def test_double_free_rejected(self):
        with pytest.raises(ValueError, match="double free"):
            plan_peak_bytes([10, 5], [[0], [0]])

    def test_future_free_rejected(self):
        with pytest.raises(ValueError):
            plan_peak_bytes([10, 5], [[1], []])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            plan_peak_bytes([10], [])

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=20))
    def test_peak_bounds(self, sizes):
        frees = [[] for _ in sizes]
        if sizes:
            # free everything at the last step except the last buffer
            frees[-1] = list(range(len(sizes) - 1))
        peak = plan_peak_bytes(sizes, frees)
        assert (max(sizes) if sizes else 0) <= peak <= sum(sizes)
