"""Frozen, shared compiled schedules and the runtime state cached on them.

Compiled schedules are immutable at every depth, so the recipe cache
hands every hit the same object and the runtime keeps its derived
state (cost prep, GPipe stage sub-schedules) on it. These tests pin
that every pass emits frozen ops, that the cached state is reused and
equals a fresh build, and that a pipelined recipe-cache hit executes
exactly like a fresh, uncached compile.
"""

import dataclasses
import pickle

import pytest

from repro.core.e2e_llm import record_training_step
from repro.hw.config import HLS1Config
from repro.hw.device import HLS1Device
from repro.synapse import GraphCompiler, HLS1Runtime, default_compiler_options
from repro.synapse.recipe import RecipeCache
from repro.synapse.runtime import _schedule_prep, build_stage_schedule

#: one pipelined, tensor-parallel layout: every op-rewriting pass runs
OPTIONS = dataclasses.replace(
    default_compiler_options(), inject_collectives=True, tp=2, pp=4,
    microbatches=8,
)


def _system(cards: int) -> HLS1Device:
    return HLS1Device(
        dataclasses.replace(HLS1Config(), num_cards=8, boxes=cards // 8)
    )


@pytest.fixture(scope="module")
def graph():
    return record_training_step("gpt", batch=1, seq_len=256).graph


def _compile(graph, cache=None, **overrides):
    options = dataclasses.replace(OPTIONS, **overrides)
    return GraphCompiler(options=options, cache=cache).compile(graph)


def test_every_pass_emits_frozen_ops(graph):
    schedule = _compile(graph, use_recipe_cache=False)
    assert {"tensor_parallel", "pipeline", "collectives"} <= set(
        schedule.stats
    )
    assert isinstance(schedule.ops, tuple)
    for i, op in enumerate(schedule.ops):
        assert op.index == i
        for name in ("items", "deps", "reads", "writes", "node_ids"):
            assert isinstance(getattr(op, name), tuple), (op.label, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        schedule.ops[0].deps = ()
    with pytest.raises(TypeError):
        schedule.stats["pipeline"]["pp"] = 1
    assert isinstance(schedule.stats["pipeline"]["stage_of"], tuple)
    # read-only mappings still pickle (and so copy) as a whole
    back = pickle.loads(pickle.dumps(schedule))
    assert back.ops == schedule.ops
    assert back.stats == schedule.stats
    assert back.memory == schedule.memory
    with pytest.raises(TypeError):
        back.stats["pipeline"]["pp"] = 1


def test_stage_schedule_built_once_and_equal_to_fresh(graph):
    schedule = _compile(graph, use_recipe_cache=False)
    for stage in range(OPTIONS.pp):
        for drop_tail in (False, True):
            sub = HLS1Runtime(_system(32))._stage_schedule(
                schedule, stage, drop_tail=drop_tail
            )
            again = HLS1Runtime(_system(64))._stage_schedule(
                schedule, stage, drop_tail=drop_tail
            )
            assert again is sub
            fresh = build_stage_schedule(
                schedule, stage, drop_tail=drop_tail
            )
            assert fresh is not sub
            for field in dataclasses.fields(sub):
                assert getattr(sub, field.name) == getattr(
                    fresh, field.name
                ), field.name
            assert "pipeline" not in sub.stats


def test_recipe_hits_share_runtime_prep(graph):
    cache = RecipeCache()
    first = _compile(graph, cache=cache, pp=1, microbatches=1)
    cost = _system(8).cards[0].cost_model
    prep = _schedule_prep(first, cost)
    hit = _compile(graph, cache=cache, pp=1, microbatches=1)
    assert hit is first
    assert _schedule_prep(hit, cost) is prep


@pytest.mark.parametrize("cards", [32, 64])
def test_pipelined_hit_matches_fresh_compile(graph, cards):
    cache = RecipeCache()
    first = _compile(graph, cache=cache)
    # warm every cached derivation at another card count first
    HLS1Runtime(_system(8)).execute(first)
    hit = _compile(graph, cache=cache)
    assert hit is first and cache.hits == 1
    fresh = _compile(graph, use_recipe_cache=False)
    assert fresh is not hit

    a = HLS1Runtime(_system(cards)).execute(hit)
    b = HLS1Runtime(_system(cards)).execute(fresh)
    assert a.total_time_us == b.total_time_us
    assert a.contention_stall_us == b.contention_stall_us
    assert a.fabric_busy_us == b.fabric_busy_us
    assert a.exposed_comm_us == b.exposed_comm_us
    assert [dataclasses.astuple(ev) for ev in a.timeline.events] == [
        dataclasses.astuple(ev) for ev in b.timeline.events
    ]
