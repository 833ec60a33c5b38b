"""Card-symmetric lazy timelines: exact when read, free when not.

The vector engine hands the HLS-1 runtime one card's events; the
other cards' copies (and a pipeline stage's card offset) are built on
the first read of ``Timeline.events``. Read, they must equal the
scalar engine's eager trace field for field and in order, on every
A16 layout-grid point for GPT.
"""

import dataclasses
import gc

import pytest

from repro.core.auto_layout import enumerate_layouts
from repro.core.e2e_llm import record_training_step
from repro.hw.config import HLS1Config
from repro.hw.costmodel import EngineKind
from repro.hw.device import HLS1Device
from repro.synapse import GraphCompiler, HLS1Runtime, default_compiler_options
from repro.synapse.recipe import RecipeCache
from repro.synapse.trace import Timeline, TraceEvent

CARD_COUNTS = (8, 32, 64)
BATCH = 8
SEQ_LEN = 256

#: the A16 grid: tp in {1, 4}, pp in {1, 4}, microbatches in {1, 8}
GRID = [
    (cards, layout)
    for cards in CARD_COUNTS
    for layout in enumerate_layouts(
        cards, batch=BATCH, tp_grid=(1, 4), pp_grid=(1, 4),
        microbatch_grid=(1, 8),
    )
]


def _system(cards: int) -> HLS1Device:
    return HLS1Device(
        dataclasses.replace(HLS1Config(), num_cards=8, boxes=cards // 8)
    )


@pytest.fixture(scope="module")
def compile_layout():
    graphs: dict[int, object] = {}
    cache = RecipeCache()

    def compile_(layout):
        microbatch = (
            BATCH // layout.microbatches if layout.pp > 1 else BATCH
        )
        if microbatch not in graphs:
            graphs[microbatch] = record_training_step(
                "gpt", batch=microbatch, seq_len=SEQ_LEN
            ).graph
        options = dataclasses.replace(
            default_compiler_options(), inject_collectives=True,
            bucket_mb=layout.bucket_mb, tp=layout.tp, pp=layout.pp,
            microbatches=layout.microbatches,
        )
        return GraphCompiler(options=options, cache=cache).compile(
            graphs[microbatch]
        )

    return compile_


def _live_trace_events() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is TraceEvent)


def test_grid_covers_pipelines_and_tensor_parallel():
    labels = {layout.describe() for _, layout in GRID}
    assert "tp4·pp4·dp2(m8)" in labels
    assert "tp1·pp4·dp2(m8)" in labels
    assert "tp4·pp1·dp2" in labels


@pytest.mark.parametrize(
    "cards,layout", GRID, ids=[f"{c}-{lay.describe()}" for c, lay in GRID]
)
def test_vector_trace_equals_scalar(cards, layout, compile_layout):
    schedule = compile_layout(layout)
    vector = HLS1Runtime(_system(cards)).execute(schedule, engine="vector")
    scalar = HLS1Runtime(_system(cards)).execute(schedule, engine="scalar")

    # answered from the parts, before anything is built
    assert len(vector.timeline) == len(scalar.timeline.events)
    assert vector.timeline.total_time_us == scalar.timeline.total_time_us

    events = vector.timeline.events
    assert events == scalar.timeline.events
    assert [dataclasses.astuple(ev) for ev in events] == [
        dataclasses.astuple(ev) for ev in scalar.timeline.events
    ]
    assert vector.exposed_comm_us == scalar.exposed_comm_us
    assert vector.contention_stall_us == scalar.contention_stall_us

    stage_cards = cards // layout.pp
    assert sorted({ev.card for ev in events}) == list(range(cards))
    # stage-major: stage s's events sit on cards [s * stage_cards, ...)
    stages = [ev.card // stage_cards for ev in events]
    assert stages == sorted(stages)
    # each stage's first card carries every stall; its other cards'
    # collective copies carry none
    nic = [ev for ev in events if ev.engine is EngineKind.NIC]
    assert nic
    assert all(
        ev.contention_stall_us == 0.0
        for ev in nic if ev.card % stage_cards
    )
    # every card of a stage replays the stage's first card exactly
    timing: dict[int, list] = {}
    for ev in events:
        timing.setdefault(ev.card, []).append(
            (ev.name, ev.start_us, ev.dur_us)
        )
    for card, card_timing in timing.items():
        assert card_timing == timing[card - card % stage_cards]

    # exposed comm is card 0's, or the worst stage's first card under
    # a pipeline; computed on the materialized list it must agree
    built = Timeline(list(events))
    assert vector.exposed_comm_us == max(
        built.exposed_comm_us(card=stage * stage_cards)
        for stage in range(layout.pp)
    )
    if layout.pp == 1:
        assert vector.exposed_comm_us == built.exposed_comm_us(card=0)


def test_collective_stall_stays_on_card_zero(compile_layout):
    layout = next(lay for c, lay in GRID if c == 64 and lay.pp == 1)
    result = HLS1Runtime(_system(64)).execute(compile_layout(layout))
    events = result.timeline.events
    stalled = [
        ev for ev in events
        if ev.engine is EngineKind.NIC and ev.contention_stall_us > 0
    ]
    assert stalled
    assert {ev.card for ev in stalled} == {0}


def test_no_copy_is_built_until_events_are_read(compile_layout):
    layout = next(lay for c, lay in GRID if c == 8 and lay.tp == 1)
    schedule = compile_layout(layout)
    HLS1Runtime(_system(8)).execute(schedule)  # warm the prep cache
    before = _live_trace_events()
    result = HLS1Runtime(_system(8)).execute(schedule)
    # only card 0's events exist: one per scheduled op
    assert _live_trace_events() - before == len(schedule.ops)
    assert result.exposed_comm_us > 0
    assert len(result.timeline) == 8 * len(schedule.ops)
    assert _live_trace_events() - before == len(schedule.ops)
    events = result.timeline.events
    assert len(events) == 8 * len(schedule.ops)
    assert _live_trace_events() - before == len(events)
    # built once: later reads return the cached list
    assert result.timeline.events is events


def test_add_appends_after_the_built_events(compile_layout):
    layout = next(lay for c, lay in GRID if c == 32 and lay.pp == 4)
    result = HLS1Runtime(_system(32)).execute(compile_layout(layout))
    timeline = result.timeline
    extra = TraceEvent("marker", EngineKind.HOST, 0.0, 1.0, card=31)
    timeline.add(extra)
    events = timeline.events
    assert events[-1] is extra
    reference = HLS1Runtime(_system(32)).execute(
        compile_layout(layout), engine="scalar"
    )
    assert events[:-1] == reference.timeline.events
    assert len(timeline) == len(reference.timeline.events) + 1


def test_on_cards_offsets_eager_pieces():
    a = TraceEvent("a", EngineKind.NIC, 0.0, 2.0, contention_stall_us=1.5)
    b = TraceEvent("b", EngineKind.TPC, 1.0, 1.0, card=1)
    lazy = Timeline.replicated([a], 2, (0,))
    combined = Timeline.on_cards([(Timeline([a, b]), 0), (lazy, 2)])
    assert len(combined) == 4
    assert [
        (ev.name, ev.card, ev.contention_stall_us)
        for ev in combined.events
    ] == [("a", 0, 1.5), ("b", 1, 0.0), ("a", 2, 1.5), ("a", 3, 0.0)]
    assert combined.events[0] is a
