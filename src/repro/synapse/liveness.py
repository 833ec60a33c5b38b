"""Shared liveness analysis over a scheduled op list.

One implementation of the HBM-footprint computation, used by both the
compiler's :class:`~repro.synapse.passes.memory.MemoryPlanningPass`
(to plan and enforce the budget) and the post-execution
:func:`~repro.synapse.memtrace.memory_timeline` view (to reconstruct
the occupancy curve) — the two must agree on every byte, and tests
cross-check them on the paper-scale graphs.

Liveness is *interval based*: a value id may be written more than once
in a planned schedule (a ``spill_in`` restores it, a recompute clone
re-materializes it), so each vid owns a list of live intervals over
schedule positions. For the common single-writer schedule this reduces
exactly to the historical "alloc at the write, free after the last
read" rule:

* a value read at least once frees right after its last read in the
  current write window;
* a terminal value (never read after its final write) stays live to
  the end of the run — it is an output;
* a *dropped* value (re-written later with no read in between, the
  checkpointing case) frees immediately at its write;
* graph inputs (params, consts, step inputs) are persistent;
* values internal to fused elementwise chains never reach HBM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph
from .schedule import ScheduledOp


@dataclass(frozen=True)
class LiveInterval:
    """One live span of a value: write position to free position.

    ``end`` is the schedule position *after which* the value frees
    (its last read in the window); ``None`` means the value never
    frees — it is live to the end of the run.
    """

    vid: int
    start: int
    end: int | None

    def covers(self, pos: int) -> bool:
        """Whether the value is live at schedule position ``pos``."""
        return self.start <= pos and (self.end is None or pos <= self.end)


@dataclass
class LivenessResult:
    """Footprint of one scheduled op list, by schedule position."""

    persistent_bytes: int
    peak_bytes: int
    #: schedule position at which the peak is sampled (-1: the peak is
    #: the persistent set alone, before any op runs)
    peak_index: int
    #: per-vid live intervals, in increasing ``start`` order
    intervals: dict[int, list[LiveInterval]] = field(default_factory=dict)
    #: live bytes sampled right after each op's writes land
    live_at: list[int] = field(default_factory=list)
    #: position -> vids allocated there (counted before the sample)
    allocs_at: dict[int, list[int]] = field(default_factory=dict)
    #: position -> vids freed there (released after the sample)
    frees_at: dict[int, list[int]] = field(default_factory=dict)
    #: vid -> position after which it finally frees (the last
    #: interval's end; vids that never free are absent) — the compact
    #: map :class:`~repro.synapse.schedule.MemoryPlan` carries
    free_after: dict[int, int] = field(default_factory=dict)
    #: values internal to fused chains (never materialized in HBM)
    fused_internal: set[int] = field(default_factory=set)


def fused_internal_values(graph: Graph, ops: list[ScheduledOp]) -> set[int]:
    """Values produced and consumed inside one fused chain.

    All but the final output of a multi-node op stay in TPC-local
    memory and never occupy HBM.
    """
    node_by_id = {n.nid: n for n in graph.nodes}
    internal: set[int] = set()
    for op in ops:
        if len(op.node_ids) > 1:
            outs = [node_by_id[nid].output for nid in op.node_ids]
            internal.update(outs[:-1])
    return internal


def compute_liveness(graph: Graph, ops: list[ScheduledOp]) -> LivenessResult:
    """Interval liveness + peak walk over ``ops`` in list order."""
    persistent = sum(v.nbytes for v in graph.graph_inputs())
    graph_input_ids = {v.vid for v in graph.graph_inputs()}
    internal = fused_internal_values(graph, ops)

    writes_of: dict[int, list[int]] = {}
    reads_of: dict[int, list[int]] = {}
    for pos, op in enumerate(ops):
        for vid in op.reads:
            reads_of.setdefault(vid, []).append(pos)
        for vid in op.writes:
            writes_of.setdefault(vid, []).append(pos)

    result = LivenessResult(
        persistent_bytes=persistent, peak_bytes=persistent, peak_index=-1,
        fused_internal=internal,
    )
    for vid, wpos in writes_of.items():
        if vid in graph_input_ids or vid in internal:
            continue
        rpos = sorted(reads_of.get(vid, []))
        spans: list[LiveInterval] = []
        for i, w in enumerate(wpos):
            nxt = wpos[i + 1] if i + 1 < len(wpos) else None
            window = [r for r in rpos if r >= w and (nxt is None or r < nxt)]
            if window:
                end: int | None = max(window)
            elif nxt is None:
                end = None  # terminal value: an output, never freed
            else:
                end = w  # dropped: re-written later, frees immediately
            spans.append(LiveInterval(vid, w, end))
        result.intervals[vid] = spans
        for span in spans:
            result.allocs_at.setdefault(span.start, []).append(vid)
            if span.end is not None:
                result.frees_at.setdefault(span.end, []).append(vid)
        if spans[-1].end is not None:
            result.free_after[vid] = spans[-1].end

    live = persistent
    peak = persistent
    peak_index = -1
    for pos in range(len(ops)):
        for vid in result.allocs_at.get(pos, ()):
            live += graph.value(vid).nbytes
        if live > peak:
            peak = live
            peak_index = pos
        result.live_at.append(live)
        for vid in result.frees_at.get(pos, ()):
            live -= graph.value(vid).nbytes
    result.peak_bytes = peak
    result.peak_index = peak_index
    return result
