"""Compiled-schedule data structures.

The GraphCompiler turns a (lowered) graph into a :class:`Schedule`: a
program-ordered tuple of :class:`ScheduledOp` — compute ops tagged with
their engine and :class:`~repro.hw.costmodel.WorkItem`, interleaved
with the DMA staging transfers and host recompilation events the
compiler inserted. The runtime only sees this structure.

Compiled schedules are immutable at every depth: ops are frozen with
tuple fields, ``Schedule.ops`` is a tuple, and the memory plan's
``free_after`` and the ``stats`` tree are read-only mappings (lists in
them become tuples). That is what lets the recipe cache hand every hit
the same object, and lets the runtime attach derived state (its cost
prep, the pipeline's stage sub-schedules) to a schedule once and reuse
it for as long as the schedule lives. Passes that edit ops build new
ones with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from ..hw.costmodel import EngineKind, WorkItem
from .graph import Graph


class FrozenDict(dict):
    """A read-only ``dict``: compares, iterates and JSON-encodes like a
    plain one, but every mutator raises ``TypeError``."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        """Refuse the mutation: compiled schedule data is read-only."""
        raise TypeError("compiled schedule data is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # rebuild from a plain dict: pickle and copy would otherwise
        # refill the new instance through the blocked ``__setitem__``
        return (FrozenDict, (dict(self),))


def _freeze(value):
    """A read-only deep copy: dicts become :class:`FrozenDict`, lists
    and tuples become tuples, everything else is kept as is."""
    if isinstance(value, FrozenDict):
        return value
    if isinstance(value, dict):
        return FrozenDict({k: _freeze(v) for k, v in value.items()})
    if type(value) in (list, tuple):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True, slots=True)
class ScheduledOp:
    """One schedulable unit (possibly a fused elementwise chain)."""

    index: int
    label: str
    engine: EngineKind
    #: the member work items; length > 1 only for fused chains
    items: tuple[WorkItem, ...]
    #: indices of ScheduledOps that must complete first
    deps: tuple[int, ...] = ()
    src: str = ""
    scope: str = ""
    #: value ids this op reads / produces (memory planning); DMA and
    #: host ops reference the staged value via ``reads``
    reads: tuple[int, ...] = ()
    writes: tuple[int, ...] = ()
    #: node ids of the graph nodes folded into this op
    node_ids: tuple[int, ...] = ()
    #: HBM bytes read from outside the op across *all* members — for a
    #: fused chain this includes external inputs feeding middle members,
    #: which the first member's ``bytes_read`` alone misses. ``None``
    #: for ops built outside the compiler (runtime falls back to the
    #: first member's declared reads).
    external_read_bytes: int | None = None

    @property
    def is_fused(self) -> bool:
        """Whether this op is a fused elementwise chain."""
        return len(self.items) > 1

    @property
    def flops(self) -> float:
        """Total arithmetic work."""
        return sum(item.flops for item in self.items)

    def renumbered(self, index: int, deps: tuple[int, ...]) -> "ScheduledOp":
        """This op at schedule position ``index`` waiting on ``deps``;
        the op itself when neither changes (passes that insert ops
        renumber every op after the insertion point, most of the rest
        stay put)."""
        if index == self.index and deps == self.deps:
            return self
        return replace(self, index=index, deps=deps)


@dataclass(frozen=True)
class MemoryPlan:
    """Liveness result over the schedule order."""

    #: bytes of persistent values (params + consts), live for the run
    persistent_bytes: int
    #: peak live bytes including activations
    peak_bytes: int
    #: schedule index after which each value id can be freed
    free_after: Mapping[int, int]

    def __post_init__(self) -> None:
        if not isinstance(self.free_after, FrozenDict):
            object.__setattr__(
                self, "free_after", FrozenDict(self.free_after)
            )

    def fits(self, capacity_bytes: int) -> bool:
        """Whether the plan fits the given HBM capacity."""
        return self.peak_bytes <= capacity_bytes


@dataclass(frozen=True)
class Schedule:
    """The compiler's output: ops in program order plus bookkeeping.

    Construction freezes ``ops`` to a tuple and ``stats`` to a
    read-only tree (dicts become :class:`FrozenDict`, lists become
    tuples). Derived runtime state is cached in the instance
    ``__dict__``, outside the dataclass fields, so it never takes part
    in equality or serialization.
    """

    graph: Graph
    ops: tuple[ScheduledOp, ...]
    memory: MemoryPlan
    #: compiler statistics for reports
    stats: Mapping = field(default_factory=FrozenDict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "stats", _freeze(self.stats))

    def engine_queue(self, engine: EngineKind) -> list[ScheduledOp]:
        """This engine's ops in program (issue) order."""
        return [op for op in self.ops if op.engine is engine]

    def total_flops(self) -> float:
        """Arithmetic work across all ops."""
        return sum(op.flops for op in self.ops)

    def __len__(self) -> int:
        return len(self.ops)
