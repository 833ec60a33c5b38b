"""LowerCompositesPass: expand composite ops into TPC primitives.

Wraps :func:`repro.synapse.lowering.lower_graph` as a pipeline stage.
Softmax becoming max/sub/exp/sum/div (all ``src="softmax"``) is what
lets the profiler attribute Fig 4's ">80% of TPC busy time" back to
the composite. When the pass is disabled, composite ops are a compile
error — nothing downstream knows how to schedule them.

Graphs that contain no composites skip the rewrite entirely (the seed
compiler copied the whole graph regardless), which is one of the wins
of making the stage explicit.
"""

from __future__ import annotations

from ...util.errors import CompileError
from ..lowering import lower_graph
from .base import CompilerPass
from .state import CompilationState


class LowerCompositesPass(CompilerPass):
    """Expand composite ops (softmax, log_softmax) into primitives."""

    name = "lower_composites"
    option_flag = "lower_composites"
    # the rewrite embeds concrete shapes in the expanded primitives,
    # so the cache key covers the full graph; reuse kicks in when only
    # downstream options change (policy/bucket sweep points), sharing
    # the lowered graph the way recipe-cache hits share schedules
    signature_deps = ("structure", "geometry")
    incremental = True
    #: composites found by the most recent ``run`` (record's stats)
    _last_composites = 0

    def record(self, state: CompilationState) -> dict:
        return {
            "graph": state.graph if self._last_composites else None,
            "composites": self._last_composites,
        }

    def replay(self, state: CompilationState, payload: dict) -> dict:
        if payload["graph"] is not None:
            state.graph = payload["graph"]
        return {"transforms": payload["composites"]}

    @staticmethod
    def _composites(state: CompilationState) -> list[str]:
        return [
            node.op for node in state.graph.nodes
            if state.opdef(node.op).composite
        ]

    def run(self, state: CompilationState) -> dict:
        """Rewrite the graph if it holds composites; no-op otherwise."""
        composites = self._composites(state)
        if composites:
            state.graph = lower_graph(state.graph)
        self._last_composites = len(composites)
        return {"transforms": len(composites)}

    def run_disabled(self, state: CompilationState) -> dict:
        """With lowering off, any composite op is unschedulable."""
        composites = self._composites(state)
        if composites:
            raise CompileError(
                f"composite op {composites[0]!r} present but lowering "
                "is disabled"
            )
        return {}
