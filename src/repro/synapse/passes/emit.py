"""EmitSchedulePass: assemble pending ops into the final Schedule.

The always-on assembly stage — the engine-mapping step made concrete.
Walks the pending list in program order and materializes, per pending
op: its host recompilation event (if RecompileInjectionPass marked
one), the DMA ops its staged reads require (deduplicated per
value/engine pair), and the compute op itself with dependency edges
back to producers. The emitted order is exactly what the in-order
runtime issues per engine — program order preserved, as §3.3 observes
SynapseAI doing.
"""

from __future__ import annotations

from ...hw.costmodel import EngineKind, OpClass, WorkItem
from ..schedule import ScheduledOp
from .base import CompilerPass
from .recompile import RECOMPILE_PENALTY_US
from .state import CompilationState


class EmitSchedulePass(CompilerPass):
    """Materialize ScheduledOps (compute, DMA, host) from pending ops."""

    name = "emit"

    def run(self, state: CompilationState) -> dict:
        """Build ``state.ops`` and the headline compiler stats."""
        assert state.pending is not None, "grouping must run before emission"
        graph = state.graph
        ops: list[ScheduledOp] = []
        producer_of: dict[int, int] = {}  # value id -> schedule index
        dma_cache: dict[tuple[int, EngineKind], int] = {}
        n_dma = 0
        n_recompile = 0

        for pending in state.pending:
            first = pending.nodes[0]
            deps: list[int] = []

            if pending.needs_recompile:
                host = ScheduledOp(
                    index=len(ops),
                    label=f"recompile:{first.op}",
                    engine=state.backend.host_engine,
                    items=(WorkItem(
                        f"recompile:{first.op}", OpClass.HOST,
                        fixed_time_us=RECOMPILE_PENALTY_US,
                    ),),
                    src=first.src, scope=first.scope,
                )
                ops.append(host)
                deps.append(host.index)
                n_recompile += 1

            for vid in sorted(pending.reads):
                prod_idx = producer_of.get(vid)
                if prod_idx is None:
                    continue  # graph input: already resident in HBM
                if vid not in pending.dma_reads:
                    deps.append(prod_idx)
                    continue
                key = (vid, pending.engine)
                if key not in dma_cache:
                    value = graph.value(vid)
                    dma = ScheduledOp(
                        index=len(ops),
                        label=f"dma:{value.name or vid}",
                        engine=state.backend.dma_engine,
                        items=(WorkItem(
                            f"dma:{vid}", OpClass.DATA_MOVE,
                            bytes_read=value.nbytes, pipelined=True,
                        ),),
                        deps=(prod_idx,),
                        src="dma", scope=first.scope,
                        reads=(vid,),
                    )
                    ops.append(dma)
                    dma_cache[key] = dma.index
                    n_dma += 1
                deps.append(dma_cache[key])

            sched = ScheduledOp(
                index=len(ops),
                label=pending.nodes[-1].label()
                if len(pending.nodes) == 1
                else f"fused[{'+'.join(n.op for n in pending.nodes)}]",
                engine=pending.engine,
                items=tuple(pending.items),
                deps=tuple(sorted(set(deps))),
                src=first.src,
                scope=first.scope,
                reads=tuple(sorted(pending.reads)),
                writes=(pending.output_vid,),
                node_ids=tuple(n.nid for n in pending.nodes),
                external_read_bytes=pending.external_read_bytes,
            )
            ops.append(sched)
            producer_of[pending.output_vid] = sched.index

        state.ops = ops
        state.stats.update({
            "nodes": len(graph.nodes),
            "scheduled_ops": len(ops),
            "fused_chains": sum(1 for o in ops if o.is_fused),
            "dma_transfers": n_dma,
            "recompilations": n_recompile,
        })
        return {"transforms": len(ops)}
