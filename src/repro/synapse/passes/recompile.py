"""RecompileInjectionPass: host stalls for poorly supported ops.

The paper's GLU finding (§3.3): SynapseAI meets an op it supports
badly and performs "extra compilation during the execution" — a host
event that stalls everything behind it (Fig 7's GLU bubble). The pass
marks the first occurrence of each poorly supported op kind: SynapseAI
compiles the kernel once, so later occurrences replay it for free.
Emission materializes the HOST ops, each charged
:data:`RECOMPILE_PENALTY_US`; disabling the pass models a runtime with
full kernel coverage.
"""

from __future__ import annotations

from .base import CompilerPass
from .state import CompilationState

#: host stall of one recompilation event (us) — the §3.3 GLU bubble,
#: calibrated in docs/CALIBRATION.md
RECOMPILE_PENALTY_US = 2500.0


class RecompileInjectionPass(CompilerPass):
    """Mark pending ops that trigger a host recompilation stall."""

    name = "recompile_injection"
    option_flag = "inject_recompiles"
    # which ops are poorly supported is an op-registry fact; the
    # penalty magnitude (RECOMPILE_PENALTY_US) is charged at emission
    signature_deps = ("structure",)
    incremental = True

    def record(self, state: CompilationState) -> dict:
        return {"marked": [
            i for i, p in enumerate(state.pending) if p.needs_recompile
        ]}

    def replay(self, state: CompilationState, payload: dict) -> dict:
        assert state.pending is not None, "grouping must run before recompile"
        for i in payload["marked"]:
            state.pending[i].needs_recompile = True
        return {"transforms": len(payload["marked"])}

    def run(self, state: CompilationState) -> dict:
        """Flag the first pending op of each unsupported op kind."""
        assert state.pending is not None, "grouping must run before recompile"
        recompiled: set[str] = set()
        marked = 0
        for pending in state.pending:
            first = pending.nodes[0]
            if state.opdef(first.op).supported or first.op in recompiled:
                continue
            recompiled.add(first.op)
            pending.needs_recompile = True
            marked += 1
        return {"transforms": marked}
