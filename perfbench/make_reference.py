"""Regenerate ``perfbench/reference.json`` from the current simulator.

    python3 perfbench/make_reference.py

The reference holds one pass's simulated outputs per workload (every
serve trace seed included). Regenerate it only for a change that is
meant to move simulated outputs; a change that only speeds the
simulator up must leave the file byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)
from tracing import NullTracer  # noqa: E402


def main() -> int:
    reference = {}
    for name, (setup, _) in workloads.WORKLOADS.items():
        seeds = range(workloads.SERVE_TRACE_SEEDS) if name == "serve" else [0]
        for seed in seeds:
            state = setup(seed)
            outputs = workloads.run_pass(name, state, NullTracer())
            key = workloads.reference_key(name, state)
            reference[key] = json.loads(json.dumps(outputs))
            print(f"{key}: {len(outputs)} operations", file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
