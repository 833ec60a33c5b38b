"""The benchmark's three workloads.

Each workload is a ``setup(seed)`` that builds the pass's inputs and a
``run_pass(state, tracer)`` that does the work of one fresh ``repro``
command and returns its simulated outputs as ``{operation: output}``.
Every pass starts by dropping the process-wide pass cache, and every
compiler inside it starts with a fresh ``RecipeCache`` and no disk
directory, so pass N does the same work as pass 1 apart from
interpreter-level warm-up.

An operation's output is plain JSON data (renderings, shape-check
verdicts, priced step times, serving metrics) so it can be compared
exactly against ``reference.json``. The ``figures`` entry condenses a
pass into the simulated figures the run report prints; it is checked
against the reference like every other entry.
"""

from __future__ import annotations

from repro.core import (
    run_activation_study,
    run_attention_study,
    run_e2e,
    run_mme_vs_tpc,
    run_op_mapping,
    run_parallel_study,
    run_seq_sweep,
)
from repro.core import reference as paper
from repro.core.serving import ServingSimulator, generate_requests
from repro.synapse.passes.incremental import reset_pass_cache
from repro.synapse.serving import ServingRuntime
from tracing import SERVE_POLICIES

#: the serve trace seed is ``--seed`` modulo this, so every seed the
#: benchmark can be given has a stored reference to check against
SERVE_TRACE_SEEDS = 32

#: the A15 reference scenario (``BENCH_serving.json``)
SERVE_REQUESTS = 10_000
SERVE_RATE_PER_S = 20.0
SERVE_MAX_BATCH = 8

#: the paper's artifacts, in ``repro <name>`` order
PAPER_ARTIFACTS = {
    "table1": run_op_mapping,
    "table2": run_mme_vs_tpc,
    "fig4-6": run_attention_study,
    "fig7": run_activation_study,
    "fig8": lambda: run_e2e("gpt"),
    "fig9": lambda: run_e2e("bert"),
    "seq-sweep": run_seq_sweep,
}


def _analyse(result, tracer) -> dict:
    """``render()`` + ``checks()``, as ``repro <name>`` prints them."""
    with tracer.span("analysis"):
        text = result.render()
        checks = [
            [c.name, bool(c.passed), c.measured, c.expected]
            for c in result.checks()
        ]
    return {"render": text, "checks": checks}


def no_inputs(seed: int) -> dict:
    """Set-up of the workloads that take no random input."""
    return {}


# -- paper-cold ---------------------------------------------------------------


def paper_pass(state: dict, tracer) -> dict:
    outputs = {}
    results = {}
    for name, run in PAPER_ARTIFACTS.items():
        try:
            results[name] = run()
            outputs[name] = _analyse(results[name], tracer)
        except Exception as exc:  # an operation that raises counts as failed
            outputs[name] = {"error": repr(exc)}
    outputs["figures"] = _paper_figures(results)
    return outputs


def _paper_figures(results: dict) -> dict:
    """Simulated figures of one pass, with the error against the paper.

    ``paper_err_pct`` is the mean absolute relative error over Table 2
    MME/TPC TFLOPS, the Fig 5/6 totals and the Fig 7 totals. Table 2 is
    compared in TFLOPS because its published times do not follow from
    its own TFLOPS and FLOP counts.
    """
    if len(results) < len(PAPER_ARTIFACTS):
        return {}
    points = []
    for row, ref in zip(results["table2"].rows, paper.TABLE2):
        points.append((f"table2.{ref.size}.f_mme", row.f_mme_tflops,
                       ref.f_mme_tflops))
        points.append((f"table2.{ref.size}.f_tpc", row.f_tpc_tflops,
                       ref.f_tpc_tflops))
    attn = results["fig4-6"]
    points.append(("fig5.linear_ms", attn.linear.total_time_ms,
                   paper.FIG5_LINEAR_TOTAL_MS))
    points.append(("fig6.performer_ms", attn.performer.total_time_ms,
                   paper.FIG6_PERFORMER_TOTAL_MS))
    for act, ref_ms in paper.FIG7_ACTIVATION_MS.items():
        points.append((f"fig7.{act}_ms",
                       results["fig7"].profiles[act].total_time_ms, ref_ms))
    err = [abs(sim - ref) / ref for _, sim, ref in points]

    sweep = results["seq-sweep"]
    step_ms = (
        [r.t_mme_ms + r.t_tpc_ms for r in results["table2"].rows]
        + [p.total_time_ms for p in (attn.softmax, attn.linear,
                                     attn.performer)]
        + [p.total_time_ms for p in results["fig7"].profiles.values()]
        + [results[f].profile.total_time_ms for f in ("fig8", "fig9")]
        + [p.total_time_ms for p in sweep.softmax + sweep.linear]
    )
    return {
        "paper_err_pct": 100.0 * sum(err) / len(err),
        "sim_s": sum(step_ms) / 1e3,
        "points": {name: [sim, ref] for name, sim, ref in points},
    }


# -- layout-search ------------------------------------------------------------


def layout_pass(state: dict, tracer) -> dict:
    study = run_parallel_study()
    outputs = {}
    for (model, cards), pick in study.picks.items():
        outputs[f"{model}.{cards}"] = {
            "pick": pick,
            "priced": [
                [r.layout, r.feasible, r.step_time_ms, r.samples_per_s,
                 r.picked]
                for r in study.rows
                if r.model_name == model and r.num_cards == cards
            ],
        }
    outputs["study"] = _analyse(study, tracer)
    outputs["figures"] = {
        "sim_s": sum(r.step_time_ms for r in study.rows if r.feasible) / 1e3,
    }
    return outputs


# -- serve --------------------------------------------------------------------


def serve_setup(seed: int) -> dict:
    trace_seed = seed % SERVE_TRACE_SEEDS
    return {
        "trace_seed": trace_seed,
        "trace": generate_requests(
            SERVE_REQUESTS, SERVE_RATE_PER_S, seed=trace_seed
        ),
    }


def serve_pass(state: dict, tracer) -> dict:
    sim = ServingSimulator(ServingRuntime(), max_batch=SERVE_MAX_BATCH)
    outputs = {}
    for policy in SERVE_POLICIES:
        try:
            result = sim.run(state["trace"], policy)
            with tracer.span("analysis"):
                outputs[policy] = result.metrics()
        except Exception as exc:  # an operation that raises counts as failed
            outputs[policy] = {"error": repr(exc)}
    cont = outputs["continuous"]
    outputs["figures"] = {
        "trace_seed": state["trace_seed"],
        "sim_s": sum(outputs[p].get("makespan_s", 0.0)
                     for p in SERVE_POLICIES),
        "sim_tokens_per_s": cont.get("tokens_per_s"),
        "sim_ttft_p99_ms": cont.get("ttft_p99_ms"),
    }
    return outputs


# -- registry -----------------------------------------------------------------

WORKLOADS = {
    "paper-cold": (no_inputs, paper_pass),
    "layout-search": (no_inputs, layout_pass),
    "serve": (serve_setup, serve_pass),
}


def run_pass(name: str, state: dict, tracer) -> dict:
    """One pass of workload ``name``, from a cold pass cache."""
    reset_pass_cache()
    return WORKLOADS[name][1](state, tracer)


def reference_key(name: str, state: dict) -> str:
    """Which stored reference a workload's outputs are checked against."""
    if name == "serve":
        return f"serve.seed{state['trace_seed']}"
    return name
