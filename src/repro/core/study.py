"""The full benchmarking study: every table, figure and extension.

:data:`EXPERIMENTS` is the one table of experiments: the CLI's
subcommands, ``profile-self`` and the study all read it.
``run_full_study()`` reproduces the paper end to end and returns a
:class:`StudyReport` whose ``render()`` is the EXPERIMENTS.md payload:
per-experiment measurements, the paper's reference values, and the
pass/miss state of every qualitative shape check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .ablations import (
    run_chunked_attention_study,
    run_fusion_ablation,
    run_hbm_contention_ablation,
    run_pass_toggle_ablation,
    run_pipelined_attention_study,
    run_reorder_ablation,
    run_tpc_core_sweep,
)
from .activation_study import run_activation_study
from .attention_study import run_attention_study
from .auto_layout import run_parallel_study
from .backend_study import run_backend_ablation
from .decode_study import run_decode_study
from .e2e_llm import run_e2e
from .energy_study import run_energy_study
from .generations import run_generation_comparison
from .kernel_study import run_kernel_pack_ablation
from .memory_study import run_memory_ablation
from .mme_vs_tpc import run_mme_vs_tpc
from .opmapping import run_op_mapping
from .overlap_study import run_overlap_scheduler_ablation
from .reference import ShapeCheck
from .scaling_study import run_comm_overlap_ablation, run_scaling_study
from .seq_sweep import run_seq_sweep
from .serving import run_serving_ablation


@dataclass
class StudyReport:
    """Everything the study produced."""

    sections: list[tuple[str, str]] = field(default_factory=list)
    checks: list[ShapeCheck] = field(default_factory=list)

    def add(self, title: str, body: str, checks: list[ShapeCheck]) -> None:
        """Append one experiment's rendering + checks."""
        self.sections.append((title, body))
        self.checks.extend(checks)

    @property
    def num_passed(self) -> int:
        """Shape checks that hold."""
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        """Whether every shape check holds."""
        return self.num_passed == len(self.checks)

    def failed_checks(self) -> list[ShapeCheck]:
        """Checks that missed the paper's band."""
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        """Full human-readable report."""
        parts = [
            "Reproduction study report",
            f"shape checks: {self.num_passed}/{len(self.checks)} passed",
            "",
        ]
        for title, body in self.sections:
            parts.append(f"{'=' * 8} {title} {'=' * 8}")
            parts.append(body)
            parts.append("")
        parts.append("=" * 8 + " shape-check summary " + "=" * 8)
        parts.extend(str(c) for c in self.checks)
        return "\n".join(parts)


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment: a CLI subcommand and a study section.

    ``run(jobs, cards)`` returns a result exposing ``render()`` and
    ``checks()``. ``jobs`` is the process-pool width for the multi-card
    simulations; ``cards`` caps the HLS-1 population of the multi-card
    experiments (``None`` keeps each experiment's default sweep).
    """

    name: str
    title: str
    run: Callable[[int, int | None], Any]
    #: one of the paper's own artifacts (kept by ``--no-extensions``)
    paper: bool = False
    #: a section of :func:`run_full_study` (the CLI runs every entry)
    in_study: bool = True


#: every experiment, in the study's section order
EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("table1", "Table 1: operation-engine mapping",
               lambda jobs, cards: run_op_mapping(), paper=True),
    Experiment("table2", "Table 2: MME vs TPC batched matmul",
               lambda jobs, cards: run_mme_vs_tpc(), paper=True),
    Experiment("fig4-6", "Figures 4-6: attention-variant layer profiles",
               lambda jobs, cards: run_attention_study(), paper=True),
    Experiment("fig7", "Figure 7: activation functions",
               lambda jobs, cards: run_activation_study(), paper=True),
    Experiment("seq-sweep", "Long-sequence sweep (challenge #3)",
               lambda jobs, cards: run_seq_sweep(), paper=True),
    Experiment("fig8", "Figure 8: GPT end-to-end training step",
               lambda jobs, cards: run_e2e("gpt"), paper=True),
    Experiment("fig9", "Figure 9: BERT end-to-end training step",
               lambda jobs, cards: run_e2e("bert"), paper=True),
    Experiment("ablation-reorder", "A1: issue-order ablation",
               lambda jobs, cards: run_reorder_ablation()),
    Experiment("ablation-fusion", "A2: elementwise-fusion ablation",
               lambda jobs, cards: run_fusion_ablation()),
    Experiment("ablation-tpc-cores", "A3: TPC core-count sweep",
               lambda jobs, cards: run_tpc_core_sweep()),
    Experiment("scaling", "A4: HLS-1 multi-card scaling extension",
               lambda jobs, cards: run_scaling_study(
                   card_counts=tuple(
                       p for p in (1, 2, 4, 8) if p <= (cards or 8)
                   ),
                   jobs=jobs,
               )),
    Experiment("chunked", "A5: chunked-attention extension",
               lambda jobs, cards: run_chunked_attention_study()),
    Experiment("pipelined", "A6: pipelined exact-attention extension",
               lambda jobs, cards: run_pipelined_attention_study()),
    Experiment("gaudi2", "A7: Gaudi2 what-if extension",
               lambda jobs, cards: run_generation_comparison()),
    Experiment("energy", "A8: energy extension",
               lambda jobs, cards: run_energy_study()),
    Experiment("decode", "A9: KV-cached decode extension",
               lambda jobs, cards: run_decode_study()),
    Experiment("ablation-passes", "A10: per-pass toggle ablation",
               lambda jobs, cards: run_pass_toggle_ablation(),
               in_study=False),
    Experiment("ablation-hbm", "A11: HBM contention ablation",
               lambda jobs, cards: run_hbm_contention_ablation()),
    Experiment("ablation-comm", "A12: communication-overlap ablation",
               lambda jobs, cards: run_comm_overlap_ablation(
                   num_cards=cards or 8, jobs=jobs
               )),
    Experiment("ablation-overlap", "A13: overlap scheduler ablation",
               lambda jobs, cards: run_overlap_scheduler_ablation()),
    Experiment("ablation-memory", "A14: memory planning ablation",
               lambda jobs, cards: run_memory_ablation()),
    Experiment("ablation-serving", "A15: static vs continuous batching",
               lambda jobs, cards: run_serving_ablation()),
    Experiment("ablation-parallel", "A16: multi-box parallel layouts",
               lambda jobs, cards: run_parallel_study()),
    Experiment("ablation-kernels", "A17: attention kernel pack",
               lambda jobs, cards: run_kernel_pack_ablation()),
    Experiment("ablation-backends",
               "A18: cross-backend comparison (Gaudi vs WSE)",
               lambda jobs, cards: run_backend_ablation()),
)


def run_full_study(
    *, include_extensions: bool = True, jobs: int = 1
) -> StudyReport:
    """Run every in-study :data:`EXPERIMENTS` entry, in table order.

    ``include_extensions=False`` keeps only the paper's own artifacts.
    ``jobs > 1`` parallelizes the multi-card simulations (A4/A12)
    across a process pool; every measurement is identical to the
    serial run.
    """
    report = StudyReport()
    for experiment in EXPERIMENTS:
        if experiment.in_study and (include_extensions or experiment.paper):
            result = experiment.run(jobs, None)
            report.add(experiment.title, result.render(), result.checks())

    from ..synapse import recipe_cache_stats

    cache = recipe_cache_stats()
    report.sections.append((
        "recipe cache",
        f"hits: {cache['hits']}  misses: {cache['misses']}  "
        f"disk hits: {cache['disk_hits']}",
    ))

    return report
