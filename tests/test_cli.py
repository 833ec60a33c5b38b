"""Tests for the command-line interface."""

import pytest

import repro.cli as cli
from repro.cli import EXPERIMENTS, build_parser, main
from repro.core import run_full_study
from repro.synapse import (
    CompilerOptions,
    default_compiler_options,
    default_recipe_cache_dir,
)


@pytest.fixture(autouse=True)
def restore_process_defaults():
    """main() must leave the process-wide defaults as it found them."""
    before = default_compiler_options(), default_recipe_cache_dir()
    yield
    assert (default_compiler_options(), default_recipe_cache_dir()) == before


class TestParser:
    def test_all_experiments_registered(self):
        parser = build_parser()
        for experiment in EXPERIMENTS:
            args = parser.parse_args([experiment.name])
            assert args.command == experiment.name

    def test_every_experiment_is_a_profile_self_choice(self):
        parser = build_parser()
        for experiment in EXPERIMENTS:
            args = parser.parse_args(["profile-self", experiment.name])
            assert args.scenario == experiment.name

    @pytest.mark.parametrize("argv", [
        ["--cards", "3", "scaling"],
        ["--cards", "16", "scaling"],
        ["--cards", "0", "ablation-comm"],
        ["--jobs", "-3", "scaling"],
        ["--jobs", "0", "study"],
        ["--bucket-mb", "-5", "fig8"],
        ["--bucket-mb", "0", "fig8"],
        ["--hbm-budget", "-1", "fig8"],
        ["--hbm-budget", "0", "fig8"],
        ["sweep", "--batch", "0"],
        ["sweep", "--tp", "0"],
        ["serve", "--requests", "0"],
        ["serve", "--rate", "-1"],
    ])
    def test_out_of_range_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "must be > 0" in message or "invalid choice" in message

    def test_study_flags(self):
        args = build_parser().parse_args(["study", "--no-extensions",
                                          "-o", "out.txt"])
        assert args.no_extensions and args.output == "out.txt"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "MME" in out and "HBM" in out

    def test_table1_passes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "[PASS]" in out and "[MISS]" not in out

    def test_table2_passes(self, capsys):
        assert main(["table2"]) == 0
        assert "Speedup" in capsys.readouterr().out

    def test_ablation_fusion(self, capsys):
        assert main(["ablation-fusion"]) == 0

    def test_study_writes_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        code = main(["study", "--no-extensions", "-o", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "shape checks" in text
        assert "[MISS]" not in text

    def test_study_artifacts_flag(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        code = main(["study", "--no-extensions", "--artifacts", str(art)])
        assert code == 0
        assert (art / "report.txt").exists()
        assert (art / "checks.json").exists()

    def test_decode_and_energy_commands(self, capsys):
        assert main(["decode"]) == 0
        assert main(["energy"]) == 0


def _stdout(capsys, argv):
    main(argv)
    return capsys.readouterr().out


class TestGlobalFlags:
    def test_scheduler_flag_changes_the_issue_policy(self, capsys):
        plain = _stdout(capsys, ["fig4-6"])
        assert _stdout(capsys, ["--scheduler", "reorder", "fig4-6"]) != plain
        assert _stdout(capsys, ["--scheduler", "inorder", "fig4-6"]) == plain

    def test_flags_do_not_leak_into_the_next_call(self, capsys):
        plain = _stdout(capsys, ["fig4-6"])
        assert _stdout(capsys, ["--no-hbm-contention", "fig4-6"]) != plain
        assert _stdout(capsys, ["fig4-6"]) == plain

    def test_cards_do_not_leak_into_the_next_call(self, capsys):
        full = _stdout(capsys, ["scaling"])
        assert _stdout(capsys, ["--cards", "2", "scaling"]) != full
        assert _stdout(capsys, ["scaling"]) == full

    def test_options_start_from_compiler_defaults(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, "_run_command",
            lambda args: seen.append(default_compiler_options()) or 0,
        )
        main(["--bucket-mb", "4", "describe"])
        assert seen == [CompilerOptions(bucket_mb=4.0)]


class TestStudyRegistry:
    def test_no_extensions_runs_the_paper_entries(self):
        report = run_full_study(include_extensions=False)
        paper = [e.title for e in EXPERIMENTS if e.paper]
        assert len(paper) == 7
        assert [t for t, _ in report.sections] == paper + ["recipe cache"]
