"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.net import TRANSPORT_KINDS


class TestParser:
    def test_requires_a_figure(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.figure == "fig3"
        assert args.scale_factor == 10
        assert not args.paper_scale

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_transport_defaults_to_inline(self):
        args = build_parser().parse_args(["fig4"])
        assert args.transport == "inline"
        assert args.link_latency == 0.0

    def test_transport_choices(self):
        for kind in TRANSPORT_KINDS:
            assert build_parser().parse_args(["fig4", "--transport", kind]).transport == kind
        for unknown in ("smoke-signals", "batching", "replay", "socket"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig4", "--transport", unknown])

    def test_churn_rates_default_to_unset(self):
        # None (not 0.0) so the churn command can tell an explicit
        # `--join-rate 0` apart from "no rate given".
        args = build_parser().parse_args(["fig4"])
        assert args.join_rate is None
        assert args.fail_rate is None

    def test_churn_rates_parse(self):
        args = build_parser().parse_args(
            ["churn", "--join-rate", "0.01", "--fail-rate", "0.02"]
        )
        assert args.figure == "churn"
        assert args.join_rate == 0.01
        assert args.fail_rate == 0.02


class TestMain:
    def test_fig1_writes_report(self, tmp_path: pathlib.Path, capsys):
        exit_code = main(["fig1", "--output-dir", str(tmp_path)])
        assert exit_code == 0
        report = tmp_path / "figure1_figure2.txt"
        assert report.exists()
        content = report.read_text()
        assert "Figure 1" in content and "Figure 2" in content
        printed = capsys.readouterr().out
        assert "report file(s) written" in printed

    def test_fig3_quiet_mode_only_writes(self, tmp_path: pathlib.Path, capsys):
        exit_code = main(["fig3", "--output-dir", str(tmp_path), "--quiet"])
        assert exit_code == 0
        assert (tmp_path / "figure3.txt").exists()
        assert capsys.readouterr().out == ""

    def test_profile_writes_stats_and_prints_table(self, tmp_path: pathlib.Path, capsys):
        exit_code = main(
            [
                "fig1",
                "--output-dir",
                str(tmp_path),
                "--quiet",
                "--profile",
                "--profile-top",
                "5",
            ]
        )
        assert exit_code == 0
        stats_path = tmp_path / "profile.pstats"
        assert stats_path.exists() and stats_path.stat().st_size > 0
        # The profile table prints even under --quiet: it is what the flag
        # was asked for.
        printed = capsys.readouterr().out
        assert "Profile — top 5 functions by cumulative time" in printed
        assert "cumtime (s)" in printed

    def test_profile_is_written_even_when_generation_fails(
        self, tmp_path: pathlib.Path, monkeypatch, capsys
    ):
        import repro.cli as cli_module

        def explode(args):
            raise RuntimeError("boom mid-figure")

        monkeypatch.setitem(cli_module._COMMANDS, "fig1", explode)
        with pytest.raises(RuntimeError, match="boom mid-figure"):
            main(["fig1", "--output-dir", str(tmp_path), "--quiet", "--profile"])
        # The interrupted run still yields its profile — that is the run
        # most worth diagnosing.
        assert (tmp_path / "profile.pstats").exists()

    def test_fig4_writes_table_and_csv(self, tmp_path: pathlib.Path):
        exit_code = main(
            [
                "fig4",
                "--output-dir",
                str(tmp_path),
                "--scale-factor",
                "50",
                "--phase-periods",
                "2",
                "--quiet",
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "figure4.txt").exists()
        csv_text = (tmp_path / "figure4_max_load_series.csv").read_text()
        assert csv_text.startswith("time,")
        assert "CLASH" not in csv_text.splitlines()[1]  # data rows are numeric

    def test_custom_seed_changes_nothing_structural(self, tmp_path: pathlib.Path):
        exit_code = main(["fig1", "--output-dir", str(tmp_path), "--seed", "7", "--quiet"])
        assert exit_code == 0
        content = (tmp_path / "figure1_figure2.txt").read_text()
        assert "0110*" in content

    def test_same_seed_reproduces_figure4_byte_for_byte(self, tmp_path: pathlib.Path):
        argv = [
            "fig4",
            "--scale-factor",
            "100",
            "--phase-periods",
            "2",
            "--seed",
            "99",
            "--quiet",
        ]
        assert main([*argv, "--output-dir", str(tmp_path / "first")]) == 0
        assert main([*argv, "--output-dir", str(tmp_path / "second")]) == 0
        for name in ("figure4.txt", "figure4_max_load_series.csv"):
            first = (tmp_path / "first" / name).read_text()
            second = (tmp_path / "second" / name).read_text()
            assert first == second

    def test_churn_command_writes_sweep_report(self, tmp_path: pathlib.Path):
        exit_code = main(
            [
                "churn",
                "--output-dir",
                str(tmp_path),
                "--scale-factor",
                "100",
                "--phase-periods",
                "2",
                "--join-rate",
                "0.01",
                "--fail-rate",
                "0.01",
                "--quiet",
            ]
        )
        assert exit_code == 0
        text = (tmp_path / "churn.txt").read_text()
        assert "Churn sweep" in text
        assert "0.01" in text

    def test_fig4_runs_with_churn_rates(self, tmp_path: pathlib.Path):
        exit_code = main(
            [
                "fig4",
                "--output-dir",
                str(tmp_path),
                "--scale-factor",
                "100",
                "--phase-periods",
                "2",
                "--join-rate",
                "0.01",
                "--fail-rate",
                "0.01",
                "--quiet",
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "figure4.txt").exists()

    def test_fig4_runs_over_event_transport_with_latency(self, tmp_path: pathlib.Path):
        exit_code = main(
            [
                "fig4",
                "--output-dir",
                str(tmp_path),
                "--scale-factor",
                "100",
                "--phase-periods",
                "2",
                "--transport",
                "event",
                "--link-latency",
                "0.01",
                "--quiet",
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "figure4.txt").exists()
