"""CLI tests."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.command == "plan"
        assert args.tenants == 300
        assert args.replication == 3

    def test_sweep_requires_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "theta"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_replay_scaling_choices(self):
        args = build_parser().parse_args(["replay", "--scaling", "disabled"])
        assert args.scaling == "disabled"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--scaling", "magic"])

    def test_replay_obs_out(self):
        args = build_parser().parse_args(["replay", "--obs-out", "out/"])
        assert args.obs_out == "out/"
        assert build_parser().parse_args(["replay"]).obs_out is None

    def test_obs_requires_directory(self):
        args = build_parser().parse_args(["obs", "report/", "--top", "3"])
        assert args.directory == "report/"
        assert args.top == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestCommands:
    _FAST = ["--tenants", "30", "--days", "7", "--sessions", "2", "--seed", "5"]

    def test_loadtimes(self, capsys):
        assert main(["loadtimes"]) == 0
        out = capsys.readouterr().out
        assert "2-node / 200GB" in out
        assert "10-node / 1.0TB" in out

    def test_plan(self, capsys):
        assert main(["plan", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "effectiveness" in out
        assert "tenant groups" in out

    def test_plan_with_groups(self, capsys):
        assert main(["plan", "--groups", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "Per-group detail" in out
        assert "tg0" in out

    def test_plan_ffd(self, capsys):
        assert main(["plan", "--grouping", "ffd", *self._FAST]) == 0
        assert "ffd" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "replication_factor", "1", "2", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "Sweep over replication_factor" in out
        assert "2step_eff" in out

    def test_replay(self, capsys):
        assert main(["replay", "--replay-days", "0.5", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "SLA met" in out
        assert "queries completed" in out

    def test_replay_obs_out_writes_report_and_obs_reads_it(self, capsys, tmp_path):
        out = tmp_path / "report"
        assert main(["replay", "--replay-days", "0.25", "--obs-out", str(out), *self._FAST]) == 0
        assert "observability report written" in capsys.readouterr().out
        for filename in ("metrics.jsonl", "spans.jsonl", "summary.json"):
            assert (out / filename).exists(), filename

        assert main(["obs", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "queries submitted" in rendered
        assert "groups by queries submitted" in rendered
        assert "RT-TTP trajectory" in rendered
        assert "Routing decisions" in rendered

    def test_obs_on_missing_directory_exits_2(self, capsys, tmp_path):
        assert main(["obs", str(tmp_path / "nothing-here")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, message",
        [(["--group", "nope"], "unknown group 'nope'"), (["--top", "-1"], "n >= 1")],
        ids=["unknown-group", "negative-top"],
    )
    def test_obs_bad_group_or_top_exits_2(self, capsys, tmp_path, options, message):
        summary = {"groups": {"tg0": {"queries_submitted": 3, "rt_ttp_trajectory": [[5.0, 1.0]]}}}
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert main(["obs", str(tmp_path), *options]) == 2
        assert message in capsys.readouterr().err

    def test_obs_on_corrupt_report_exits_2(self, capsys, tmp_path):
        (tmp_path / "summary.json").write_text('{"groups": {"tg0": ')
        assert main(["obs", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "summary.json" in err

    @pytest.mark.parametrize(
        "parameter, value",
        [
            # theta outside (0, 1) raises a ConfigurationError inside the
            # library; the CLI converts it to exit code 2 with a message.
            ("theta", "2.0"),
            # values that do not parse as the parameter's type
            ("theta", "abc"),
            ("replication_factor", "1.5"),
        ],
    )
    def test_repro_error_exits_2(self, capsys, parameter, value):
        assert main(["sweep", parameter, value, *self._FAST]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_negative_workers_exits_2(self, capsys):
        assert main(["sweep", "epoch_size_s", "60", "--workers", "-1", *self._FAST]) == 2
        assert "error: workers must be >= 0" in capsys.readouterr().err
