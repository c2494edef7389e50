"""Tests for the CLI and smoke tests for the fast paper experiments."""

import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_synthesis_subcommand(self, capsys):
        assert main(["synthesis"]) == 0
        out = capsys.readouterr().out
        assert "fifo_inject" in out
        assert "model/paper" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fast_experiment_with_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["run", "sec434", "--out", str(out_file)]) == 0
        stdout = capsys.readouterr().out
        assert "16-bit-apart swap" in stdout
        text = out_file.read_text()
        assert text.startswith("# DSN 2002 reproduction")
        assert "veHa" not in text  # tables carry counts, not payloads
        assert "checksum_drops" in text

    def test_closed_stdout_pipe_exits_quietly(self):
        """``python -m repro list | head -1``: a reader that closes the
        pipe early must not produce a BrokenPipeError traceback.

        The read end is closed before the child prints its first line:
        ``list`` writes its whole output in one go, so a reader that
        waits for a line would usually close after the write and never
        break the pipe.
        """
        src = str(pathlib.Path(__file__).parent.parent / "src")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        child.stdout.close()
        stderr = child.stderr.read().decode()
        child.stderr.close()
        child.wait(timeout=60)
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["run", "all", "--scale", "0.5"])
        assert args.experiments == ["all"]
        assert args.scale == 0.5

    def test_capture_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--capture-dir", "out/cap", "--no-progress"]
        )
        assert args.capture_dir == "out/cap"
        args = parser.parse_args(["capture", "decode", "--input", "x"])
        assert args.capture_command == "decode"
        assert args.input == "x"

    def test_capture_missing_artifact_fails(self, tmp_path, capsys):
        assert main(
            ["capture", "summarize", "--input", str(tmp_path)]
        ) == 2
        assert "no capture artifact" in capsys.readouterr().err

    def test_campaign_artifacts_dir_parallel(self, tmp_path, capsys):
        """--workers N --artifacts-dir DIR: journal + merged artifacts."""
        root = tmp_path / "art"
        assert main([
            "campaign", "--experiments", "2", "--duration-ms", "1",
            "--workers", "2", "--artifacts-dir", str(root), "--no-progress",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 experiment(s) executed with 2 worker(s)" in out
        assert "artifacts merged" in out
        assert (root / "journal.jsonl").exists()
        assert (root / "telemetry" / "metrics.json").exists()
        assert (root / "capture" / "capture.rcap").exists()
        assert (root / "experiments").is_dir()

    def test_campaign_resume_requires_artifacts_dir(self, capsys):
        assert main(["campaign", "--resume", "--no-progress"]) == 2
        assert "--artifacts-dir" in capsys.readouterr().err

    def test_retired_flags_fail_with_pinned_hint(self, tmp_path, capsys):
        """The PR-4 aliases are retired: exit 2, exact replacement hint.

        The message text is pinned because migration tooling (and
        humans) grep for it; change it deliberately or not at all.
        """
        with pytest.raises(SystemExit) as err:
            main([
                "campaign", "--telemetry-dir", str(tmp_path / "t"),
                "--no-progress",
            ])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("DeprecationWarning: --telemetry-dir ")
        assert (
            "has been removed; use --artifacts-dir DIR "
            "(writes DIR/telemetry/ and DIR/capture/ — see "
            "docs/runtime.md)"
        ) in stderr

    def test_retired_flags_fail_together_naming_both(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "campaign", "--telemetry-dir", str(tmp_path / "t"),
                "--capture-dir", str(tmp_path / "c"), "--no-progress",
            ])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "--telemetry-dir/--capture-dir" in stderr

    def test_retired_flags_fail_on_run_too(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "run", "sec434", "--capture-dir", str(tmp_path / "c"),
            ])
        assert err.value.code == 2
        assert "DeprecationWarning" in capsys.readouterr().err

    def test_artifacts_dir_umbrella_on_run(self, tmp_path, capsys):
        root = tmp_path / "art"
        assert main([
            "run", "sec434", "--artifacts-dir", str(root),
        ]) == 0
        captured = capsys.readouterr()
        assert "deprecated" not in captured.err
        assert (root / "telemetry" / "metrics.json").exists()
        assert (root / "capture" / "capture.rcap").exists()

    def test_campaign_capture_then_decode(self, tmp_path, capsys):
        """CLI acceptance: campaign --artifacts-dir, then summarize/decode."""
        root = tmp_path / "art"
        assert main([
            "campaign", "--experiments", "1", "--duration-ms", "1",
            "--seed", "1", "--artifacts-dir", str(root), "--no-progress",
        ]) == 0
        cap_dir = str(root / "capture")
        out = capsys.readouterr().out
        assert "capture shard(s)" in out

        assert main(["capture", "summarize", "--input", cap_dir]) == 0
        out = capsys.readouterr().out
        assert "lifecycle events" in out

        json_out = tmp_path / "analysis.json"
        assert main([
            "capture", "decode", "--input", cap_dir,
            "--json", str(json_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "Failure analysis" in out
        assert json_out.exists()


class TestPaperExperimentsFast:
    """The fast regeneration functions run inside the unit suite too, so
    a regression is caught before the benchmark stage."""

    def test_sec434(self):
        from repro.nftape.paper import sec434_udp_checksum
        table = sec434_udp_checksum(messages=10)
        swap = table.rows[0]
        assert swap["corrupted_delivered"] == 10
        plain = table.rows[1]
        assert plain["checksum_drops"] == 10

    def test_sec432(self):
        from repro.nftape.paper import sec432_packet_types
        table = sec432_packet_types()
        assert len(table.rows) == 5
        assert "node removed=True" in table.rows[0]["observed"]

    def test_sec433(self):
        from repro.nftape.paper import sec433_addresses
        table, artifacts = sec433_addresses()
        assert len(table.rows) == 4
        assert artifacts["fig11_before"]
        assert artifacts["fig11_after"]

    def test_sec35(self):
        from repro.nftape.paper import sec35_passthrough
        from repro.sim.timebase import MS
        table = sec35_passthrough(duration_ps=5 * MS)
        direct, with_device = table.rows
        assert direct["received"] == with_device["received"]

    def test_table2_small(self):
        from repro.nftape.paper import table2_latency
        table = table2_latency(exchanges=60, experiments=2)
        for row in table.rows:
            assert 220_000 < float(row["without_ns"]) < 250_000
