"""Tests for the ``dscweaver replay`` / ``monitor`` / ``simulate --record``
commands and their exit-code contract (0 clean, 1 gated finding, 2 bad
input)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.conformance import EventLog, perturb, program_from_weave


@pytest.fixture()
def recorded_log(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    assert main(["simulate", "--workload", "purchasing", "--record", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture()
def perturbed_log(recorded_log, tmp_path, purchasing_weave):
    program = program_from_weave(purchasing_weave, which="minimal")
    log = EventLog.load_jsonl(str(recorded_log))
    broken, _ = perturb(log, "swap", constraints=program.constraints)
    path = tmp_path / "bad.jsonl"
    broken.save_jsonl(str(path))
    return path


class TestSimulateRecord:
    def test_record_writes_replayable_jsonl(self, recorded_log):
        log = EventLog.load_jsonl(str(recorded_log))
        assert len(log) > 0
        assert log.case_ids() == ["purchasing"]

    def test_case_flag_overrides_case_id(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--workload",
                    "purchasing",
                    "--record",
                    str(path),
                    "--case",
                    "order-42",
                ]
            )
            == 0
        )
        assert EventLog.load_jsonl(str(path)).case_ids() == ["order-42"]

    def test_record_respects_outcomes(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--workload",
                    "purchasing",
                    "--outcome",
                    "if_au=F",
                    "--record",
                    str(path),
                ]
            )
            == 0
        )
        log = EventLog.load_jsonl(str(path))
        assert any(e.lifecycle == "skip" for e in log)


class TestReplayCommand:
    def test_clean_log_exits_zero(self, recorded_log, capsys):
        assert main(["replay", "purchasing", "--log", str(recorded_log)]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out or "fitness: 1.000" in out

    def test_replay_against_full_set(self, recorded_log, capsys):
        assert (
            main(["replay", "purchasing", "--log", str(recorded_log), "--set", "full"])
            == 0
        )

    def test_compare_reports_identical_verdicts(self, recorded_log, capsys):
        assert (
            main(["replay", "purchasing", "--log", str(recorded_log), "--compare"])
            == 0
        )
        out = capsys.readouterr().out
        assert "verdicts vs full set: identical" in out
        assert "checks:" in out

    def test_violation_exits_one(self, perturbed_log, capsys):
        assert main(["replay", "purchasing", "--log", str(perturbed_log)]) == 1
        out = capsys.readouterr().out
        assert "CONF001" in out

    def test_fail_on_error_still_gates_order_violation(self, perturbed_log, capsys):
        assert (
            main(
                [
                    "replay",
                    "purchasing",
                    "--log",
                    str(perturbed_log),
                    "--fail-on",
                    "error",
                ]
            )
            == 1
        )

    def test_naive_flag_exits_two(self, perturbed_log, capsys):
        # The full-scan checker is gone; the watcher index is the only one.
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", "purchasing", "--log", str(perturbed_log), "--naive"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --naive" in capsys.readouterr().err

    def test_missing_log_exits_two(self, tmp_path, capsys):
        assert main(["replay", "purchasing", "--log", str(tmp_path / "nope.jsonl")]) == 2

    def test_malformed_log_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n")
        assert main(["replay", "purchasing", "--log", str(path)]) == 2

    def test_csv_log_format(self, recorded_log, tmp_path, capsys):
        csv_path = tmp_path / "run.csv"
        csv_path.write_text(EventLog.load_jsonl(str(recorded_log)).to_csv())
        assert main(["replay", "purchasing", "--log", str(csv_path)]) == 0

    def test_sarif_output(self, recorded_log, capsys):
        assert (
            main(
                [
                    "replay",
                    "purchasing",
                    "--log",
                    str(recorded_log),
                    "--format",
                    "sarif",
                ]
            )
            == 0
        )
        sarif = json.loads(capsys.readouterr().out)
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert any(rule["id"] == "CONF001" for rule in rules)


class TestMonitorCommand:
    def test_clean_stream_exits_zero(self, recorded_log, capsys):
        assert main(["monitor", "purchasing", "--log", str(recorded_log)]) == 0
        out = capsys.readouterr().out
        assert "0 gating" in out

    def test_violating_stream_exits_one(self, perturbed_log, capsys):
        assert main(["monitor", "purchasing", "--log", str(perturbed_log)]) == 1
        out = capsys.readouterr().out
        assert "CONF001" in out

    def test_stdin_stream(self, recorded_log, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(recorded_log.read_text())
        )
        assert main(["monitor", "purchasing"]) == 0

    def test_bad_event_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case": "c"}\n')
        assert main(["monitor", "purchasing", "--log", str(path)]) == 2
