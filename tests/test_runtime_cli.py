"""Tests for ``dscweaver serve`` and ``dscweaver --version``.

Exit-code contract: 0 clean run, 1 gated findings, 2 usage error,
3 simulated crash (``--crash-after``).
"""

from __future__ import annotations

import pytest

from repro.cli import main


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["--version"])
        assert caught.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("dscweaver ")
        version = out.split()[1]
        assert version[0].isdigit()

    def test_version_matches_package(self, capsys):
        import repro
        from repro.cli import _package_version

        # not pip-installed in this environment, so the source fallback wins;
        # when installed, metadata takes precedence and this still holds as
        # long as the two are kept in sync
        assert _package_version() == repro.__version__


class TestServe:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["serve", "purchasing", "--cases", "30"]) == 0
        out = capsys.readouterr().out
        assert "30 completed" in out
        assert "cases/sec" in out

    def test_all_workloads_serve(self, capsys):
        for workload in ("deployment", "loan", "travel", "insurance"):
            assert main(["serve", workload, "--cases", "8"]) == 0
            assert "8 completed" in capsys.readouterr().out

    def test_full_set_serves_identically(self, capsys):
        assert main(["serve", "purchasing", "--cases", "16", "--set", "full"]) == 0
        assert "16 completed" in capsys.readouterr().out

    def test_rejections_gate_exit_code(self, capsys):
        code = main(
            [
                "serve",
                "purchasing",
                "--cases",
                "20",
                "--max-in-flight",
                "4",
                "--max-queue",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RT002" in out
        assert "rejected" in out

    def test_fail_on_error_ignores_rejections(self, capsys):
        code = main(
            [
                "serve",
                "purchasing",
                "--cases",
                "20",
                "--max-in-flight",
                "4",
                "--max-queue",
                "2",
                "--fail-on",
                "error",
            ]
        )
        capsys.readouterr()
        assert code == 0

    def test_retry_exhaustion_gates(self, capsys):
        code = main(
            [
                "serve",
                "purchasing",
                "--cases",
                "4",
                "--failure-rate",
                "1.0",
                "--max-attempts",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RT001" in out

    def test_crash_and_recover_round_trip(self, tmp_path, capsys):
        journal = str(tmp_path / "wal.jsonl")
        baseline_journal = str(tmp_path / "base.jsonl")

        assert (
            main(
                ["serve", "purchasing", "--cases", "20", "--journal", baseline_journal]
            )
            == 0
        )
        capsys.readouterr()

        code = main(
            [
                "serve",
                "purchasing",
                "--cases",
                "20",
                "--journal",
                journal,
                "--crash-after",
                "150",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "simulated crash" in out
        assert "--recover" in out

        code = main(
            [
                "serve",
                "purchasing",
                "--cases",
                "20",
                "--journal",
                journal,
                "--recover",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered journal" in out

        from repro.runtime import read_journal

        recovered = read_journal(journal)
        baseline = read_journal(baseline_journal)
        assert not recovered.in_flight()
        assert sorted(recovered.cases) == sorted(baseline.cases)
        for case, journaled in baseline.cases.items():
            assert recovered.cases[case].events == journaled.events

    def test_recover_requires_journal(self, capsys):
        assert main(["serve", "purchasing", "--recover"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_crash_after_requires_journal(self, capsys):
        assert main(["serve", "purchasing", "--crash-after", "5"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_evaluator_mode_flags_are_gone(self, capsys):
        # One evaluator serves every case; there is no mode to pick.
        for flag in ("--naive", "--no-fast"):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", "purchasing", "--cases", "10", flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
