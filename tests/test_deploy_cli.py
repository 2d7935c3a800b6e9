"""CLI tests for the hot-swap surface (`dscweaver deploy` / `serve --redeploy-after`).

Pins the exit-code contract: 0 clean, 1 findings at/above --fail-on,
2 usage errors, 3 simulated crash; and that the JSON payloads carry the
migration plan and the per-case version map.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

EDITS = {"add": [], "remove": [{"source": "recClient_po", "target": "invPurchase_po"}]}


@pytest.fixture()
def edits(tmp_path):
    path = tmp_path / "edits.json"
    path.write_text(json.dumps(EDITS))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def _segments(journal):
    """The journal files of a serve run: one file, or a pool's segments."""
    return sorted(journal.glob("journal.*.jsonl")) if journal.is_dir() else [journal]


class TestDeployCommand:
    def test_preflight_only(self, edits, capsys):
        assert main(["deploy", "purchasing", "--to", edits, "--format", "json"]) == 0
        payload = _json_out(capsys)
        assert payload["from_version"] == 1
        assert payload["to_version"] == 2
        assert payload["removed"] == 1
        assert payload["preflight"]["safe"] is True
        assert payload["preflight"]["stranded"] == 0
        assert "plan" not in payload

    def test_preflight_text_mentions_the_gate(self, edits, capsys):
        assert main(["deploy", "purchasing", "--to", edits]) == 0
        out = capsys.readouterr().out
        assert "v1 -> v2" in out
        assert "preflight strand gate" in out

    def test_cold_flag_exits_two(self, edits, capsys):
        # The session rebase is the only re-minimization; there is no
        # from-scratch mode to select.
        with pytest.raises(SystemExit) as exit_info:
            main(["deploy", "purchasing", "--to", edits, "--cold"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cold" in capsys.readouterr().err

    def test_missing_edits_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["deploy", "--to", str(tmp_path / "nope.json")]) == 2
        assert "cannot load edits" in capsys.readouterr().err

    def test_malformed_edits_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "edits.json"
        path.write_text("[]")
        assert main(["deploy", "--to", str(path)]) == 2
        assert "cannot load edits" in capsys.readouterr().err

    def test_invalid_edit_batch_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "edits.json"
        path.write_text(json.dumps({"remove": [{"source": "a", "target": "b"}]}))
        assert main(["deploy", "--to", str(path)]) == 2
        assert "invalid edit batch" in capsys.readouterr().err

    def test_from_journal_dry_run_then_apply(self, edits, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        # Crash a plain serve mid-run to leave in-flight cases behind.
        assert main([
            "serve", "purchasing", "--cases", "20",
            "--journal", journal, "--crash-after", "120",
        ]) == 3
        capsys.readouterr()

        assert main([
            "deploy", "purchasing", "--to", edits, "--from", journal,
            "--dry-run", "--format", "json",
        ]) == 0
        plan = _json_out(capsys)["plan"]
        assert plan["applied"] is False
        assert plan["upgraded"] > 0
        assert plan["rejected"] == 0

        assert main([
            "deploy", "purchasing", "--to", edits, "--from", journal,
            "--format", "json",
        ]) == 0
        applied = _json_out(capsys)["plan"]
        assert applied["applied"] is True
        assert applied["upgraded"] == plan["upgraded"]

        from repro.runtime import read_journal

        state = read_journal(journal)
        assert state.current_version() == 2
        assert state.pending_deploy() is None

    def test_dry_run_refuses_a_crashed_swap(self, edits, tmp_path, capsys):
        # Leave a begin without its commit: crash inside the swap window.
        journal = tmp_path / "journal.jsonl"
        serve = [
            "serve", "purchasing", "--cases", "20", "--journal", str(journal),
            "--redeploy-after", "10", "--to", edits,
        ]
        assert main(serve) == 0
        lines = journal.read_text().splitlines()
        begin_at = next(i for i, l in enumerate(lines) if '"rt":"dep"' in l)
        journal.unlink()
        assert main(serve + ["--crash-after", str(begin_at + 2)]) == 3
        capsys.readouterr()
        before = journal.read_bytes()

        assert main([
            "deploy", "purchasing", "--to", edits, "--from", str(journal),
            "--dry-run",
        ]) == 2
        assert "pending v1 -> v2 swap" in capsys.readouterr().err
        assert journal.read_bytes() == before


class TestServeValidation:
    def test_to_requires_redeploy_after(self, edits, capsys):
        assert main(["serve", "purchasing", "--to", edits]) == 2
        assert "--to requires --redeploy-after" in capsys.readouterr().err

    def test_redeploy_requires_to(self, tmp_path, capsys):
        assert main([
            "serve", "purchasing", "--redeploy-after", "5",
            "--journal", str(tmp_path / "j.jsonl"),
        ]) == 2
        assert "requires --to" in capsys.readouterr().err

    def test_redeploy_requires_journal(self, edits, capsys):
        assert main([
            "serve", "purchasing", "--redeploy-after", "5", "--to", edits,
        ]) == 2
        assert "requires --journal" in capsys.readouterr().err

    def test_redeploy_rejects_objects(self, edits, tmp_path, capsys):
        assert main([
            "serve", "orders", "--objects", "--redeploy-after", "5",
            "--to", edits, "--journal", str(tmp_path / "j.jsonl"),
        ]) == 2
        assert "--objects" in capsys.readouterr().err

    def test_redeploy_rejects_full_set(self, edits, tmp_path, capsys):
        assert main([
            "serve", "purchasing", "--set", "full", "--redeploy-after", "5",
            "--to", edits, "--journal", str(tmp_path / "j.jsonl"),
        ]) == 2
        assert "--set full" in capsys.readouterr().err


class TestServeHotSwap:
    def _serve(self, journal, edits, *extra):
        return main([
            "serve", "purchasing", "--cases", "20", "--journal", journal,
            "--redeploy-after", "10", "--to", edits, "--format", "json",
            *extra,
        ])

    def test_single_process_swap(self, edits, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert self._serve(journal, edits) == 0
        payload = _json_out(capsys)
        deploy = payload["deploy"]
        assert deploy["from_version"] == 1
        assert deploy["to_version"] == 2
        assert deploy["upgraded"] == 10
        assert deploy["rejected"] == 0
        assert sorted(set(deploy["versions"].values())) == [1, 2]
        assert payload["metrics"]["completed"] == 20

    def test_worker_pool_swap(self, edits, tmp_path, capsys):
        journal_dir = str(tmp_path / "pool")
        assert main([
            "serve", "purchasing", "--cases", "24", "--workers", "2",
            "--journal", journal_dir, "--redeploy-after", "4",
            "--to", edits, "--format", "json",
        ]) == 0
        deploy = _json_out(capsys)["deploy"]
        assert deploy["upgraded"] > 0
        assert deploy["rejected"] == 0
        assert sorted(set(deploy["versions"].values())) == [1, 2]

    def test_crash_during_swap_recovers_to_the_clean_outcome(
        self, edits, tmp_path, capsys
    ):
        clean = str(tmp_path / "clean.jsonl")
        assert self._serve(clean, edits) == 0
        clean_deploy = _json_out(capsys)["deploy"]

        # Crash two records past dep:begin — inside the swap window.
        lines = (tmp_path / "clean.jsonl").read_text().splitlines()
        begin_at = next(i for i, l in enumerate(lines) if '"rt":"dep"' in l)
        crashed = str(tmp_path / "crashed.jsonl")
        assert self._serve(
            crashed, edits, "--crash-after", str(begin_at + 2)
        ) == 3
        capsys.readouterr()

        # Roll-forward recovery is reported as DEP004 (warning), which
        # gates serve's default --fail-on warning.
        assert self._serve(crashed, edits, "--recover") == 1
        recovered = _json_out(capsys)
        assert recovered["deploy"]["versions"] == clean_deploy["versions"]
        assert any(
            f["code"] == "DEP004"
            for f in recovered["findings"]["findings"]
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_crash_before_begin_rearms_the_swap(
        self, edits, tmp_path, capsys, workers
    ):
        from repro.runtime.coordinator import result_from_journal
        from repro.runtime.journal import read_journal

        def final_states(journal):
            return {
                case: result_from_journal(journaled).final_state()
                for path in _segments(journal)
                for case, journaled in read_journal(str(path)).cases.items()
            }

        # A pool pauses per worker: swap after 4 of each worker's ~10 cases.
        after = "4" if workers == "2" else "10"
        extra = ("--workers", workers, "--redeploy-after", after)
        clean = tmp_path / "clean"
        assert self._serve(str(clean), edits, *extra) == 0
        clean_deploy = _json_out(capsys)["deploy"]
        assert sorted(set(clean_deploy["versions"].values())) == [1, 2]

        # Crash at the first dep record: no segment journals its begin, so
        # recovery must re-arm the swap rather than roll it forward.
        begin_at = min(
            next(i for i, line in enumerate(path.read_text().splitlines())
                 if '"rt":"dep"' in line)
            for path in _segments(clean)
        )
        crashed = tmp_path / "crashed"
        assert self._serve(
            str(crashed), edits, *extra, "--crash-after", str(begin_at)
        ) == 3
        capsys.readouterr()
        assert not any(
            '"rt":"dep"' in path.read_text() for path in _segments(crashed)
        )

        assert self._serve(str(crashed), edits, *extra, "--recover") == 0
        recovered = _json_out(capsys)["deploy"]
        assert recovered["versions"] == clean_deploy["versions"]
        assert final_states(crashed) == final_states(clean)

    def test_recovery_warning_passes_fail_on_error(self, edits, tmp_path, capsys):
        clean = str(tmp_path / "clean.jsonl")
        assert self._serve(clean, edits) == 0
        lines = (tmp_path / "clean.jsonl").read_text().splitlines()
        begin_at = next(i for i, l in enumerate(lines) if '"rt":"dep"' in l)
        crashed = str(tmp_path / "crashed.jsonl")
        assert self._serve(
            crashed, edits, "--crash-after", str(begin_at + 2)
        ) == 3
        capsys.readouterr()
        assert self._serve(crashed, edits, "--recover", "--fail-on", "error") == 0
