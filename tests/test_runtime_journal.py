"""Tests for the write-ahead journal, fault injection and crash recovery.

The acceptance property: a run that crashes mid-flight and is then
recovered completes *exactly* the same set of cases, with identical
per-case final states, as an uninterrupted run of the same load.
"""

from __future__ import annotations

import json

import pytest

from repro.conformance import EventLog, replay
from repro.conformance import program_from_weave as conformance_program
from repro.runtime import (
    COMPLETED,
    Journal,
    JournalError,
    Runtime,
    SimulatedCrash,
    program_from_weave,
    read_journal,
)


@pytest.fixture(scope="module")
def program(purchasing_weave):
    return program_from_weave(purchasing_weave, "minimal", target="runtime")


def purchasing_plans(count):
    return {
        "case-%03d" % index: {"if_au": "T" if index % 2 == 0 else "F"}
        for index in range(count)
    }


def run_uninterrupted(program, plans, journal_path=None):
    runtime = Runtime(program, journal_path=journal_path)
    runtime.submit_batch(plans)
    report = runtime.run()
    runtime.close()
    return report


class TestJournalFile:
    def test_round_trip(self, tmp_path, program):
        path = str(tmp_path / "wal.jsonl")
        report = run_uninterrupted(program, purchasing_plans(6), path)
        state = read_journal(path)
        assert state.records == report.metrics.journal_records
        assert sorted(state.cases) == sorted(purchasing_plans(6))
        assert not state.in_flight()
        for journaled in state.completed():
            assert journaled.status == COMPLETED
            assert journaled.events

    def test_event_stream_preserves_commit_order(self, tmp_path, program):
        path = str(tmp_path / "wal.jsonl")
        run_uninterrupted(program, purchasing_plans(4), path)
        state = read_journal(path)
        # Reconstructing per-case sequences from the interleaved stream
        # must give each case's own journaled order.
        per_case = {}
        for event in state.event_stream:
            per_case.setdefault(event.case, []).append(event)
        for case, journaled in state.cases.items():
            assert per_case[case] == journaled.events

    def test_journal_is_a_conformance_log(self, tmp_path, purchasing_weave, program):
        """Stripped of control records, the journal replays cleanly."""
        path = str(tmp_path / "wal.jsonl")
        run_uninterrupted(program, purchasing_plans(5), path)
        state = read_journal(path)
        monitor = conformance_program(purchasing_weave, which="minimal")
        report = replay(EventLog(state.event_stream), monitor)
        assert report.clean

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(JournalError, match="invalid JSON"):
            read_journal(str(path))

    def test_rejects_event_before_admission(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"case": "ghost", "activity": "a", "lifecycle": "start", "time": 0.0}
            )
            + "\n"
        )
        with pytest.raises(JournalError, match="unadmitted"):
            read_journal(str(path))

    def test_rejects_double_admission(self, tmp_path):
        line = json.dumps({"rt": "admit", "case": "c", "time": 0.0, "outcomes": {}})
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(JournalError, match="admitted twice"):
            read_journal(str(path))


    def test_rejects_garbage_followed_by_records(self, tmp_path):
        admit = json.dumps({"rt": "admit", "case": "c", "time": 0.0, "outcomes": {}})
        path = tmp_path / "bad.jsonl"
        path.write_text(admit + "\n" + '{"rt": "adm' + "\n" + admit.replace('"c"', '"d"'))
        with pytest.raises(JournalError, match="record 2: invalid JSON"):
            read_journal(str(path))

    @pytest.mark.parametrize("strict", [True, False])
    def test_drops_a_torn_final_write(self, tmp_path, strict):
        admit = json.dumps({"rt": "admit", "case": "c", "time": 0.0, "outcomes": {}})
        path = tmp_path / "torn.jsonl"
        path.write_text(admit + "\n" + admit[:17])
        state = read_journal(str(path), strict=strict)
        assert state.records == 1
        assert list(state.cases) == ["c"]
        assert state.torn_at == len(admit) + 1
        assert state.torn_fragment == admit[:17]

    def test_complete_final_record_without_newline_is_kept(self, tmp_path):
        admit = json.dumps({"rt": "admit", "case": "c", "time": 0.0, "outcomes": {}})
        path = tmp_path / "wal.jsonl"
        path.write_text(admit)
        state = read_journal(str(path))
        assert state.records == 1
        assert state.torn_at is None


class TestFaultInjection:
    def test_crash_after_n_records(self, tmp_path):
        journal = Journal(str(tmp_path / "wal.jsonl"), crash_after=2)
        journal.admit("a", 0.0, {})
        with pytest.raises(SimulatedCrash) as caught:
            journal.admit("b", 0.0, {})
        assert caught.value.records_written == 2
        # the journal was durably flushed before the crash fired
        assert read_journal(str(tmp_path / "wal.jsonl")).records == 2

    def test_crash_propagates_out_of_run(self, tmp_path, program):
        runtime = Runtime(
            program, journal_path=str(tmp_path / "wal.jsonl"), crash_after=30
        )
        runtime.submit_batch(purchasing_plans(4))
        with pytest.raises(SimulatedCrash):
            runtime.run()


class TestCrashRecovery:
    @pytest.mark.parametrize("crash_after", [10, 45, 120, 200])
    def test_recovered_run_matches_uninterrupted(
        self, tmp_path, program, crash_after
    ):
        plans = purchasing_plans(10)
        baseline = run_uninterrupted(program, plans).final_states()

        path = str(tmp_path / "wal.jsonl")
        crashed = Runtime(program, journal_path=path, crash_after=crash_after)
        with pytest.raises(SimulatedCrash):
            crashed.submit_batch(plans)
            crashed.run()

        recovered = Runtime.recover(path, program)
        for case, outcomes in plans.items():
            if case not in recovered.known_cases:
                recovered.submit(case, outcomes)
        report = recovered.run()
        recovered.close()

        assert report.completed_cases() == tuple(sorted(plans))
        assert report.final_states() == baseline
        assert not report.diagnostics

    def test_completed_cases_are_not_rerun(self, tmp_path, program):
        plans = purchasing_plans(8)
        path = str(tmp_path / "wal.jsonl")
        crashed = Runtime(program, journal_path=path, crash_after=170)
        with pytest.raises(SimulatedCrash):
            crashed.submit_batch(plans)
            crashed.run()
        adopted = len(read_journal(path).completed())
        assert adopted > 0, "pick crash_after so some cases completed"

        recovered = Runtime.recover(path, program)
        report = recovered.run()
        recovered.close()
        assert report.metrics.recovered == adopted
        # adopted cases carry journal-derived results with real schedules
        for case in report.completed_cases():
            assert report.results[case].executed

    def test_recovered_journal_extends_in_place(self, tmp_path, program):
        plans = purchasing_plans(6)
        path = str(tmp_path / "wal.jsonl")
        crashed = Runtime(program, journal_path=path, crash_after=40)
        with pytest.raises(SimulatedCrash):
            crashed.submit_batch(plans)
            crashed.run()

        recovered = Runtime.recover(path, program)
        recovered.run()
        recovered.close()
        state = read_journal(path)
        assert not state.in_flight()
        assert sorted(state.cases) == sorted(plans)

    @pytest.mark.parametrize(
        "torn_bytes,codes", [(1, []), (17, ["RT007"]), (40, ["RT007"])]
    )
    def test_torn_tail_is_cut_and_recovery_matches_uninterrupted(
        self, tmp_path, program, torn_bytes, codes
    ):
        """A crash mid-append leaves a torn last line (or, at one byte, a
        complete record without its newline); recovery must not glue the
        next record onto it."""
        plans = purchasing_plans(10)
        baseline = run_uninterrupted(program, plans).final_states()

        path = str(tmp_path / "wal.jsonl")
        crashed = Runtime(program, journal_path=path, crash_after=120)
        with pytest.raises(SimulatedCrash):
            crashed.submit_batch(plans)
            crashed.run()
        with open(path, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) - torn_bytes)

        recovered = Runtime.recover(path, program)
        for case, outcomes in plans.items():
            if case not in recovered.known_cases:
                recovered.submit(case, outcomes)
        report = recovered.run()
        recovered.close()

        assert report.final_states() == baseline
        assert [d.code for d in report.diagnostics] == codes
        state = read_journal(path)
        assert state.torn_at is None
        assert not state.in_flight()
        assert sorted(state.cases) == sorted(plans)

    def test_tampered_journal_raises_rt003(self, tmp_path, program):
        path = str(tmp_path / "wal.jsonl")
        crashed = Runtime(program, journal_path=path, crash_after=12)
        with pytest.raises(SimulatedCrash):
            crashed.submit("case-a")
            crashed.run()

        lines = open(path, encoding="utf-8").read().splitlines()
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record.get("lifecycle") == "finish":
                record["time"] += 99.0
                lines[index] = json.dumps(record)
                break
        else:
            pytest.fail("no finish event journaled before the crash")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

        recovered = Runtime.recover(path, program)
        report = recovered.run()
        recovered.close()
        assert [d.code for d in report.diagnostics] == ["RT003"]
        assert report.results["case-a"].status == "failed"
        assert report.exit_code() == 1


class TestGroupCommit:
    """``flush_every=N`` batches durability without changing the record
    stream, and fault injection stays exact under batching."""

    def test_rejects_bad_batch_size(self, tmp_path):
        with pytest.raises(ValueError, match="at least 1"):
            Journal(str(tmp_path / "wal.jsonl"), flush_every=0)

    def test_buffers_until_the_batch_fills(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        journal = Journal(path, flush_every=4)
        for index in range(3):
            journal.admit("case-%d" % index, 0.0, {})
        # three buffered records: nothing durable yet
        assert read_journal(path).records == 0
        journal.admit("case-3", 0.0, {})
        assert read_journal(path).records == 4
        journal.admit("case-4", 0.0, {})
        journal.close()  # close flushes the partial batch
        assert read_journal(path).records == 5

    def test_explicit_flush_is_a_commit_boundary(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        journal = Journal(path, flush_every=64)
        journal.admit("case-0", 0.0, {})
        journal.flush()
        assert read_journal(path).records == 1
        journal.close()

    def test_crash_after_stays_exact_under_batching(self, tmp_path):
        """The buffer is flushed before the simulated crash fires, so the
        journal holds precisely N records at every batch size."""
        for flush_every in (1, 3, 7):
            path = str(tmp_path / ("wal-%d.jsonl" % flush_every))
            journal = Journal(path, crash_after=5, flush_every=flush_every)
            with pytest.raises(SimulatedCrash) as caught:
                for index in range(10):
                    journal.admit("case-%d" % index, 0.0, {})
            assert caught.value.records_written == 5
            assert read_journal(path).records == 5

    def test_batched_journal_is_byte_identical(self, tmp_path, program):
        """Group commit changes *when* bytes hit disk, never which bytes."""
        plans = purchasing_plans(8)
        paths = []
        for flush_every in (1, 16):
            path = str(tmp_path / ("wal-%d.jsonl" % flush_every))
            runtime = Runtime(program, journal_path=path, flush_every=flush_every)
            runtime.submit_batch(plans)
            runtime.run()
            runtime.close()
            paths.append(path)
        first, second = (open(path, "rb").read() for path in paths)
        assert first == second

    def test_recovery_resumes_a_batched_journal(self, tmp_path, program):
        plans = purchasing_plans(6)
        expected = run_uninterrupted(program, plans)
        path = str(tmp_path / "wal.jsonl")
        crashed = Runtime(
            program, journal_path=path, crash_after=40, flush_every=8
        )
        crashed.submit_batch(plans)
        with pytest.raises(SimulatedCrash):
            crashed.run()
        recovered = Runtime.recover(path, program, flush_every=8)
        for case, outcomes in plans.items():
            if case not in recovered.known_cases:
                recovered.submit(case, outcomes)
        report = recovered.run()
        recovered.close()
        assert report.final_states() == expected.final_states()


class TestCompactSerialization:
    """Journal records are compact JSON with a fixed key order."""

    def test_records_are_compact_with_stable_key_order(self, tmp_path, program):
        path = str(tmp_path / "wal.jsonl")
        runtime = Runtime(program, journal_path=path)
        runtime.submit_batch(purchasing_plans(2))
        runtime.run()
        runtime.close()
        for line in open(path, encoding="utf-8").read().splitlines():
            # compact separators: no space after ',' or ':'
            assert ", " not in line and ": " not in line
            payload = json.loads(line)
            # fixed insertion order per record type: re-serializing with the
            # same constructors' order reproduces the line verbatim
            assert json.dumps(payload, separators=(",", ":")) == line
            if payload.get("rt") == "admit":
                keys = [k for k in payload if k != "object"]
                assert keys == ["rt", "case", "time", "outcomes"]
            elif payload.get("rt") == "obj":
                assert list(payload) == [
                    "rt", "kind", "case", "object", "sync", "time",
                ]
            elif payload.get("rt") == "complete":
                keys = [k for k in payload if k != "reason"]
                assert keys == ["rt", "case", "time", "status"]

    def test_compact_journal_round_trips_through_ingestion(
        self, tmp_path, program
    ):
        from repro.discover.ingest import log_from_journal

        path = str(tmp_path / "wal.jsonl")
        plans = purchasing_plans(4)
        runtime = Runtime(program, journal_path=path)
        runtime.submit_batch(plans)
        report = runtime.run()
        runtime.close()
        log = log_from_journal(path)
        assert {event.case for event in log} == set(plans)
        # start + finish per executed activity, one record per skip
        assert len(log) == sum(
            len(result.executed) * 2 + len(result.skipped)
            for result in report.results.values()
        )
