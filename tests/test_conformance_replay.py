"""Batch replay of scheduler-generated logs against woven constraint sets.

The acceptance properties of the conformance subsystem: a log recorded
from a legal scheduler run replays violation-free against both the full
ASC and the minimal set, the two monitors reach identical per-case
verdicts at lower cost for the minimal set, and the findings flow through
the :mod:`repro.lint` reporting stack (text/JSON/SARIF, exit codes).
"""

from __future__ import annotations

import json

import pytest

from repro.conformance import (
    CONF_CODES,
    EventLog,
    Verdict,
    events_from_trace,
    log_from_traces,
    program_from_weave,
    replay,
    verdicts_agree,
)
from repro.lint import Severity, render
from repro.scheduler.engine import ConstraintScheduler
from tests.conformance_reference import full_scan_replay


@pytest.fixture(scope="module")
def purchasing_log(purchasing_process, purchasing_weave):
    """Two cases: one on each branch of the if_au guard."""
    traces = {}
    for case, outcomes in (("case-1", {}), ("case-2", {"if_au": "F"})):
        run = ConstraintScheduler(purchasing_process, purchasing_weave.minimal).run(
            outcomes=outcomes
        )
        traces[case] = run.trace
    return log_from_traces(traces)


@pytest.fixture(scope="module")
def minimal_program(purchasing_weave):
    return program_from_weave(purchasing_weave, which="minimal")


@pytest.fixture(scope="module")
def full_program(purchasing_weave):
    return program_from_weave(purchasing_weave, which="full")


class TestCleanReplay:
    def test_unperturbed_log_is_conformant(self, purchasing_log, minimal_program):
        report = replay(purchasing_log, minimal_program)
        assert report.clean
        assert report.fitness == 1.0
        assert report.violated_cases == ()

    def test_clean_against_full_set_too(self, purchasing_log, full_program):
        assert replay(purchasing_log, full_program).clean

    def test_minimal_and_full_verdicts_agree(
        self, purchasing_log, minimal_program, full_program
    ):
        minimal = replay(purchasing_log, minimal_program)
        full = replay(purchasing_log, full_program)
        assert verdicts_agree(minimal, full)

    def test_minimal_monitors_cheaper(
        self, purchasing_log, minimal_program, full_program
    ):
        minimal = replay(purchasing_log, minimal_program)
        full = replay(purchasing_log, full_program)
        assert minimal.program_size < full.program_size
        assert minimal.checks < full.checks
        assert minimal.checks_per_event < full.checks_per_event

    def test_indexed_beats_naive_with_same_outcome(
        self, purchasing_log, minimal_program
    ):
        fast = replay(purchasing_log, minimal_program)
        slow = full_scan_replay(purchasing_log, minimal_program)
        assert fast.checks < slow.checks
        assert [d.message for d in fast.diagnostics] == [
            d.message for d in slow.diagnostics
        ]
        assert verdicts_agree(fast, slow)

    def test_dead_branch_obligations_are_vacuous(
        self, purchasing_log, minimal_program
    ):
        report = replay(purchasing_log, minimal_program)
        # case-2 skips the if_au=T branch: those obligations must be
        # vacuous or inactive, never pending residue.
        assert report.verdict_counts.get(Verdict.VACUOUS, 0) > 0
        assert report.residue == 0

    def test_all_workloads_replay_clean(self, all_weaves):
        for name, (process, weave) in all_weaves.items():
            run = ConstraintScheduler(process, weave.minimal).run()
            log = EventLog(events_from_trace(run.trace, name))
            minimal = replay(log, program_from_weave(weave, which="minimal"))
            full = replay(log, program_from_weave(weave, which="full"))
            assert minimal.clean, "%s: %s" % (name, minimal.diagnostics)
            assert full.clean, "%s: %s" % (name, full.diagnostics)
            assert verdicts_agree(minimal, full)
            assert minimal.checks <= full.checks


class TestTruncation:
    def test_truncated_log_only_residue(self, purchasing_log, minimal_program):
        events = list(purchasing_log)
        report = replay(EventLog(events[: len(events) // 2]), minimal_program)
        # A prefix of a clean stream is still order-conformant: residue only.
        assert report.clean
        assert {d.code for d in report.diagnostics} <= {"CONF007"}
        assert report.counts_by_code()["CONF007"] >= 1

    def test_residue_gates_only_at_info(self, purchasing_log, minimal_program):
        events = list(purchasing_log)
        report = replay(EventLog(events[: len(events) // 2]), minimal_program)
        assert report.exit_code(Severity.WARNING) == 0
        assert report.exit_code(Severity.INFO) == 1


class TestReporting:
    def test_summary_mentions_fitness_and_checks(
        self, purchasing_log, minimal_program
    ):
        summary = replay(purchasing_log, minimal_program).summary()
        assert "fitness: 1.000" in summary
        assert "monitored constraints:" in summary

    def test_counts_by_code_covers_all_codes(self, purchasing_log, minimal_program):
        counts = replay(purchasing_log, minimal_program).counts_by_code()
        assert set(CONF_CODES) <= set(counts)
        assert all(count == 0 for count in counts.values())

    def test_lint_report_exit_codes(self, purchasing_log, minimal_program):
        report = replay(purchasing_log, minimal_program)
        assert report.exit_code() == 0
        lint_report = report.to_lint_report()
        assert lint_report.rules_run == CONF_CODES

    def test_sarif_lists_conf_rules(self, purchasing_log, minimal_program):
        lint_report = replay(purchasing_log, minimal_program).to_lint_report()
        sarif = json.loads(render(lint_report, "sarif"))
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert [rule["id"] for rule in rules] == list(CONF_CODES)

    def test_violation_shows_in_sarif_results(self, purchasing_log, minimal_program):
        events = [e for e in purchasing_log if e.case == "case-1"]
        # Drop every finish event: order obligations fail en masse.
        broken = EventLog([e for e in events if e.lifecycle != "finish"])
        report = replay(broken, minimal_program)
        assert not report.clean
        sarif = json.loads(render(report.to_lint_report(), "sarif"))
        results = sarif["runs"][0]["results"]
        assert any(result["ruleId"].startswith("CONF") for result in results)

    def test_program_from_weave_rejects_unknown_set(self, purchasing_weave):
        with pytest.raises(ValueError, match="minimal"):
            program_from_weave(purchasing_weave, which="bogus")


class TestCategories:
    def test_order_violations_carry_category_letters(
        self, purchasing_log, minimal_program
    ):
        events = [e for e in purchasing_log if e.case == "case-1"]
        broken = EventLog([e for e in events if e.lifecycle != "finish"])
        report = replay(broken, minimal_program)
        assert report.violations_by_category
        letters = set("dTFcsou")
        assert set(report.violations_by_category) <= letters
