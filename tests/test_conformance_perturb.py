"""Perturbed logs: every injected defect is flagged with the right code.

The corpus is the ground truth for the monitor's recall: each of the
seven perturbation kinds declares the ``CONF00x`` code it must trigger,
and both constraint sets (full ASC and minimal) must reach the same
per-case verdict on every corpus entry.
"""

from __future__ import annotations

import pytest

from repro.conformance import (
    EXPECTED_CODES,
    PERTURBATION_KINDS,
    EventLog,
    PerturbationError,
    log_from_traces,
    perturb,
    perturbation_corpus,
    program_from_weave,
    replay,
    verdicts_agree,
)
from repro.lint import Severity
from repro.scheduler.engine import ConstraintScheduler
from tests.conformance_reference import full_scan_replay


@pytest.fixture(scope="module")
def setup(purchasing_process, purchasing_weave):
    traces = {}
    for case, outcomes in (("case-1", {}), ("case-2", {"if_au": "F"})):
        run = ConstraintScheduler(purchasing_process, purchasing_weave.minimal).run(
            outcomes=outcomes
        )
        traces[case] = run.trace
    log = log_from_traces(traces)
    minimal = program_from_weave(purchasing_weave, which="minimal")
    full = program_from_weave(purchasing_weave, which="full")
    return log, minimal, full


@pytest.fixture(scope="module")
def corpus(setup):
    log, minimal, _full = setup
    return perturbation_corpus(
        log, constraints=minimal.constraints, guards=minimal.guards
    )


class TestCorpusShape:
    def test_every_kind_has_an_expected_code(self):
        assert set(EXPECTED_CODES) == set(PERTURBATION_KINDS)

    def test_purchasing_log_supports_at_least_five_kinds(self, corpus):
        kinds = {perturbation.kind for _log, perturbation in corpus}
        assert len(kinds) >= 5

    def test_deterministic_given_seed(self, setup):
        log, minimal, _full = setup
        first, _ = perturb(log, "swap", constraints=minimal.constraints, seed=7)
        second, _ = perturb(log, "swap", constraints=minimal.constraints, seed=7)
        assert first == second

    def test_different_seed_may_pick_other_site(self, setup):
        log, minimal, _full = setup
        logs = {
            perturb(log, "duplicate", seed=seed)[0].to_jsonl() for seed in range(6)
        }
        assert len(logs) > 1

    def test_unknown_kind_rejected(self, setup):
        log, _minimal, _full = setup
        with pytest.raises(PerturbationError, match="unknown perturbation kind"):
            perturb(log, "scramble")

    def test_impossible_kind_raises(self, setup):
        _log, minimal, _full = setup
        with pytest.raises(PerturbationError):
            perturb(EventLog(), "truncate", constraints=minimal.constraints)


class TestDetection:
    def test_each_perturbation_flagged_with_expected_code(self, setup, corpus):
        _log, minimal, _full = setup
        assert corpus, "corpus is empty"
        for perturbed_log, perturbation in corpus:
            report = replay(perturbed_log, minimal)
            counts = report.counts_by_code()
            assert counts[perturbation.expected_code] >= 1, (
                "%s (%s) not flagged: %s"
                % (perturbation.kind, perturbation.description, counts)
            )

    def test_harmful_kinds_violate_the_perturbed_case(self, setup, corpus):
        _log, minimal, _full = setup
        for perturbed_log, perturbation in corpus:
            if perturbation.kind == "truncate":
                continue
            report = replay(perturbed_log, minimal)
            assert perturbation.case in report.violated_cases, perturbation

    def test_truncate_is_benign_residue_only(self, setup, corpus):
        _log, minimal, _full = setup
        truncated = [
            (log, p) for log, p in corpus if p.kind == "truncate"
        ]
        assert truncated
        for perturbed_log, perturbation in truncated:
            report = replay(perturbed_log, minimal)
            assert perturbation.case not in report.violated_cases
            assert report.counts_by_code()["CONF007"] >= 1
            assert report.exit_code(Severity.WARNING) == 0
            assert report.exit_code(Severity.INFO) == 1

    def test_untouched_cases_stay_conformant(self, setup, corpus):
        _log, minimal, _full = setup
        for perturbed_log, perturbation in corpus:
            if perturbation.kind in ("truncate", "alien"):
                continue
            report = replay(perturbed_log, minimal)
            verdicts = report.case_verdicts()
            for case, conformant in verdicts.items():
                if case != perturbation.case:
                    assert conformant, (perturbation, case)

    def test_minimal_and_full_agree_on_every_entry(self, setup, corpus):
        _log, minimal, full = setup
        for perturbed_log, perturbation in corpus:
            minimal_report = replay(perturbed_log, minimal)
            full_report = replay(perturbed_log, full)
            assert verdicts_agree(minimal_report, full_report), perturbation
            assert minimal_report.checks <= full_report.checks

    def test_naive_and_indexed_agree_on_every_entry(self, setup, corpus):
        _log, minimal, _full = setup
        for perturbed_log, perturbation in corpus:
            fast = replay(perturbed_log, minimal)
            slow = full_scan_replay(perturbed_log, minimal)
            assert verdicts_agree(fast, slow), perturbation
            assert fast.checks <= slow.checks

    def test_watcher_index_is_the_filtered_full_lists(self, setup, corpus):
        """The index is exactly the full lists filtered by activity, so it
        reaches the full scan's verdicts while inspecting fewer watchers."""
        log, minimal, full = setup
        for program in (minimal, full):
            for activity in program.activities:
                assert program.incoming.get(activity, ()) == tuple(
                    c for c in program.constraints if c.target == activity
                )
                for on_finish, index in (
                    (False, program.fine_on_start),
                    (True, program.fine_on_finish),
                ):
                    assert index.get(activity, ()) == tuple(
                        f for f in program.fine_grained
                        if f.right == activity
                        and f.right_triggers_on_finish == on_finish
                    )
                assert program.exclusive_index.get(activity, ()) == tuple(
                    x for x in program.exclusives if activity in (x.left, x.right)
                )
            for perturbed_log, perturbation in [(log, None)] + list(corpus):
                report = replay(perturbed_log, program)
                assert report.checks < report.events * program.size, perturbation

    def test_swap_counts_a_category(self, setup):
        log, minimal, _full = setup
        perturbed_log, _ = perturb(log, "swap", constraints=minimal.constraints)
        report = replay(perturbed_log, minimal)
        assert sum(report.violations_by_category.values()) >= 1
