"""Conformance-monitoring cost: compiled watcher index vs the full-scan
cost, full ASC vs minimal set.

The replay-level counterpart of ``bench_monitoring_cost``: instead of
counting the *scheduler's* constraint evaluations we count the *monitor's*
constraint inspections while replaying recorded event logs.  Two claims
are pinned:

* the compiled per-activity watcher index inspects strictly fewer
  watchers than a full scan would (every monitored constraint on every
  event);
* monitoring against the minimal set is cheaper than against the full
  translated ASC, with identical per-case verdicts — on clean logs and on
  the whole known-violation perturbation corpus.
"""

from __future__ import annotations

import pytest

from repro.conformance import (
    log_from_traces,
    perturbation_corpus,
    program_from_weave,
    replay,
    verdicts_agree,
)
from repro.core.pipeline import DSCWeaver, extract_all_dependencies
from repro.scheduler.engine import ConstraintScheduler
from repro.workloads.insurance import build_insurance_process, insurance_cooperation
from repro.workloads.purchasing import (
    build_purchasing_process,
    purchasing_cooperation_dependencies,
)

WORKLOADS = ["purchasing", "insurance"]
CASES_PER_LOG = 20


def _weave(workload: str):
    if workload == "purchasing":
        process = build_purchasing_process()
        cooperation = purchasing_cooperation_dependencies(process)
    else:
        process = build_insurance_process()
        cooperation = insurance_cooperation(process).dependencies
    dependencies = extract_all_dependencies(process, cooperation=cooperation)
    return process, DSCWeaver().weave(process, dependencies)


@pytest.fixture(scope="module")
def prepared():
    """``workload -> (log, minimal program, full program)``.

    Each log holds ``CASES_PER_LOG`` cases cycling through every guard
    outcome combination, so both branches of every guard are exercised.
    """
    out = {}
    for workload in WORKLOADS:
        process, weave = _weave(workload)
        guards = sorted(a.name for a in process.activities if a.is_guard)
        traces = {}
        for index in range(CASES_PER_LOG):
            outcomes = {
                guard: "T" if (index >> position) & 1 == 0 else "F"
                for position, guard in enumerate(guards)
            }
            run = ConstraintScheduler(process, weave.minimal).run(outcomes=outcomes)
            traces["case-%d" % (index + 1)] = run.trace
        out[workload] = (
            log_from_traces(traces),
            program_from_weave(weave, which="minimal"),
            program_from_weave(weave, which="full"),
        )
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_compiled_vs_full_scan(benchmark, prepared, workload, artifact_sink):
    log, minimal, _full = prepared[workload]

    report = benchmark(replay, log, minimal)

    full_scan = report.events * report.program_size
    assert report.clean
    assert report.checks < full_scan

    artifact_sink(
        "conformance_index_%s" % workload,
        "compiled watcher index vs a full scan (every monitored constraint "
        "on every event) — %s, %d cases, %d events\n"
        "checks per event: indexed=%.2f full scan=%d (%.1fx fewer inspections)"
        % (
            workload,
            report.cases,
            report.events,
            report.checks_per_event,
            report.program_size,
            full_scan / report.checks,
        ),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_vs_full_monitoring(benchmark, prepared, workload, artifact_sink):
    log, minimal, full = prepared[workload]

    report = benchmark(replay, log, minimal)

    full_report = replay(log, full)
    assert report.clean and full_report.clean
    assert verdicts_agree(report, full_report)
    assert report.program_size < full_report.program_size
    assert report.checks < full_report.checks

    reduction = 1.0 - report.checks / full_report.checks
    artifact_sink(
        "conformance_sets_%s" % workload,
        "monitoring cost, minimal vs full ASC — %s, %d cases, %d events\n"
        "monitored constraints: full=%d minimal=%d\n"
        "checks: full=%d minimal=%d (%.0f%% less monitoring)\n"
        "verdicts identical: yes (fitness %.3f both)"
        % (
            workload,
            report.cases,
            report.events,
            full_report.program_size,
            report.program_size,
            full_report.checks,
            report.checks,
            reduction * 100,
            report.fitness,
        ),
    )


def test_perturbation_corpus_detection(benchmark, prepared, artifact_sink):
    log, minimal, full = prepared["purchasing"]
    corpus = perturbation_corpus(
        log, constraints=minimal.constraints, guards=minimal.guards
    )
    assert len(corpus) >= 5

    def check_corpus():
        return [
            (perturbation, replay(perturbed, minimal)) for perturbed, perturbation in corpus
        ]

    reports = benchmark(check_corpus)

    lines = ["perturbation corpus detection — purchasing, %d entries" % len(corpus)]
    for perturbation, report in reports:
        counts = report.counts_by_code()
        assert counts[perturbation.expected_code] >= 1, perturbation
        full_report = replay(
            next(p_log for p_log, p in corpus if p is perturbation), full
        )
        assert verdicts_agree(report, full_report), perturbation
        lines.append(
            "%-13s -> %s x%d (fitness %.3f, verdicts match full set)"
            % (
                perturbation.kind,
                perturbation.expected_code,
                counts[perturbation.expected_code],
                report.fitness,
            )
        )
    artifact_sink("conformance_perturbations", "\n".join(lines))
