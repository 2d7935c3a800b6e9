"""Differential validation of the mask-compiled runtime against the scheduler.

The runtime's bitmask evaluator must be observationally identical to the
independent object-walking reference, :class:`ConstraintScheduler` — not
just on the paper's workloads but on *random* guarded DAGs (including
activities guarded by two independent decisions), under every
minimization semantics, and at arbitrary crash points:

* every case's journaled events (activity, lifecycle, time, outcome, in
  order) equal ``events_from_trace`` of ``ConstraintScheduler.run`` for
  the case's outcome plan,
* the metrics counters are the ones the scheduler's runs imply,
* the conformance monitor gives the journal and the scheduler's traces
  the same verdicts.

The random sets come from :mod:`tests.strategies`; the process is
synthesized from the constraint set the same way the verifier's
differential oracle does it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.adapter import events_from_trace, log_from_traces
from repro.conformance.monitor import compile_monitor
from repro.conformance.replay import replay
from repro.core.closure import Semantics
from repro.core.minimize import minimize
from repro.discover.ingest import log_from_journal
from repro.runtime import Runtime, ShardedStore, SimulatedCrash, read_journal
from repro.runtime.metrics import latency_quantiles
from repro.runtime.program import compile_program
from repro.scheduler.engine import ConstraintScheduler
from repro.verify import synthesize_process

from tests.strategies import constraint_sets

CASES = 6
SHARDS = 3

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _program(sc, semantics):
    minimal = minimize(sc, semantics=semantics)
    process = synthesize_process(minimal)
    return compile_program(process, minimal), minimal, process


def _plans(program, count=CASES):
    """Outcome plans cycling through guard-domain combinations."""
    guards = program.guard_names()
    domains = {guard: program.outcome_domain(guard) for guard in guards}
    plans = {}
    for index in range(count):
        plan, shift = {}, index
        for guard in guards:
            domain = domains[guard]
            plan[guard] = domain[shift % len(domain)]
            shift //= len(domain)
        plans["case-%03d" % index] = plan
    return plans


def _scheduled(process, minimal, plans):
    """``case -> ExecutionResult`` of the reference scheduler."""
    scheduler = ConstraintScheduler(process, minimal)
    return {
        case: scheduler.run(outcomes=plan, raise_on_deadlock=False)
        for case, plan in plans.items()
    }


def _event_rows(events):
    return [(e.activity, e.lifecycle, e.time, e.outcome) for e in events]


def _assert_journal_matches(path, scheduled):
    journal = read_journal(path)
    assert sorted(journal.cases) == sorted(scheduled)
    for case, run in scheduled.items():
        assert _event_rows(journal.cases[case].events) == _event_rows(
            events_from_trace(run.trace, case)
        ), case


def _serve(program, plans, path):
    runtime = Runtime(program, shards=SHARDS, journal_path=path)
    runtime.submit_batch(plans)
    report = runtime.run()
    runtime.close()
    return report


def _crash_and_recover(program, plans, path, crash_after):
    crashing = Runtime(
        program,
        shards=SHARDS,
        journal_path=path,
        crash_after=crash_after,
    )
    try:
        crashing.submit_batch(plans)
        crashing.run()
        pytest.fail("crash point %d beyond the journal" % crash_after)
    except SimulatedCrash:
        pass
    finally:
        crashing.close()
    adopted = sorted(journaled.case for journaled in read_journal(path).completed())
    recovered = Runtime.recover(path, program, shards=SHARDS)
    for case, outcomes in plans.items():
        if case not in recovered.known_cases:
            recovered.submit(case, outcomes)
    report = recovered.run()
    recovered.close()
    return report, adopted


def _counters(report):
    """Every deterministic metrics counter (``checks`` has no scheduler
    twin; wall/peak fields are timing-dependent)."""
    metrics = report.metrics
    return {
        "submitted": metrics.submitted,
        "admitted": metrics.admitted,
        "completed": metrics.completed,
        "failed": metrics.failed,
        "rejected": metrics.rejected,
        "recovered": metrics.recovered,
        "retries": metrics.retries,
        "transitions": metrics.transitions,
        "journal_records": metrics.journal_records,
        "latency_p50": metrics.latency_p50,
        "latency_p95": metrics.latency_p95,
        "shard_assigned": metrics.shard_assigned,
    }


def _event_count(runs):
    return sum(len(events_from_trace(run.trace, "c")) for run in runs)


def _expected_counters(scheduled, served, adopted=()):
    """The counters a runtime serving ``served`` (and adopting
    ``adopted``) must report, derived from the scheduler's runs."""
    runs = [scheduled[case] for case in served]
    completed = [run for run in runs if not run.deadlocked]
    store = ShardedStore(SHARDS)
    for case in served:
        store.shard_of(case).assigned += 1
    p50, p95 = latency_quantiles(tuple(run.makespan for run in completed))
    return {
        "submitted": len(served),
        "admitted": len(served),
        "completed": len(completed),
        "failed": len(runs) - len(completed),
        "rejected": 0,
        "recovered": len(adopted),
        "retries": 0,
        "transitions": _event_count(runs),
        # the whole journal: one admit and one completion record per case,
        # plus its events
        "journal_records": 2 * len(scheduled) + _event_count(scheduled.values()),
        "latency_p50": p50,
        "latency_p95": p95,
        "shard_assigned": store.assigned_counts(),
    }


def _verdicts(log, sc):
    report = replay(log, compile_monitor(sc))
    return report.case_verdicts(), report.verdict_counts


class TestMaskObjectDifferential:
    @settings(max_examples=25, **SETTINGS)
    @given(
        sc=constraint_sets(max_nodes=7, max_edges=12),
        semantics=st.sampled_from(sorted(Semantics, key=lambda s: s.value)),
    )
    def test_identical_serving(self, tmp_path_factory, sc, semantics):
        program, minimal, process = _program(sc, semantics)
        plans = _plans(program)
        scheduled = _scheduled(process, minimal, plans)
        path = str(tmp_path_factory.mktemp("diff") / "wal.jsonl")
        report = _serve(program, plans, path)

        _assert_journal_matches(path, scheduled)
        assert _counters(report) == _expected_counters(scheduled, sorted(plans))
        traces = {case: run.trace for case, run in scheduled.items()}
        assert _verdicts(log_from_journal(path), minimal) == _verdicts(
            log_from_traces(traces), minimal
        )

    @settings(max_examples=12, **SETTINGS)
    @given(
        sc=constraint_sets(min_nodes=3, max_nodes=7, max_edges=12),
        semantics=st.sampled_from(sorted(Semantics, key=lambda s: s.value)),
        fraction=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_identical_across_crash_points(
        self, tmp_path_factory, sc, semantics, fraction
    ):
        program, minimal, process = _program(sc, semantics)
        plans = _plans(program)
        scheduled = _scheduled(process, minimal, plans)
        directory = tmp_path_factory.mktemp("crash")
        baseline = _serve(program, plans, str(directory / "baseline.jsonl"))
        crash_after = max(1, int(baseline.metrics.journal_records * fraction))

        path = str(directory / "wal.jsonl")
        report, adopted = _crash_and_recover(program, plans, path, crash_after)

        _assert_journal_matches(path, scheduled)
        assert report.final_states() == baseline.final_states()
        assert not [d for d in report.diagnostics if d.code == "RT003"]
        resumed = sorted(set(plans) - set(adopted))
        assert _counters(report) == _expected_counters(
            scheduled, resumed, adopted=adopted
        )
        traces = {case: run.trace for case, run in scheduled.items()}
        assert _verdicts(log_from_journal(path), minimal) == _verdicts(
            log_from_traces(traces), minimal
        )
