"""Multi-case serving throughput: minimal vs full set, runtime vs scheduler.

The serving-side restatement of the paper's claim: minimizing the
synchronization constraint set is not only a design-time simplification —
it is runtime capacity.  Every admitted case evaluates its ready set
against the constraint program, so fewer constraints (minimal vs full
ASC) and cheaper evaluation (the runtime's dirty-set worklist vs the
scheduler's full rescan) translate directly into cases per second.
Three claims are pinned:

* serving the same case load against the minimal and the full set yields
  **identical per-case final states** (equal to the scheduler's), at
  strictly fewer constraint checks per transition and no less throughput
  for the minimal set;
* the runtime inspects strictly fewer constraints than
  ``ConstraintScheduler`` running every case of the same load, again
  with identical results;
* a run crashed mid-flight (journal fault injection) and recovered
  completes exactly the same case set as an uninterrupted run.

``checks`` counts the incoming constraints each readiness test inspects,
on the runtime and on the scheduler alike (the scheduler stops at the
first unsatisfied one).

``BENCH_RUNTIME_CASES`` scales the concurrent-case count (default 1000;
CI's runtime-smoke job sets a small value).  Artifacts land in
``benchmarks/artifacts/runtime_*.txt``.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.core.pipeline import DSCWeaver, extract_all_dependencies
from repro.runtime import Runtime, SimulatedCrash, program_from_weave
from repro.workloads.purchasing import (
    build_purchasing_process,
    purchasing_cooperation_dependencies,
)
from repro.workloads.synthetic import SyntheticSpec, generate_dependency_set

CASES = int(os.environ.get("BENCH_RUNTIME_CASES", "1000"))
SHARDS = 8
ROUNDS = 3
#: interleaved minimal/full rounds behind the throughput comparison; the
#: two sets differ by a few percent, so host drift must hit both alike.
#: Even, so each program runs first in half of the rounds.
PAIRED_ROUNDS = 10
WORKLOADS = ["purchasing", "synthetic"]


def _weave(workload: str):
    if workload == "purchasing":
        process = build_purchasing_process()
        dependencies = extract_all_dependencies(
            process, cooperation=purchasing_cooperation_dependencies(process)
        )
    else:
        process, dependencies = generate_dependency_set(
            SyntheticSpec(n_activities=40, n_services=4, n_branches=2, seed=11)
        )
    return DSCWeaver().weave(process, dependencies)


def _case_plans(program, count):
    """Outcome plans enumerating guard-domain combinations (mixed radix)."""
    guards = program.guard_names()
    domains = {guard: program.outcome_domain(guard) for guard in guards}
    plans = {}
    for index in range(count):
        plan = {}
        shift = index
        for guard in guards:
            domain = domains[guard]
            plan[guard] = domain[shift % len(domain)]
            shift //= len(domain)
        plans["case-%05d" % index] = plan
    return plans


def _serve(program, plans, **options):
    runtime = Runtime(program, shards=SHARDS, **options)
    runtime.submit_batch(plans)
    report = runtime.run()
    runtime.close()
    return report


def _best_of(program, plans, rounds=ROUNDS, **options):
    """(best wall seconds, last report) over ``rounds`` fresh runtimes."""
    best, report = None, None
    for _ in range(rounds):
        report = _serve(program, plans, **options)
        wall = report.metrics.wall_seconds
        best = wall if best is None else min(best, wall)
    return best, report


def _paired_cpu_medians(programs, plans):
    """``(median CPU seconds, last report)`` per program of ``plans``
    served ``PAIRED_ROUNDS`` times, the programs interleaved round by
    round (alternating which goes first) so host-speed drift lands on
    every side alike."""
    seconds = [[] for _ in programs]
    reports = [None for _ in programs]
    for round_index in range(PAIRED_ROUNDS):
        order = list(range(len(programs)))
        if round_index % 2:
            order.reverse()
        for index in order:
            started = time.process_time()
            reports[index] = _serve(programs[index], plans)
            seconds[index].append(time.process_time() - started)
    return [statistics.median(values) for values in seconds], reports


@pytest.fixture(scope="module")
def prepared():
    """``workload -> (minimal program, full program, case plans)``."""
    out = {}
    for workload in WORKLOADS:
        result = _weave(workload)
        minimal = program_from_weave(result, "minimal", target="runtime")
        full = program_from_weave(result, "full", target="runtime")
        out[workload] = (minimal, full, _case_plans(minimal, CASES))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_vs_full_throughput(
    benchmark, prepared, workload, artifact_sink, scheduler_serve
):
    minimal, full, plans = prepared[workload]

    report = benchmark.pedantic(
        _serve, args=(minimal, plans), rounds=ROUNDS, iterations=1
    )
    (cpu_minimal, cpu_full), (_, full_report) = _paired_cpu_medians(
        (minimal, full), plans
    )
    _wall, reference, _checks, _transitions = scheduler_serve(minimal, plans)

    assert report.metrics.completed == CASES
    assert full_report.metrics.completed == CASES
    # the acceptance property: identical per-case final states...
    assert report.final_states() == full_report.final_states()
    assert report.final_states() == reference
    # ...at strictly less evaluation work and no less throughput
    assert report.metrics.checks < full_report.metrics.checks
    assert cpu_minimal <= cpu_full

    artifact_sink(
        "runtime_throughput_%s" % workload,
        "multi-case serving, minimal vs full set — %s, %d concurrent cases, "
        "%d shards\n"
        "constraints: full=%d minimal=%d\n"
        "checks/transition: full=%.2f minimal=%.2f\n"
        "throughput (median CPU time of %d interleaved rounds): full=%.0f "
        "cases/sec, minimal=%.0f cases/sec (%.2fx)\n"
        "virtual latency (minimal): p50=%.1f p95=%.1f\n"
        "per-case final states identical: yes"
        % (
            workload,
            CASES,
            SHARDS,
            len(full.constraints),
            len(minimal.constraints),
            full_report.metrics.checks_per_transition,
            report.metrics.checks_per_transition,
            PAIRED_ROUNDS,
            CASES / cpu_full,
            CASES / cpu_minimal,
            cpu_full / cpu_minimal,
            report.metrics.latency_p50,
            report.metrics.latency_p95,
        ),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runtime_vs_scheduler_evaluation(
    benchmark, prepared, workload, artifact_sink, scheduler_serve
):
    minimal, _full, plans = prepared[workload]

    report = benchmark.pedantic(
        _serve, args=(minimal, plans), rounds=ROUNDS, iterations=1
    )
    best_runtime, _ = _best_of(minimal, plans)
    runs = [scheduler_serve(minimal, plans) for _ in range(ROUNDS)]
    best_scheduler = min(run[0] for run in runs)
    _wall, reference, scheduler_checks, transitions = runs[-1]

    assert report.metrics.completed == CASES
    assert report.final_states() == reference
    assert report.metrics.transitions == transitions
    assert report.metrics.checks < scheduler_checks

    artifact_sink(
        "runtime_vs_scheduler_%s" % workload,
        "ready-set evaluation, runtime dirty-set worklist vs scheduler full "
        "scan (one ConstraintScheduler run per case) — %s, %d cases\n"
        "constraint inspections: scheduler=%d runtime=%d (%.1fx fewer)\n"
        "wall (best of %d): scheduler=%.3fs runtime=%.3fs\n"
        "per-case final states identical: yes"
        % (
            workload,
            CASES,
            scheduler_checks,
            report.metrics.checks,
            scheduler_checks / report.metrics.checks,
            ROUNDS,
            best_scheduler,
            best_runtime,
        ),
    )


def test_crash_recovery_equivalence(benchmark, prepared, tmp_path, artifact_sink):
    """An interrupted-then-recovered run completes the same case set."""
    minimal, _full, plans = prepared["purchasing"]
    small = dict(list(plans.items())[: min(len(plans), 50)])
    baseline = _serve(
        minimal, small, journal_path=str(tmp_path / "baseline.jsonl")
    )
    # Crash late enough that some cases already completed (they get adopted
    # from the journal) while others are still mid-flight (they get resumed).
    crash_after = baseline.metrics.journal_records - len(small) // 2

    def crash_and_recover():
        path = str(tmp_path / "wal.jsonl")
        crashed = Runtime(
            minimal, shards=SHARDS, journal_path=path, crash_after=crash_after
        )
        try:
            crashed.submit_batch(small)
            crashed.run()
        except SimulatedCrash:
            pass
        finally:
            crashed.close()
        recovered = Runtime.recover(path, minimal, shards=SHARDS)
        for case, outcomes in small.items():
            if case not in recovered.known_cases:
                recovered.submit(case, outcomes)
        report = recovered.run()
        recovered.close()
        return report

    report = benchmark.pedantic(crash_and_recover, rounds=1, iterations=1)

    assert report.completed_cases() == tuple(sorted(small))
    assert report.final_states() == baseline.final_states()
    assert not report.diagnostics
    assert report.metrics.recovered > 0

    artifact_sink(
        "runtime_crash_recovery",
        "crash/recovery equivalence — purchasing, %d cases, crash after "
        "%d of %d journal records\n"
        "adopted completed cases: %d, resumed in-flight: %d\n"
        "completed-case set identical to uninterrupted run: yes\n"
        "per-case final states identical: yes"
        % (
            len(small),
            crash_after,
            baseline.metrics.journal_records,
            report.metrics.recovered,
            len(small) - report.metrics.recovered,
        ),
    )
