"""Shared fixtures and the artifact sink for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or one of
the extension experiments in DESIGN.md).  Besides timing the relevant
pipeline stage with ``pytest-benchmark``, each bench writes its artifact —
the rows/series the paper reports — to ``benchmarks/artifacts/<name>.txt``
so the reproduction can be inspected after a run.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.pipeline import DSCWeaver, extract_all_dependencies
from repro.workloads.purchasing import (
    build_purchasing_process,
    purchasing_cooperation_dependencies,
)

ARTIFACT_DIR = pathlib.Path(__file__).parent / "artifacts"


@pytest.fixture(scope="session")
def artifact_sink():
    ARTIFACT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = ARTIFACT_DIR / ("%s.txt" % name)
        path.write_text(text.rstrip() + "\n", encoding="utf-8")

    return write


@pytest.fixture(scope="session")
def purchasing():
    process = build_purchasing_process()
    dependencies = extract_all_dependencies(
        process, cooperation=purchasing_cooperation_dependencies(process)
    )
    return process, dependencies


@pytest.fixture(scope="session")
def purchasing_result(purchasing):
    process, dependencies = purchasing
    return DSCWeaver().weave(process, dependencies)


def _scheduler_serve(program, plans):
    """Run ``ConstraintScheduler`` once per case over ``program``'s own
    constraint set: ``(wall seconds, case -> final state, constraint
    checks, transitions)``.  Final states use the runtime's
    :meth:`~repro.runtime.instance.CaseResult.final_state` layout."""
    import time

    from repro.conformance.adapter import events_from_trace
    from repro.core.constraints import SynchronizationConstraintSet
    from repro.scheduler.engine import ConstraintScheduler

    scheduler = ConstraintScheduler(
        program.process,
        SynchronizationConstraintSet(
            activities=program.activities,
            constraints=program.constraints,
            guards=program.guards,
            domains=program.domains,
        ),
        fine_grained=program.fine_grained,
        exclusives=program.exclusives,
    )
    started = time.perf_counter()
    runs = {case: scheduler.run(outcomes=plan) for case, plan in plans.items()}
    wall = time.perf_counter() - started
    states = {
        case: (
            "completed",
            tuple(
                sorted(
                    ((r.name, r.start, r.finish) for r in run.trace.executed()),
                    key=lambda row: (row[2], row[0]),
                )
            ),
            tuple(sorted(run.trace.skipped())),
            tuple(sorted(run.outcomes.items())),
        )
        for case, run in runs.items()
    }
    checks = sum(run.constraint_checks for run in runs.values())
    transitions = sum(
        len(events_from_trace(run.trace, case)) for case, run in runs.items()
    )
    return wall, states, checks, transitions


@pytest.fixture(scope="session")
def scheduler_serve():
    """The independent reference for serving benchmarks: every case of a
    load run through the single-case scheduler's full-scan evaluator."""
    return _scheduler_serve
