"""Unit tests for the compiled watcher index and the streaming monitor.

Each CONF00x code gets a hand-built minimal scenario.  A test-local
full-scan reference monitor (every lookup filters the full watcher lists)
pins the compiled index to identical diagnostics at lower cost.
"""

from __future__ import annotations

import pytest

from repro.analysis.conditions import Cond, ConditionDomains
from repro.conformance import (
    FINISH,
    SKIP,
    START,
    ConformanceMonitor,
    Event,
    Verdict,
    compile_monitor,
)
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.dscl.ast import Exclusive, HappenBefore
from repro.model.activity import ActivityState, StateRef
from tests.conformance_reference import FullScanMonitor


def small_sc() -> SynchronizationConstraintSet:
    """``a -> b`` unconditional, ``g ->T c`` conditional, ``c`` guarded."""
    return SynchronizationConstraintSet(
        activities=["a", "b", "g", "c"],
        constraints=[Constraint("a", "b"), Constraint("g", "c", "T")],
        guards={"c": frozenset({Cond("g", "T")})},
        domains=ConditionDomains(),
    )


def program(**kwargs):
    return compile_monitor(small_sc(), **kwargs)


def feed_all(monitor: ConformanceMonitor, events) -> None:
    for event in events:
        monitor.feed(event)
    monitor.finish()


def codes(monitor: ConformanceMonitor):
    return [d.code for d in monitor.diagnostics]


CLEAN_TRUE_BRANCH = [
    Event("c1", "a", START, 0.0),
    Event("c1", "g", START, 0.0),
    Event("c1", "a", FINISH, 1.0),
    Event("c1", "g", FINISH, 1.0, outcome="T"),
    Event("c1", "b", START, 1.0),
    Event("c1", "c", START, 1.0),
    Event("c1", "b", FINISH, 2.0),
    Event("c1", "c", FINISH, 2.0),
]

CLEAN_FALSE_BRANCH = [
    Event("c1", "a", START, 0.0),
    Event("c1", "g", START, 0.0),
    Event("c1", "a", FINISH, 1.0),
    Event("c1", "g", FINISH, 1.0, outcome="F"),
    Event("c1", "b", START, 1.0),
    Event("c1", "c", SKIP, 1.0),
    Event("c1", "b", FINISH, 2.0),
]


class TestCompile:
    def test_index_shape(self):
        compiled = program()
        assert [c.target for c in compiled.incoming["b"]] == ["b"]
        assert [c.target for c in compiled.incoming["c"]] == ["c"]
        assert compiled.guard_dependents == {"g": frozenset({"c"})}
        assert compiled.size == 2

    def test_rejects_service_level_sets(self):
        sc = SynchronizationConstraintSet(
            activities=["a"],
            externals=["svc.port"],
            constraints=[Constraint("a", "svc.port")],
        )
        with pytest.raises(ValueError, match="activity constraint set"):
            compile_monitor(sc)

    def test_fine_grained_split_by_trigger(self):
        fine = [
            HappenBefore(StateRef("a", ActivityState.START), StateRef("b", ActivityState.START)),
            HappenBefore(StateRef("a", ActivityState.FINISH), StateRef("b", ActivityState.FINISH)),
        ]
        compiled = program(fine_grained=fine)
        assert len(compiled.fine_on_start["b"]) == 1
        assert len(compiled.fine_on_finish["b"]) == 1
        assert compiled.size == 4


class TestCleanRuns:
    @pytest.mark.parametrize("events", [CLEAN_TRUE_BRANCH, CLEAN_FALSE_BRANCH])
    @pytest.mark.parametrize("observed", [True, False])
    def test_no_diagnostics(self, events, observed):
        from repro.obs import Observability

        monitor = ConformanceMonitor(
            program(), obs=Observability() if observed else None
        )
        feed_all(monitor, events)
        assert codes(monitor) == []
        assert monitor.violations_by_case == {"c1": 0}

    def test_true_branch_verdicts(self):
        monitor = ConformanceMonitor(program())
        feed_all(monitor, CLEAN_TRUE_BRANCH)
        assert monitor.verdict_counts[Verdict.SATISFIED] == 2
        assert monitor.verdict_counts[Verdict.VIOLATED] == 0

    def test_false_branch_is_vacuous_not_violated(self):
        monitor = ConformanceMonitor(program())
        feed_all(monitor, CLEAN_FALSE_BRANCH)
        assert monitor.verdict_counts[Verdict.SATISFIED] == 1
        # g ->T c never activates: target c was skipped.
        assert monitor.verdict_counts[Verdict.VACUOUS] == 1


class TestViolationCodes:
    def test_conf001_unconditional_order(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "b", START, 0.0))
        assert codes(monitor) == ["CONF001"]
        assert "a -> b" in monitor.diagnostics[0].message

    def test_conf001_conditional_resolved_retroactively(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "c", START, 0.0))  # guard outcome unknown: parked
        assert codes(monitor) == []
        monitor.feed(Event("c1", "g", START, 0.5))
        monitor.feed(Event("c1", "g", FINISH, 1.0, outcome="T"))
        assert codes(monitor) == ["CONF001"]

    def test_conditional_inactive_when_other_branch(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "c", START, 0.0))
        monitor.feed(Event("c1", "g", START, 0.5))
        monitor.feed(Event("c1", "g", FINISH, 1.0, outcome="F"))
        # Order never mattered: branch F makes g ->T c inactive... but c
        # executing although its guard requires g=T is a guard violation.
        assert codes(monitor) == ["CONF006"]
        assert monitor.verdict_counts[Verdict.VIOLATED] == 0

    def test_conf002_fine_grained_start_gate(self):
        fine = [
            HappenBefore(StateRef("a", ActivityState.START), StateRef("b", ActivityState.START))
        ]
        monitor = ConformanceMonitor(program(fine_grained=fine))
        monitor.feed(Event("c1", "b", START, 0.0))
        assert "CONF002" in codes(monitor)

    def test_conf003_exclusive_overlap(self):
        exclusives = [
            Exclusive(StateRef("b", ActivityState.RUN), StateRef("c", ActivityState.RUN))
        ]
        monitor = ConformanceMonitor(program(exclusives=exclusives))
        monitor.feed(Event("c1", "a", START, 0.0))
        monitor.feed(Event("c1", "a", FINISH, 1.0))
        monitor.feed(Event("c1", "g", START, 0.0))
        monitor.feed(Event("c1", "g", FINISH, 1.0, outcome="T"))
        monitor.feed(Event("c1", "b", START, 1.0))
        monitor.feed(Event("c1", "c", START, 1.5))  # b still running
        assert "CONF003" in codes(monitor)

    def test_conf003_no_overlap_when_sequential(self):
        exclusives = [
            Exclusive(StateRef("b", ActivityState.RUN), StateRef("c", ActivityState.RUN))
        ]
        monitor = ConformanceMonitor(program(exclusives=exclusives))
        feed_all(monitor, CLEAN_FALSE_BRANCH)
        assert "CONF003" not in codes(monitor)

    @pytest.mark.parametrize(
        "events,what",
        [
            ([Event("c1", "a", START, 0.0), Event("c1", "a", START, 0.5)], "started twice"),
            ([Event("c1", "a", FINISH, 0.0)], "finished without starting"),
            (
                [
                    Event("c1", "a", START, 0.0),
                    Event("c1", "a", FINISH, 1.0),
                    Event("c1", "a", FINISH, 2.0),
                ],
                "finished twice",
            ),
            ([Event("c1", "c", SKIP, 0.0), Event("c1", "c", SKIP, 0.5)], "skipped twice"),
            ([Event("c1", "a", START, 0.0), Event("c1", "a", SKIP, 0.5)], "skipped after starting"),
            ([Event("c1", "c", SKIP, 0.0), Event("c1", "c", START, 0.5)], "started after being skipped"),
        ],
    )
    def test_conf004_lifecycle(self, events, what):
        monitor = ConformanceMonitor(program())
        for event in events:
            monitor.feed(event)
        lifecycle = [d for d in monitor.diagnostics if d.code == "CONF004"]
        assert lifecycle and what in lifecycle[-1].message

    def test_conf004_time_regression(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "a", START, 5.0))
        monitor.feed(Event("c1", "a", FINISH, 1.0))
        assert any(
            d.code == "CONF004" and "time went backwards" in d.message
            for d in monitor.diagnostics
        )

    def test_conf005_unknown_activity(self):
        monitor = ConformanceMonitor(program())
        found = monitor.feed(Event("c1", "ghost", START, 0.0))
        assert [d.code for d in found] == ["CONF005"]
        assert found[0].severity.name == "WARNING"

    def test_conf006_dead_path_executed(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "g", START, 0.0))
        monitor.feed(Event("c1", "g", FINISH, 1.0, outcome="F"))
        monitor.feed(Event("c1", "c", START, 1.0))  # guard said skip
        assert "CONF006" in codes(monitor)

    def test_conf006_guard_skipped(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "g", SKIP, 0.0))
        monitor.feed(Event("c1", "c", START, 1.0))
        assert "CONF006" in codes(monitor)

    def test_conf006_outcome_outside_domain(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "g", START, 0.0))
        monitor.feed(Event("c1", "g", FINISH, 1.0, outcome="MAYBE"))
        assert any(
            d.code == "CONF006" and "outside its domain" in d.message
            for d in monitor.diagnostics
        )

    def test_conf007_truncated_case_is_informational(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "a", START, 0.0))
        found = monitor.finish()
        assert [d.code for d in found] == ["CONF007"]
        assert found[0].severity.name == "INFO"
        # Residue never marks the case violated.
        assert monitor.violations_by_case == {"c1": 0}

    def test_conf007_pending_obligation_residue(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "c", START, 0.0))  # parked on g, never resolved
        found = monitor.finish()
        assert any("unresolved" in line for d in found for line in d.evidence)
        # Both the guard obligation and the conditional happen-before were
        # parked on g and never resolved.
        assert monitor.verdict_counts[Verdict.PENDING] == 2


class TestCaseIsolation:
    def test_cases_do_not_share_state(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "a", START, 0.0))
        monitor.feed(Event("c1", "a", FINISH, 1.0))
        # a finished in c1 does not license b in c2.
        monitor.feed(Event("c2", "b", START, 0.0))
        assert codes(monitor) == ["CONF001"]
        assert monitor.violations_by_case == {"c1": 0, "c2": 1}

    def test_end_case_closes_only_that_case(self):
        monitor = ConformanceMonitor(program())
        monitor.feed(Event("c1", "a", START, 0.0))
        monitor.feed(Event("c2", "a", START, 0.0))
        monitor.end_case("c1")
        assert monitor.open_cases == ["c2"]


class TestNaiveEquivalence:
    @pytest.mark.parametrize(
        "events",
        [
            CLEAN_TRUE_BRANCH,
            CLEAN_FALSE_BRANCH,
            [Event("c1", "b", START, 0.0)],
            [Event("c1", "c", START, 0.0), Event("c1", "g", START, 0.5),
             Event("c1", "g", FINISH, 1.0, outcome="T")],
        ],
    )
    def test_same_diagnostics_more_checks(self, events):
        fast = ConformanceMonitor(program())
        slow = FullScanMonitor(program())
        feed_all(fast, events)
        feed_all(slow, events)
        assert [d.message for d in fast.diagnostics] == [d.message for d in slow.diagnostics]
        assert fast.checks <= slow.checks
