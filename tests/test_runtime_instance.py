"""Tests for the compiled constraint program and per-case instances.

The load-bearing property: under the default lossless retry policy, a
:class:`~repro.runtime.instance.CaseInstance` produces bit-for-bit the
same schedule (activities, start/finish times, outcomes, skips) as the
single-case :class:`~repro.scheduler.engine.ConstraintScheduler`, for
every workload and every guard-outcome combination.  Everything else the
runtime layers on (journaling, sharding, recovery) rests on this.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.dscl.ast import HappenBefore
from repro.errors import SchedulingError
from repro.model.activity import ActivityState, StateRef
from repro.model.builder import ProcessBuilder
from repro.runtime import (
    CaseInstance,
    CaseStatus,
    compile_program,
    program_from_weave,
)
from repro.scheduler.engine import ConstraintScheduler


def outcome_combos(program):
    """Every guard-outcome assignment of ``program``, as dicts."""
    guards = program.guard_names()
    domains = [program.outcome_domain(guard) for guard in guards]
    for values in itertools.product(*domains):
        yield dict(zip(guards, values))


def reference_schedule(process, result, sc, outcomes):
    run = ConstraintScheduler(
        process,
        sc,
        fine_grained=result.fine_grained,
        exclusives=result.exclusives,
    ).run(outcomes=outcomes)
    executed = sorted(
        (record.name, record.start, record.finish)
        for record in run.trace.executed()
    )
    return executed, sorted(run.trace.skipped()), run.makespan


class TestConstraintProgram:
    def test_compiles_all_workloads(self, all_weaves):
        for name, (_process, result) in all_weaves.items():
            program = program_from_weave(result, "minimal", target="runtime")
            assert program.activities, name
            assert program.size >= len(program.constraints)

    def test_incoming_index_partitions_constraints(self, purchasing_weave):
        program = program_from_weave(purchasing_weave, "minimal", target="runtime")
        indexed = sum(len(found) for found in program.incoming.values())
        assert indexed == len(program.constraints)
        for name, found in program.incoming.items():
            assert all(constraint.target == name for constraint in found)

    def test_minimal_program_is_smaller(self, purchasing_weave):
        minimal = program_from_weave(purchasing_weave, "minimal", target="runtime")
        full = program_from_weave(purchasing_weave, "full", target="runtime")
        assert len(minimal.constraints) < len(full.constraints)

    def test_rejects_unknown_which(self, purchasing_weave):
        with pytest.raises(ValueError, match="minimal.*full"):
            program_from_weave(purchasing_weave, "bogus", target="runtime")

    def test_rejects_service_set(self, purchasing_process, purchasing_weave):
        with pytest.raises(SchedulingError, match="activity constraint set"):
            compile_program(purchasing_process, purchasing_weave.merged)

    def test_guard_names_in_scheduling_order(self, purchasing_weave):
        program = program_from_weave(purchasing_weave, "minimal", target="runtime")
        guards = program.guard_names()
        assert "if_au" in guards
        positions = [program.activities.index(guard) for guard in guards]
        assert positions == sorted(positions)


class TestSchedulerEquivalence:
    def test_every_workload_every_outcome(self, all_weaves):
        for name, (process, result) in all_weaves.items():
            program = program_from_weave(result, "minimal", target="runtime")
            for outcomes in outcome_combos(program):
                executed, skipped, makespan = reference_schedule(
                    process, result, result.minimal, outcomes
                )
                instance = CaseInstance("c", program, outcomes=outcomes)
                run = instance.run_to_completion()
                label = "%s %r" % (name, outcomes)
                assert run.status == "completed", label
                assert sorted(run.executed) == executed, label
                assert sorted(run.skipped) == skipped, label
                assert run.makespan == makespan, label

    def test_minimal_and_full_agree_per_case(self, all_weaves):
        for name, (_process, result) in all_weaves.items():
            minimal = program_from_weave(result, "minimal", target="runtime")
            full = program_from_weave(result, "full", target="runtime")
            for outcomes in outcome_combos(minimal):
                a = CaseInstance("c", minimal, outcomes=outcomes).run_to_completion()
                b = CaseInstance("c", full, outcomes=outcomes).run_to_completion()
                assert a.final_state() == b.final_state(), name

    def test_outcome_plan_changes_path(self, purchasing_weave):
        program = program_from_weave(purchasing_weave, "minimal", target="runtime")
        taken = CaseInstance("c", program, outcomes={"if_au": "T"}).run_to_completion()
        declined = CaseInstance(
            "c", program, outcomes={"if_au": "F"}
        ).run_to_completion()
        assert taken.final_state() != declined.final_state()
        assert declined.skipped


class TestEvaluationCost:
    def test_minimal_costs_fewer_checks_than_full(self, purchasing_weave):
        minimal = program_from_weave(purchasing_weave, "minimal", target="runtime")
        full = program_from_weave(purchasing_weave, "full", target="runtime")
        a = CaseInstance("c", minimal).run_to_completion()
        b = CaseInstance("c", full).run_to_completion()
        assert a.checks < b.checks

    def test_dirty_set_costs_fewer_checks_than_full_scan(self, all_weaves):
        # The scheduler re-scans every pending activity on every pass; the
        # runtime re-checks only activities incident to a state change.
        # Both count the incoming constraints each readiness test inspects.
        for name, (process, result) in all_weaves.items():
            program = program_from_weave(result, "minimal", target="runtime")
            for outcomes in outcome_combos(program):
                run = CaseInstance("c", program, outcomes=outcomes).run_to_completion()
                scan = ConstraintScheduler(
                    process,
                    result.minimal,
                    fine_grained=result.fine_grained,
                    exclusives=result.exclusives,
                ).run(outcomes=outcomes)
                assert run.makespan == scan.makespan, name
                assert run.checks < scan.constraint_checks, (name, outcomes)

    def test_checks_and_transitions_are_recorded(self, purchasing_weave):
        program = program_from_weave(purchasing_weave, "minimal", target="runtime")
        run = CaseInstance("c", program).run_to_completion()
        assert run.transitions == len(run.executed) * 2 + len(run.skipped)
        assert run.checks > 0


class TestStepwiseExecution:
    def test_advance_matches_run_to_completion(self, purchasing_weave):
        program = program_from_weave(purchasing_weave, "minimal", target="runtime")
        stepped = CaseInstance("c", program)
        while stepped.advance():
            pass
        whole = CaseInstance("c", program).run_to_completion()
        assert stepped.result() == whole

    def test_step_after_completion_is_inert(self, purchasing_weave):
        program = program_from_weave(purchasing_weave, "minimal", target="runtime")
        instance = CaseInstance("c", program)
        instance.run_to_completion()
        assert instance.status is CaseStatus.COMPLETED
        assert instance.step() is False


def foreign_gated_program(right_state):
    """``x -> y`` plus ``F(ext) -> <right_state>(y)``, where ``ext`` is a
    process activity the constraint set does not schedule."""
    process = (
        ProcessBuilder("foreign-gate")
        .compute("ext")
        .compute("x")
        .compute("y")
        .build()
    )
    sc = SynchronizationConstraintSet(
        activities=["x", "y"], constraints=[Constraint("x", "y")]
    )
    gate = HappenBefore(
        StateRef("ext", ActivityState.FINISH), StateRef("y", right_state)
    )
    return compile_program(process, sc, fine_grained=[gate])


class TestForeignFineGrainedGate:
    """A fine-grained left side outside the program is never started,
    finished or skipped, so the gate it imposes never opens."""

    def _deadlock(self, right_state):
        instance = CaseInstance("c", foreign_gated_program(right_state))
        result = instance.run_to_completion()
        assert result.status == "failed"
        (rt004,) = [d for d in instance.diagnostics if d.code == "RT004"]
        return result, rt004.evidence

    def test_start_side_blocks_forever(self):
        result, evidence = self._deadlock(ActivityState.START)
        assert [name for name, _, _ in result.executed] == ["x"]
        assert "y start-gated by a fine-grained dependency" in evidence

    def test_finish_side_blocks_forever(self):
        result, evidence = self._deadlock(ActivityState.FINISH)
        # y starts, but its finish is held back for good.
        assert [name for name, _, _ in result.executed] == ["x"]
        assert "y is RUNNING but its finish is gated" in evidence
        assert result.transitions == 3

    @pytest.mark.parametrize("right_state", [ActivityState.START, ActivityState.FINISH])
    def test_verifier_reports_the_same_blocker(self, right_state):
        from repro.verify import verify_program

        program = foreign_gated_program(right_state)
        ver001 = next(
            d for d in verify_program(program).diagnostics if d.code == "VER001"
        )
        _result, evidence = self._deadlock(right_state)
        assert [line for line in ver001.evidence if line.startswith("y ")] == [
            line for line in evidence if line.startswith("y ")
        ]
