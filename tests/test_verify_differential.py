"""Differential validation of the symbolic verifier (satellite of PR 6).

Three independent oracles must agree with :mod:`repro.verify`:

1. **Brute force** — for random guarded DAGs, enumerating every guard
   valuation through the single-case :class:`ConstraintScheduler` must
   agree on deadlock-freedom, dead activities, and the set of final
   ``(executed, skipped)`` states.  Coarse (service-free, two-phase-free)
   programs are confluent per valuation, so one scheduler run per
   valuation is an exhaustive oracle.
2. **Petri soundness** — the verifier's predicted soundness verdict must
   match :func:`repro.petri.soundness.check_soundness` on the translated
   net (:func:`repro.verify.petri_cross_check`).
3. **Minimization invariance** — the paper's Theorem 1 says the minimal
   and full constraint sets are execution-equivalent, so every workload
   must get identical VER001/VER002/VER003 verdicts from both, and the
   minimal sets must carry no inert constraints at all.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.programs import program_from_weave, select_constraint_set
from repro.scheduler.engine import ConstraintScheduler
from repro.verify import (
    StateSpace,
    petri_cross_check,
    synthesize_process,
    verify_constraints,
    verify_program,
)

from tests.strategies import constraint_sets, unconditional_constraint_sets


def _guards_of(sc):
    names = {cond.guard for conds in sc.guards.values() for cond in conds}
    names.update(
        constraint.source
        for constraint in sc.constraints
        if constraint.condition is not None
    )
    return sorted(names)


def _brute_force(sc):
    """Every guard valuation through the scheduler, one run each."""
    process = synthesize_process(sc)
    guards = _guards_of(sc)
    domains = [sorted(sc.domains.domain(guard)) for guard in guards]
    runs = []
    for values in itertools.product(*domains) if guards else [()]:
        scheduler = ConstraintScheduler(process, sc)
        result = scheduler.run(
            outcomes=dict(zip(guards, values)), raise_on_deadlock=False
        )
        runs.append(result)
    return runs


def _scheduler_finals(sc, runs):
    finals = set()
    for result in runs:
        if result.deadlocked:
            continue
        executed = frozenset(result.executed_names())
        finals.add((executed, frozenset(sc.activities) - executed))
    return finals


def _verifier_finals(sc):
    from repro.runtime.program import compile_program

    program = compile_program(synthesize_process(sc), sc)
    space = StateSpace(program)
    exploration = space.explore(mode="full")
    masks = space.masks
    finals = {
        (
            frozenset(masks.names_of(terminal.done)),
            frozenset(masks.names_of(terminal.skipped)),
        )
        for terminal in exploration.terminals
        if not terminal.deadlocked
    }
    return finals, exploration


class TestBruteForceDifferential:
    @settings(max_examples=60, deadline=None)
    @given(constraint_sets(max_nodes=10, max_edges=18))
    def test_guarded_dags_agree_with_the_scheduler(self, sc):
        report = verify_constraints(sc)
        runs = _brute_force(sc)

        assert report.deadlock_free is (not any(r.deadlocked for r in runs))

        executed_ever = set()
        for result in runs:
            executed_ever.update(result.executed_names())
        assert set(report.dead_activities) == set(sc.activities) - executed_ever

        verifier_finals, _ = _verifier_finals(sc)
        assert verifier_finals == _scheduler_finals(sc, runs)
        assert report.distinct_finals == len(verifier_finals)

    @settings(max_examples=40, deadline=None)
    @given(unconditional_constraint_sets(max_nodes=10))
    def test_unconditional_dags_always_prove_and_run_everything(self, sc):
        report = verify_constraints(sc)
        assert report.deadlock_free is True
        assert report.dead_activities == ()
        assert report.unreachable_branches == ()
        assert report.distinct_finals == 1
        (run,) = _brute_force(sc)
        assert not run.deadlocked
        assert set(run.executed_names()) == set(sc.activities)

    @settings(max_examples=40, deadline=None)
    @given(constraint_sets(max_nodes=8), st.integers(min_value=0, max_value=3))
    def test_interleaving_choice_never_changes_the_verdict(self, sc, seed):
        # Coarse programs are confluent: shuffling scheduler tie-breaking
        # (via activity durations) must not create or remove deadlocks.
        from repro.model.builder import ProcessBuilder

        guard_names = set(_guards_of(sc))
        builder = ProcessBuilder("jittered")
        for position, name in enumerate(sc.activities):
            duration = 1.0 + ((position * 7 + seed * 3) % 5)
            if name in guard_names:
                builder.guard(
                    name,
                    outcomes=sorted(sc.domains.domain(name)),
                    duration=duration,
                )
            else:
                builder.compute(name, duration=duration)
        process = builder.build()
        report = verify_constraints(sc)
        guards = _guards_of(sc)
        domains = [sorted(sc.domains.domain(guard)) for guard in guards]
        deadlocked = False
        for values in itertools.product(*domains) if guards else [()]:
            result = ConstraintScheduler(process, sc).run(
                outcomes=dict(zip(guards, values)), raise_on_deadlock=False
            )
            deadlocked = deadlocked or result.deadlocked
        assert report.deadlock_free is (not deadlocked)


class TestPetriDifferential:
    @settings(max_examples=40, deadline=None)
    @given(constraint_sets(max_nodes=7, max_edges=12, max_guards_per_activity=1))
    def test_random_sets_agree_with_the_soundness_checker(self, sc):
        from repro.errors import PetriNetError

        try:
            cross = petri_cross_check(sc)
        except PetriNetError:
            pytest.skip("set not expressible as a workflow net")
        assert cross.agrees is not False, (
            "verifier predicted %r but the petri checker found %r (%s)"
            % (
                cross.predicted_sound,
                cross.soundness.is_sound,
                cross.soundness.problems,
            )
        )


@pytest.fixture(params=["purchasing", "deployment", "loan", "travel", "insurance"])
def workload(request, all_weaves):
    return request.param, all_weaves[request.param]


class TestWorkloadPins:
    def test_minimal_and_full_sets_verify_identically(self, workload):
        name, (_process, result) = workload
        minimal = verify_program(program_from_weave(result, which="minimal", target="runtime"))
        full = verify_program(program_from_weave(result, which="full", target="runtime"))
        assert minimal.deadlock_free is True, name
        assert full.deadlock_free is True, name
        assert minimal.dead_activities == full.dead_activities == ()
        assert minimal.unreachable_branches == full.unreachable_branches == ()
        assert minimal.distinct_finals == full.distinct_finals

    def test_minimal_sets_have_no_inert_constraints(self, workload):
        name, (_process, result) = workload
        report = verify_program(
            program_from_weave(result, which="minimal", target="runtime")
        )
        assert report.influence_analyzed, name
        assert report.inert_constraints == (), name

    def test_full_set_inert_constraints_are_all_redundant(self, workload):
        # Every constraint the influence analysis calls inert must be one
        # minimization also discards — VER004 under-approximates Theorem 1.
        name, (_process, result) = workload
        report = verify_program(
            program_from_weave(result, which="full", target="runtime")
        )
        minimal_ids = {str(c) for c in select_constraint_set(result, "minimal").constraints}
        assert not set(report.inert_constraints) & minimal_ids, name

    def test_cross_check_agrees_on_both_sets(self, workload):
        name, (_process, result) = workload
        for which in ("minimal", "full"):
            sc = select_constraint_set(result, which)
            cross = petri_cross_check(sc)
            assert cross.agrees is True, (name, which, cross.soundness.problems)

    def test_scheduler_and_verifier_agree_on_workload_finals(self, workload):
        name, (_process, result) = workload
        sc = select_constraint_set(result, "minimal")
        runs = _brute_force(sc)
        assert not any(r.deadlocked for r in runs), name
        verifier_finals, _ = _verifier_finals(sc)
        assert verifier_finals == _scheduler_finals(sc, runs), name
