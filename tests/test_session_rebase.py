"""Differential tests for :meth:`MinimizationSession.rebase`.

The contract that makes incremental re-minimization usable for hot
redeploys: rebasing a session over edits ``(added, removed)`` must produce
*bit-identical* minimal sets to building a fresh session on the edited
declared set and minimizing cold — for random guarded DAGs, random edit
batches, and all three semantics.  Decision replay, region tracking and
cache invalidation are all implementation detail behind that property.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.closure import Semantics
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.minimize import minimize_fast
from repro.core.session import MinimizationSession
from tests.strategies import constraint_sets

SLOW = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ALL_SEMANTICS = [Semantics.STRICT, Semantics.GUARD_AWARE, Semantics.REACHABILITY]


def _key(constraint):
    return (constraint.source, constraint.target, constraint.condition)


def _minimize_with_session(sc, semantics):
    """The production cold pass and the minimal set it leaves."""
    session = MinimizationSession.minimized(sc, semantics)
    return session, session.to_constraint_set()


def _edited_declared(sc, added, removed):
    """The edited declared set, mirroring ``rebase``'s own edit semantics."""
    removed_keys = {_key(c) for c in removed}
    declared_keys = {_key(c) for c in sc.constraints}
    survivors = [c for c in sc.constraints if _key(c) not in removed_keys]
    additions = []
    seen = set()
    for constraint in added:
        key = _key(constraint)
        if key in seen or (key in declared_keys and key not in removed_keys):
            continue
        seen.add(key)
        additions.append(constraint)
    return sc.replace_constraints(survivors + additions)


@st.composite
def rebase_cases(draw):
    """``(base set, added, removed)`` with the edited set guaranteed acyclic.

    Added edges only ever point forward in activity-index order — the same
    invariant :func:`tests.strategies.constraint_sets` maintains — so base
    and edited sets are both DAGs.  Conditions on added edges may introduce
    condition atoms the base set never interned.
    """
    sc = draw(constraint_sets(min_nodes=3, max_nodes=8, max_edges=14))
    names = sc.activities
    declared = sc.constraints
    removed = (
        draw(st.lists(st.sampled_from(declared), max_size=3, unique=True))
        if declared
        else []
    )
    pairs = [
        (i, j) for i in range(len(names)) for j in range(i + 1, len(names))
    ]
    added = []
    for source_index, target_index in draw(
        st.lists(st.sampled_from(pairs), max_size=4, unique=True)
    ):
        condition = draw(st.sampled_from([None, None, "T", "F"]))
        added.append(Constraint(names[source_index], names[target_index], condition))
    return sc, tuple(added), tuple(removed)


class TestRebaseDifferential:
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    @given(case=rebase_cases())
    @SLOW
    def test_rebase_matches_cold_minimization(self, semantics, case):
        sc, added, removed = case
        session, _ = _minimize_with_session(sc, semantics)
        rebased = session.rebase(added=added, removed=removed)

        edited = _edited_declared(sc, added, removed)
        expected = minimize_fast(edited, semantics)
        assert rebased.constraints == expected.constraints

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    @given(case=rebase_cases(), second=st.data())
    @SLOW
    def test_sequential_rebases_stay_exact(self, semantics, case, second):
        """Session state after one rebase supports the next one unchanged."""
        sc, added, removed = case
        session, _ = _minimize_with_session(sc, semantics)
        session.rebase(added=added, removed=removed)
        edited = _edited_declared(sc, added, removed)

        declared = edited.constraints
        removed_2 = (
            second.draw(st.lists(st.sampled_from(declared), max_size=2, unique=True))
            if declared
            else []
        )
        names = edited.activities
        pairs = [
            (i, j) for i in range(len(names)) for j in range(i + 1, len(names))
        ]
        added_2 = [
            Constraint(names[i], names[j])
            for i, j in second.draw(
                st.lists(st.sampled_from(pairs), max_size=2, unique=True)
            )
        ]
        rebased = session.rebase(added=tuple(added_2), removed=tuple(removed_2))
        expected = minimize_fast(
            _edited_declared(edited, added_2, removed_2), semantics
        )
        assert rebased.constraints == expected.constraints


class TestRebaseEdits:
    def _base(self):
        names = ["a", "b", "c", "d"]
        constraints = [
            Constraint("a", "b"),
            Constraint("b", "c"),
            Constraint("a", "c"),  # transitive, removed by minimization
            Constraint("c", "d"),
        ]
        return SynchronizationConstraintSet(activities=names, constraints=constraints)

    def test_noop_rebase_returns_current_minimal(self):
        session, minimal = _minimize_with_session(self._base(), Semantics.STRICT)
        assert session.rebase().constraints == minimal.constraints

    def test_duplicate_addition_is_noop(self):
        session, minimal = _minimize_with_session(self._base(), Semantics.STRICT)
        rebased = session.rebase(added=(Constraint("a", "b"),))
        assert rebased.constraints == minimal.constraints

    def test_readding_a_minimized_away_edge_is_still_removed(self):
        # a->c is declared, minimized away; adding it again must not
        # resurrect it in the minimal set.
        session, minimal = _minimize_with_session(self._base(), Semantics.STRICT)
        assert not any(_key(c) == ("a", "c", None) for c in minimal.constraints)
        rebased = session.rebase(added=(Constraint("a", "c"),))
        assert rebased.constraints == minimal.constraints

    def test_removing_a_bridge_changes_decisions(self):
        # Removing b->c makes the declared a->c edge necessary again.
        session, minimal = _minimize_with_session(self._base(), Semantics.STRICT)
        rebased = session.rebase(removed=(Constraint("b", "c"),))
        assert any(_key(c) == ("a", "c", None) for c in rebased.constraints)
        edited = _edited_declared(self._base(), (), (Constraint("b", "c"),))
        assert rebased.constraints == minimize_fast(edited, Semantics.STRICT).constraints

    def test_unknown_activity_raises_and_preserves_session(self):
        session, minimal = _minimize_with_session(self._base(), Semantics.STRICT)
        with pytest.raises(ValueError):
            session.rebase(added=(Constraint("a", "nope"),))
        assert session.to_constraint_set().constraints == minimal.constraints
        assert session.rebase().constraints == minimal.constraints

    def test_unknown_removal_raises(self):
        session, _ = _minimize_with_session(self._base(), Semantics.STRICT)
        with pytest.raises(ValueError):
            session.rebase(removed=(Constraint("a", "d"),))

    def test_cycle_raises_before_mutating(self):
        session, minimal = _minimize_with_session(self._base(), Semantics.STRICT)
        with pytest.raises(ValueError):
            session.rebase(added=(Constraint("d", "a"),))
        assert session.to_constraint_set().constraints == minimal.constraints
        # Session still fully functional after the rejected edit.
        rebased = session.rebase(added=(Constraint("a", "d"),))
        edited = _edited_declared(self._base(), (Constraint("a", "d"),), ())
        assert rebased.constraints == minimize_fast(edited, Semantics.STRICT).constraints
