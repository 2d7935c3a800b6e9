"""Tests for incremental constraint addition (evolution support)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.closure import Semantics, closure_map
from repro.core.constraints import Constraint
from repro.core.equivalence import fact_set_covers, transitive_equivalent
from repro.core.incremental import (
    add_constraint_incremental,
    is_covered,
    remove_requirement,
)
from repro.core.minimize import is_minimal, minimize
from tests.strategies import constraint_sets

SLOW = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestIsCovered:
    def test_transitive_coverage(self, purchasing_weave):
        minimal = purchasing_weave.minimal
        assert is_covered(minimal, Constraint("recClient_po", "replyClient_oi"))
        assert is_covered(minimal, Constraint("invCredit_po", "if_au"))

    def test_uncovered(self, purchasing_weave):
        minimal = purchasing_weave.minimal
        assert not is_covered(
            minimal, Constraint("invProduction_po", "invProduction_ss")
        )


class TestIncrementalAdd:
    def test_noop_when_covered(self, purchasing_weave):
        minimal = purchasing_weave.minimal
        result = add_constraint_incremental(
            minimal, Constraint("recClient_po", "replyClient_oi")
        )
        assert result is minimal  # literally unchanged

    def test_noop_when_present(self, purchasing_weave):
        minimal = purchasing_weave.minimal
        result = add_constraint_incremental(
            minimal, Constraint("recClient_po", "invCredit_po")
        )
        assert result is minimal

    def test_new_requirement_added(self, purchasing_weave):
        minimal = purchasing_weave.minimal
        new = Constraint("invProduction_po", "invProduction_ss")
        result = add_constraint_incremental(minimal, new)
        assert new in result
        # The new edge makes the old cooperation shortcut redundant:
        # invProduction_po -> invProduction_ss -> replyClient_oi.
        assert not result.has_constraint("invProduction_po", "replyClient_oi")
        assert len(result) == len(minimal)
        assert is_minimal(result, Semantics.GUARD_AWARE)

    def test_addition_can_subsume_existing(self, purchasing_weave):
        """Adding recShip_ss -> replyClient_oi... is covered; instead use a
        synthetic case: adding a -> b to {a -> c, b..} where an existing
        shortcut becomes redundant."""
        from repro.core.constraints import SynchronizationConstraintSet

        sc = SynchronizationConstraintSet(
            ["a", "b", "c"],
            constraints=[Constraint("a", "c"), Constraint("b", "c")],
        )
        minimal = minimize(sc, Semantics.STRICT)
        assert len(minimal) == 2
        grown = add_constraint_incremental(
            minimal, Constraint("a", "b"), Semantics.STRICT
        )
        # a -> c is now implied via a -> b -> c and must disappear.
        assert not grown.has_constraint("a", "c")
        assert len(grown) == 2

    @SLOW
    @given(constraint_sets(max_nodes=7, max_edges=10), st.data())
    def test_matches_full_reminimization(self, sc, data):
        """Incremental addition is equivalent to re-minimizing from scratch."""
        minimal = minimize(sc, Semantics.GUARD_AWARE)
        names = sc.activities
        source = data.draw(st.sampled_from(names), label="source")
        target = data.draw(
            st.sampled_from([n for n in names if n != source]), label="target"
        )
        new = Constraint(source, target)

        # Skip additions that would create a cycle (the weaver rejects
        # those upstream).
        from repro.analysis.graphs import has_path

        if has_path(minimal.as_graph(), target, source):
            return

        incremental = add_constraint_incremental(minimal, new, Semantics.GUARD_AWARE)
        reference = minimal.copy()
        reference.add(new)
        assert transitive_equivalent(
            incremental, reference, Semantics.GUARD_AWARE
        )
        assert is_minimal(incremental, Semantics.GUARD_AWARE)


class TestDuplicateClosureEdge:
    """Adding a constraint that duplicates an existing *closure* edge.

    Regression guard for the kernel path: such an addition must be a
    no-op for `add_constraint_incremental` (same object back), and a
    session `rebase` over it must match a cold rebuild bit-for-bit
    without invalidating closure caches outside the edit's ancestor
    region.
    """

    def _chain(self):
        from repro.core.constraints import SynchronizationConstraintSet

        return SynchronizationConstraintSet(
            ["a", "b", "c", "d"],
            constraints=[
                Constraint("a", "b"),
                Constraint("b", "c"),
                Constraint("c", "d"),
            ],
        )

    @staticmethod
    def _covered_on(minimal, duplicate, kernel):
        """The closure of the duplicate's source subsumes its own fact."""
        alone = minimal.replace_constraints([duplicate])
        source = duplicate.source
        return fact_set_covers(
            closure_map(minimal, Semantics.GUARD_AWARE, kernel=kernel)[source],
            closure_map(alone, Semantics.GUARD_AWARE, kernel=kernel)[source],
        )

    @pytest.mark.parametrize("kernel", [True, False])
    def test_noop_on_both_evaluator_paths(self, kernel):
        minimal = minimize(self._chain(), Semantics.GUARD_AWARE)
        duplicate = Constraint("b", "d")  # closure already has b ->* d
        assert self._covered_on(minimal, duplicate, kernel)
        assert is_covered(minimal, duplicate, Semantics.GUARD_AWARE)
        result = add_constraint_incremental(minimal, duplicate, Semantics.GUARD_AWARE)
        assert result is minimal

    @pytest.mark.parametrize("kernel", [True, False])
    def test_guarded_duplicate_is_covered(self, kernel):
        from repro.analysis.conditions import Cond
        from repro.core.constraints import SynchronizationConstraintSet

        sc = SynchronizationConstraintSet(
            ["a", "b", "c"],
            constraints=[Constraint("a", "b", "T"), Constraint("b", "c")],
            guards={"b": {Cond("a", "T")}},
        )
        minimal = minimize(sc, Semantics.GUARD_AWARE)
        duplicate = Constraint("a", "c", "T")
        assert self._covered_on(minimal, duplicate, kernel)
        result = add_constraint_incremental(minimal, duplicate, Semantics.GUARD_AWARE)
        assert result is minimal

    def test_rebase_matches_cold_without_spurious_invalidation(self):
        from repro.core.kernel import KernelStats
        from repro.core.minimize import minimize_fast
        from repro.core.session import MinimizationSession

        sc = self._chain()
        stats = KernelStats()
        session = MinimizationSession.minimized(sc, Semantics.GUARD_AWARE, stats=stats)

        # A declared duplicate is a pure no-op: nothing re-checked.
        candidates_before = stats.candidates
        unchanged = session.rebase(added=(Constraint("a", "b"),))
        assert stats.candidates == candidates_before
        assert {(c.source, c.target, c.condition) for c in unchanged} == {
            (c.source, c.target, c.condition) for c in sc.constraints
        }

        # A closure duplicate (b ->* d already holds) re-minimizes to the
        # cold result and leaves non-ancestor closure caches warm.
        rebased = session.rebase(added=(Constraint("b", "d"),))
        cold = minimize_fast(
            sc.replace_constraints(list(sc.constraints) + [Constraint("b", "d")]),
            semantics=Semantics.GUARD_AWARE,
        )
        assert {(c.source, c.target, c.condition) for c in rebased} == {
            (c.source, c.target, c.condition) for c in cold
        }
        interner = session.interner
        for name in ("c", "d"):  # strictly below the edit source b
            assert session._raw[interner.node_id(name)] is not None


class TestRemoveRequirement:
    def test_member_removal(self, purchasing_weave):
        minimal = purchasing_weave.minimal
        constraint = Constraint("invProduction_po", "replyClient_oi")
        smaller = remove_requirement(minimal, constraint)
        assert smaller is not None
        assert constraint not in smaller
        assert len(smaller) == len(minimal) - 1

    def test_non_member_returns_none(self, purchasing_weave):
        assert (
            remove_requirement(
                purchasing_weave.minimal,
                Constraint("invShip_po", "replyClient_oi"),
            )
            is None
        )
