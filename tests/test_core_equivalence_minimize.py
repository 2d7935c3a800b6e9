"""Tests for Definitions 4-6: set cover, transitive equivalence, minimal sets."""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings

from repro.core.closure import Semantics
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.equivalence import covers, fact_set_covers, transitive_equivalent
from repro.core.minimize import is_minimal, minimize, minimize_fast, minimize_naive
from tests.strategies import constraint_sets, unconditional_constraint_sets

SLOW = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def sc_of(edges, activities=None, guards=None):
    if activities is None:
        activities = sorted({e[0] for e in edges} | {e[1] for e in edges})
    constraints = [
        Constraint(*edge) if len(edge) == 3 else Constraint(edge[0], edge[1])
        for edge in edges
    ]
    return SynchronizationConstraintSet(
        activities=activities, constraints=constraints, guards=guards
    )


class TestCover:
    def test_fact_set_covers_subsumption(self):
        covering = frozenset({("x", frozenset())})
        covered = frozenset({("x", frozenset({("g", "T")}))})
        # Works over any frozenset annotations (pure set inclusion).
        assert fact_set_covers(covering, covered)
        assert not fact_set_covers(covered, covering)

    def test_superset_covers_subset(self):
        big = sc_of([("a", "b"), ("b", "c"), ("a", "c")])
        small = sc_of([("a", "b"), ("b", "c")], activities=["a", "b", "c"])
        assert covers(big, small, Semantics.STRICT)
        assert covers(small, big, Semantics.STRICT)  # transitivity supplies a->c

    def test_missing_edge_not_covered(self):
        full = sc_of([("a", "b"), ("b", "c")])
        partial = sc_of([("a", "b")], activities=["a", "b", "c"])
        assert covers(full, partial, Semantics.STRICT)
        assert not covers(partial, full, Semantics.STRICT)

    def test_equivalence_is_mutual_cover(self):
        first = sc_of([("a", "b"), ("b", "c"), ("a", "c")])
        second = sc_of([("a", "b"), ("b", "c")], activities=["a", "b", "c"])
        assert transitive_equivalent(first, second, Semantics.STRICT)


class TestMinimizeExamples:
    def test_shortcut_edge_removed(self):
        sc = sc_of([("a", "b"), ("b", "c"), ("a", "c")])
        minimal = minimize(sc, Semantics.STRICT)
        assert len(minimal) == 2
        assert not minimal.has_constraint("a", "c")

    def test_strict_keeps_edge_bypassed_only_conditionally(self):
        """Under strict Definition 3-5 semantics, a -> e is NOT removable
        when the only other path is conditional."""
        sc = sc_of([("a", "d"), ("d", "e", "T"), ("a", "e")])
        minimal = minimize_naive(sc, Semantics.STRICT)
        assert minimal.has_constraint("a", "e")

    def test_guard_aware_removes_it_when_target_guarded(self):
        from repro.analysis.conditions import Cond

        sc = sc_of(
            [("a", "d"), ("d", "e", "T"), ("a", "e")],
            guards={"e": frozenset({Cond("d", "T")})},
        )
        minimal = minimize_naive(sc, Semantics.GUARD_AWARE)
        assert not minimal.has_constraint("a", "e")
        assert len(minimal) == 2

    def test_conditional_edge_with_conditional_bypass(self):
        """d ->T f is redundant given d ->T e -> f (same annotation)."""
        sc = sc_of([("d", "e", "T"), ("e", "f"), ("d", "f", "T")])
        minimal = minimize_naive(sc, Semantics.STRICT)
        assert not minimal.has_constraint("d", "f", "T")
        assert len(minimal) == 2

    def test_empty_set(self):
        sc = SynchronizationConstraintSet(activities=["a", "b"])
        assert len(minimize(sc)) == 0

    def test_result_is_minimal(self):
        sc = sc_of(
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "d"), ("b", "d")]
        )
        minimal = minimize(sc, Semantics.STRICT)
        assert is_minimal(minimal, Semantics.STRICT)
        assert len(minimal) == 3


class TestMinimizeProperties:
    @SLOW
    @given(unconditional_constraint_sets())
    def test_unconditional_minimization_is_transitive_reduction(self, sc):
        """On unconditional sets all three semantics coincide and the unique
        minimal set is the DAG transitive reduction."""
        minimal = minimize(sc, Semantics.STRICT)
        reference = nx.DiGraph([(c.source, c.target) for c in sc])
        reference.add_nodes_from(sc.activities)
        expected = set(nx.transitive_reduction(reference).edges())
        assert {(c.source, c.target) for c in minimal} == expected

    @SLOW
    @given(constraint_sets())
    def test_minimize_preserves_equivalence_guard_aware(self, sc):
        minimal = minimize(sc, Semantics.GUARD_AWARE)
        assert transitive_equivalent(minimal, sc, Semantics.GUARD_AWARE)

    @SLOW
    @given(constraint_sets())
    def test_minimize_preserves_equivalence_strict(self, sc):
        minimal = minimize(sc, Semantics.STRICT)
        assert transitive_equivalent(minimal, sc, Semantics.STRICT)

    @SLOW
    @given(constraint_sets())
    def test_minimize_is_idempotent(self, sc):
        minimal = minimize(sc, Semantics.GUARD_AWARE)
        again = minimize(minimal, Semantics.GUARD_AWARE)
        assert set(again.constraints) == set(minimal.constraints)

    @SLOW
    @given(constraint_sets())
    def test_result_is_minimal_property(self, sc):
        minimal = minimize(sc, Semantics.GUARD_AWARE)
        assert is_minimal(minimal, Semantics.GUARD_AWARE)

    @SLOW
    @given(constraint_sets())
    def test_fast_agrees_with_naive(self, sc):
        """Fast and naive iterate candidates in the same order, so they must
        produce identical sets (not merely equivalent ones)."""
        fast = minimize_fast(sc, Semantics.GUARD_AWARE)
        naive = minimize_naive(sc, Semantics.GUARD_AWARE)
        assert set(fast.constraints) == set(naive.constraints)

    @SLOW
    @given(constraint_sets())
    def test_fast_agrees_with_naive_strict(self, sc):
        fast = minimize_fast(sc, Semantics.STRICT)
        naive = minimize_naive(sc, Semantics.STRICT)
        assert set(fast.constraints) == set(naive.constraints)

    @SLOW
    @given(constraint_sets())
    def test_semantics_ordering(self, sc):
        """Pure reachability removes the most constraints.  Strict and
        guard-aware are incomparable in general: guard-aware strips
        endpoint-implied annotations (removes more) but also refuses
        bypasses through skippable intermediates (removes fewer)."""
        strict = len(minimize(sc, Semantics.STRICT))
        guard_aware = len(minimize(sc, Semantics.GUARD_AWARE))
        reachability = len(minimize(sc, Semantics.REACHABILITY))
        assert strict >= reachability
        assert guard_aware >= reachability

    def test_explicit_order_changes_survivors(self):
        """The minimal set is not unique (paper, Section 4.4): with A->B,
        B->C and the redundant pair A->C..., order decides which equivalent
        edge survives in a symmetric double-diamond."""
        sc = sc_of([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"), ("a", "d")])
        default = minimize(sc, Semantics.STRICT)
        assert not default.has_constraint("a", "d")
        # Removing a->b first makes a->d...  still removable (path via c).
        order = [Constraint("a", "d")]
        reordered = minimize(sc, Semantics.STRICT, order=order)
        assert set(reordered.constraints) == set(default.constraints)
