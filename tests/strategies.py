"""Hypothesis strategies for randomized constraint sets and processes.

The central strategy, :func:`constraint_sets`, draws acyclic
synchronization constraint sets with optional conditional (guarded)
structure: node indices only ever point forward, so every drawn set is a
DAG; guards are chosen among the nodes and their conditional edges point at
strictly later nodes, with the guard map derived from those edges — the
same well-formedness the extractors guarantee.  An activity reached by
conditional edges from both guards is guarded by both decisions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import strategies as st

from repro.analysis.conditions import Cond, ConditionDomains
from repro.core.constraints import Constraint, SynchronizationConstraintSet


@st.composite
def dag_edges(
    draw,
    min_nodes: int = 2,
    max_nodes: int = 8,
    max_edges: int = 14,
) -> Tuple[int, List[Tuple[int, int]]]:
    """``(node_count, forward edges)`` of a random DAG."""
    node_count = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    possible = [
        (i, j) for i in range(node_count) for j in range(i + 1, node_count)
    ]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=max_edges, unique=True)
        if possible
        else st.just([])
    )
    return node_count, edges


@st.composite
def constraint_sets(
    draw,
    min_nodes: int = 2,
    max_nodes: int = 8,
    max_edges: int = 14,
    with_conditions: bool = True,
    max_guards_per_activity: int = 2,
) -> SynchronizationConstraintSet:
    """A random acyclic constraint set, optionally with guarded structure.

    ``max_guards_per_activity=1`` keeps every guard map single-condition,
    for consumers (the Petri translations) that support only that shape.
    """
    node_count, edges = draw(dag_edges(min_nodes, max_nodes, max_edges))
    names = ["n%d" % i for i in range(node_count)]

    guard_indices: List[int] = []
    if with_conditions and node_count >= 3:
        guard_indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=node_count - 2),
                max_size=2,
                unique=True,
            )
        )

    constraints: List[Constraint] = []
    guards: dict = {}
    for source_index, target_index in edges:
        condition: Optional[str] = None
        if source_index in guard_indices:
            condition = draw(st.sampled_from(["T", "F", None]))
        constraint = Constraint(names[source_index], names[target_index], condition)
        constraints.append(constraint)
        if condition is not None:
            guards.setdefault(names[target_index], set()).add(
                Cond(names[source_index], condition)
            )

    # Keep at most one condition per guard (two values of one guard would
    # be contradictory), so an activity gets up to two conditions on
    # independent guards: the decision-synchronization shape.
    cleaned_guards = {
        activity: frozenset(
            sorted(
                min(c for c in conditions if c.guard == guard)
                for guard in {c.guard for c in conditions}
            )[:max_guards_per_activity]
        )
        for activity, conditions in guards.items()
    }
    return SynchronizationConstraintSet(
        activities=names,
        constraints=constraints,
        guards=cleaned_guards,
        domains=ConditionDomains(),
    )


@st.composite
def unconditional_constraint_sets(
    draw, min_nodes: int = 2, max_nodes: int = 9, max_edges: int = 16
) -> SynchronizationConstraintSet:
    """A random acyclic constraint set with no conditions at all."""
    node_count, edges = draw(dag_edges(min_nodes, max_nodes, max_edges))
    names = ["n%d" % i for i in range(node_count)]
    constraints = [Constraint(names[i], names[j]) for i, j in edges]
    return SynchronizationConstraintSet(activities=names, constraints=constraints)
