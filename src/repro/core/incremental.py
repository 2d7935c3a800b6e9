"""Incremental constraint addition — evolution without full re-weaving.

The paper's maintainability argument is that adding a constraint is a
local operation on the dependency set rather than surgery on nested
constructs.  This module makes the *optimization* side of that story
incremental too: given an already-minimal set, adding one constraint only
requires

1. a **redundancy check** — if the new ordering is already covered by the
   minimal set, nothing changes at all;
2. otherwise, adding the constraint and re-examining only the **affected
   candidates**: existing constraints ``u -> v`` can only have become
   redundant if the new edge opens an alternative path between them, i.e.
   ``u`` reaches the new source and the new target reaches ``v``.

The result is provably equivalent to re-minimizing from scratch with the
new constraint appended last; the property test in
``tests/test_core_incremental.py`` verifies exactly that.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.analysis.graphs import ancestors as graph_ancestors
from repro.analysis.graphs import descendants as graph_descendants
from repro.core.closure import Semantics, closure_map
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.equivalence import fact_set_covers, transitive_equivalent


def is_covered(
    sc: SynchronizationConstraintSet,
    constraint: Constraint,
    semantics: Semantics = Semantics.GUARD_AWARE,
) -> bool:
    """Is ``constraint``'s ordering already implied by ``sc``?

    Compares the constraint's own normalized fact against the closure of
    its source — the same check minimization uses for redundancy.
    """
    reference_set = SynchronizationConstraintSet(
        activities=sc.activities,
        externals=sc.externals,
        constraints=[constraint],
        guards=sc.guards,
        domains=sc.domains,
    )
    source = constraint.source
    reference = closure_map(reference_set, semantics, nodes=[source])[source]
    closure = closure_map(sc, semantics, nodes=[source])[source]
    return fact_set_covers(closure, reference)


def add_constraint_incremental(
    minimal: SynchronizationConstraintSet,
    constraint: Constraint,
    semantics: Semantics = Semantics.GUARD_AWARE,
) -> SynchronizationConstraintSet:
    """Add one constraint to an already-minimal set, keeping it minimal.

    Returns a new set; the input is never mutated.  If the constraint is
    already covered, the input set is returned unchanged (same object), so
    callers can detect no-ops with ``is``.
    """
    if constraint in minimal:
        return minimal
    if is_covered(minimal, constraint, semantics):
        return minimal

    current = minimal.copy()
    current.add(constraint)

    # Only constraints bridging (ancestors of the new source) to
    # (descendants of the new target) can have become redundant.
    graph = current.as_graph()
    affected_sources: Set[str] = {constraint.source} | graph_ancestors(
        graph, constraint.source
    )
    affected_targets: Set[str] = {constraint.target} | graph_descendants(
        graph, constraint.target
    )
    candidates: List[Constraint] = [
        existing
        for existing in current.constraints
        if existing != constraint
        and existing.source in affected_sources
        and existing.target in affected_targets
    ]
    for candidate in candidates:
        without = current.without(candidate)
        check_nodes = [candidate.source] + sorted(
            graph_ancestors(current.as_graph(), candidate.source), key=str
        )
        if transitive_equivalent(without, current, semantics, nodes=check_nodes):
            current = without
    return current


def remove_requirement(
    minimal: SynchronizationConstraintSet,
    constraint: Constraint,
    semantics: Semantics = Semantics.GUARD_AWARE,
) -> Optional[SynchronizationConstraintSet]:
    """Drop one constraint *requirement* from a minimal set.

    In a minimal set no constraint is redundant, so dropping a requirement
    is simply removing its edge — provided the edge is actually present.
    Returns the smaller set, or ``None`` if the constraint is not a member
    (in that case the requirement was redundant all along and its removal
    cannot be performed locally: the caller should re-weave from the
    updated dependency set, because other edges may have been kept on its
    account).
    """
    if constraint not in minimal:
        return None
    return minimal.without(constraint)
