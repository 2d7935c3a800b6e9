"""Minimal synchronization constraint sets (Definition 6).

The paper's algorithm::

    P* = P
    for each partial ordering ai -> aj in P:
        if P* - {ai -> aj} is transitive equivalent to P:
            P* = P* - {ai -> aj}

One production minimizer and two references:

* :func:`minimize_fast` (also bound as :func:`minimize`) — the production
  pass.  It exploits a structural fact: removing the edge ``u -> v`` can
  only change the closure of ``u`` and of ``u``'s ancestors (any path
  using the edge passes through ``u``), so equivalence is checked on that
  (usually small) node set only, after two cheaper stages: a raw-cover
  shortcut and a single-fact pre-test that rejects most non-removable
  edges without touching the ancestors.  The stages run on a
  :class:`~repro.core.session.MinimizationSession`
  (:meth:`~repro.core.session.MinimizationSession.minimized`, the one
  constructor of a minimization pass): annotations are packed into
  integer bitmasks and closures are cached per node and invalidated
  incrementally on accepted removals.
* :func:`minimize_fast` with ``kernel=False`` — the same three stages on
  the reference frozenset closures, rebuilt per candidate.  It is the
  differential oracle of the kernel and the path cyclic sets fall back
  to.  The two agree on every generated and workload set the tests pin
  (``tests/test_core_kernel.py``), but not on every set: guard-aware
  closures are not in a canonical form, so the kernel can keep a
  constraint the reference drops (ROADMAP item 5).
* :func:`minimize_naive` — the algorithm verbatim on the reference
  closures: every candidate removal re-checks transitive equivalence
  over *all* activities.  Quadratic in the number of constraints times
  the closure cost; the baseline of the scaling benchmark (S1).

All are order-dependent (the minimal set is not unique, as the paper
notes, mirroring minimal covers of functional dependencies); all iterate
constraints in deterministic insertion order so results are reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.graphs import ancestors as graph_ancestors

if TYPE_CHECKING:
    from repro.obs import Observability
from repro.core.closure import Semantics, annotated_closure, raw_closure
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.equivalence import fact_set_covers, transitive_equivalent
from repro.core.kernel import KernelStats
from repro.core.session import MinimizationSession, candidate_order


def minimize_naive(
    sc: SynchronizationConstraintSet,
    semantics: Semantics = Semantics.GUARD_AWARE,
    order: Optional[Sequence[Constraint]] = None,
) -> SynchronizationConstraintSet:
    """Definition 6, checked globally against the original set each step.

    Every check runs on the reference frozenset closures: this is the
    paper-verbatim pass and the scaling baseline.
    """
    current = sc.copy()
    for constraint in candidate_order(sc, order):
        candidate = current.without(constraint)
        if transitive_equivalent(candidate, sc, semantics, kernel=False):
            current = candidate
    return current


def minimize_fast(
    sc: SynchronizationConstraintSet,
    semantics: Semantics = Semantics.GUARD_AWARE,
    order: Optional[Sequence[Constraint]] = None,
    kernel: bool = True,
    stats: Optional[KernelStats] = None,
    obs: Optional["Observability"] = None,
) -> SynchronizationConstraintSet:
    """Ancestor-pruned minimization.

    Equivalent-to-original is maintained inductively: each accepted removal
    is checked to keep the candidate equivalent to the *current* set, and
    only closures that can have changed (the edge's source and its
    ancestors) are compared.  Closures of all other nodes are untouched by
    the removal, so candidate = current there trivially.

    With ``kernel`` (the default) the check runs on the interned bitset
    kernel with memoized, incrementally invalidated closures; pass
    ``kernel=False`` for the reference frozenset path.  ``stats`` collects
    :class:`~repro.core.kernel.KernelStats` counters on the kernel path.
    """
    if kernel:
        try:
            session = MinimizationSession.minimized(
                sc, semantics, order, stats=stats, obs=obs
            )
        except ValueError:
            # The kernel needs a topological order; cyclic sets fall back
            # to the reference path, whose worklist closures tolerate cycles.
            pass
        else:
            return session.to_constraint_set()
    current = sc.copy()
    for constraint in candidate_order(sc, order):
        candidate = current.without(constraint)

        # Shortcut: if the *raw* closure of the source is still covered
        # without the edge, coverage propagates compositionally to every
        # ancestor (a fact through the edge is an ancestor-to-source prefix
        # joined with a source fact), so the removal is safe under any
        # semantics — no ancestor check needed.
        raw_before = raw_closure(current, constraint.source, semantics)
        raw_after = raw_closure(candidate, constraint.source, semantics)
        if fact_set_covers(raw_after, raw_before):
            current = candidate
            continue

        # Cheap rejection: without the edge, is its own ordering fact still
        # covered from the source *semantically*?  If not, the edge is
        # certainly needed.
        source_closure = annotated_closure(candidate, constraint.source, semantics)
        reference = annotated_closure(
            current.replace_constraints([constraint]), constraint.source, semantics
        )
        if not fact_set_covers(source_closure, reference):
            continue

        # Full check restricted to the nodes whose closures can change:
        # the source and its ancestors.
        affected = [constraint.source] + sorted(
            graph_ancestors(current.as_graph(), constraint.source),
            key=str,
        )
        if transitive_equivalent(
            candidate, current, semantics, nodes=affected, kernel=False
        ):
            current = candidate
    return current


#: The production minimizer under its pipeline-facing name.
minimize = minimize_fast


def is_minimal(
    sc: SynchronizationConstraintSet,
    semantics: Semantics = Semantics.GUARD_AWARE,
) -> bool:
    """Is ``sc`` minimal — no constraint removable without losing equivalence?"""
    for constraint in sc.constraints:
        if transitive_equivalent(sc.without(constraint), sc, semantics):
            return False
    return True
