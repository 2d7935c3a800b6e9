"""Annotated transitive closure (Definition 3) and equivalence semantics.

The closure of an activity ``a`` is the set of *facts* ``(target,
annotations)``: every node reachable from ``a``, annotated with the
conditional edges on the path (``a1 -> a2 ->_T a3 -> a4`` gives
``a1+ = {a2, a3(T@a2), a4(T@a2)}``).

Three equivalence semantics interpret the annotations (see DESIGN.md):

* ``STRICT`` — the paper's Definitions 3-5 taken literally: facts compare
  by exact (subsumption-normalized) annotation sets.
* ``GUARD_AWARE`` — the default.  Three refinements over strict: (1) facts
  derived through an *intermediate* node carry that node's execution guard
  (a path ``a -> m -> x`` only orders ``a`` before ``x`` when ``m``
  actually runs — dead-path elimination otherwise lets ``x`` start early);
  (2) annotations implied by the execution guards of either endpoint are
  vacuous and stripped; (3) facts whose conditions jointly cover a guard's
  outcome domain merge (``r(T@d)`` + ``r(F@d)`` = ``r``, provided ``d`` is
  certain to execute).  This is the semantics under which the paper's
  Table 2 (40 -> 17 constraints, 23 removed) is reproduced, and the
  scheduler property tests check it preserves every admissible execution
  order at runtime.
* ``REACHABILITY`` — annotations ignored entirely; equivalence degenerates
  to plain reachability (transitive reduction).  May over-remove in
  processes where an ordering genuinely holds on one branch only; provided
  for the ablation benchmark.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.conditions import (
    Annotations,
    Fact,
    is_contradictory,
    merge_complementary,
    normalize_facts,
)
from repro.analysis.graphs import topological_sort
from repro.core.constraints import Constraint, SynchronizationConstraintSet


class Semantics(enum.Enum):
    """How annotations participate in closure-fact comparison."""

    STRICT = "strict"
    GUARD_AWARE = "guard-aware"
    REACHABILITY = "reachability"


def _raw_closure_dag(
    sc: SynchronizationConstraintSet,
    order: List[str],
    through_guards: bool,
) -> Dict[str, FrozenSet[Fact]]:
    """Raw annotated closures of every node, memoized in reverse topo order.

    Sound for acyclic sets only.  Facts are subsumption-normalized at every
    node; normalization commutes with path composition (a stronger fact at a
    successor yields stronger composed facts), so no fact is lost.

    With ``through_guards`` (the guard-aware semantics), a fact derived by
    passing *through* an intermediate node additionally carries that node's
    execution guard: under dead-path elimination, a path ``a -> m -> x``
    only orders ``a`` before ``x`` in executions where ``m`` actually runs —
    if ``m`` is skipped, ``x``'s obligation on ``m`` is vacuously satisfied
    and ``x`` may start before ``a``.
    """
    outgoing: Dict[str, List[Constraint]] = {node: [] for node in sc.nodes}
    for constraint in sc:
        outgoing[constraint.source].append(constraint)

    closures: Dict[str, FrozenSet[Fact]] = {}
    for node in reversed(order):
        facts: Set[Fact] = set()
        for constraint in outgoing.get(node, ()):
            edge_annotation = constraint.annotation
            facts.add((constraint.target, edge_annotation))
            through = edge_annotation
            if through_guards:
                through = through | sc.effective_guard(constraint.target)
            for target, annotations in closures.get(constraint.target, ()):
                combined = through | annotations
                if not is_contradictory(combined):
                    facts.add((target, combined))
        closures[node] = normalize_facts(facts)
    return closures


def _outgoing_index(sc: SynchronizationConstraintSet) -> Dict[str, List[Constraint]]:
    """Adjacency index ``source -> outgoing constraints`` of ``sc``."""
    outgoing: Dict[str, List[Constraint]] = {}
    for constraint in sc:
        outgoing.setdefault(constraint.source, []).append(constraint)
    return outgoing


def _raw_closure_single(
    sc: SynchronizationConstraintSet,
    source: str,
    through_guards: bool,
    outgoing: Optional[Dict[str, List[Constraint]]] = None,
) -> FrozenSet[Fact]:
    """Raw annotated closure of one node via worklist search.

    Handles cyclic sets (needed so that validation can *report* cycles
    rather than crash).  A state ``(node, annotations)`` is expanded only if
    no previously expanded state for the node subsumes it.  See
    :func:`_raw_closure_dag` for ``through_guards``.  Callers computing
    several closures of the *same* set pass a prebuilt ``outgoing`` index
    (:func:`_outgoing_index`) so the adjacency dict is not rebuilt per node.
    """
    if outgoing is None:
        outgoing = _outgoing_index(sc)

    expanded: Dict[str, Set[Annotations]] = {}
    facts: Set[Fact] = set()
    worklist: List[Tuple[str, Annotations]] = [(source, frozenset())]
    while worklist:
        node, annotations = worklist.pop()
        already = expanded.setdefault(node, set())
        if any(previous <= annotations for previous in already):
            continue
        already.add(annotations)
        base = annotations
        if through_guards and node != source:
            base = base | sc.effective_guard(node)
            if is_contradictory(base):
                continue
        for constraint in outgoing.get(node, ()):
            combined = base | constraint.annotation
            if is_contradictory(combined):
                continue
            facts.add((constraint.target, combined))
            worklist.append((constraint.target, combined))
    return normalize_facts(facts)


def _through_guards(semantics: Semantics) -> bool:
    return semantics is Semantics.GUARD_AWARE


def _raw_closures(
    sc: SynchronizationConstraintSet, semantics: Semantics
) -> Dict[str, FrozenSet[Fact]]:
    graph = sc.as_graph()
    through = _through_guards(semantics)
    try:
        order = topological_sort(graph)
    except ValueError:
        outgoing = _outgoing_index(sc)
        return {
            node: _raw_closure_single(sc, node, through, outgoing)
            for node in sc.nodes
        }
    return _raw_closure_dag(sc, order, through)


def _apply_semantics(
    sc: SynchronizationConstraintSet,
    source: str,
    raw: FrozenSet[Fact],
    semantics: Semantics,
) -> FrozenSet[Fact]:
    if semantics is Semantics.STRICT:
        return raw
    if semantics is Semantics.REACHABILITY:
        return frozenset((target, frozenset()) for target, _ in raw)

    # Guard-aware: strip annotations implied by the execution guards of the
    # source and of each fact's target, then merge complementary facts.
    source_guard = sc.effective_guard(source)
    stripped: Set[Fact] = set()
    for target, annotations in raw:
        implied = source_guard | sc.effective_guard(target)
        stripped.add((target, frozenset(annotations) - implied))

    def can_merge(guard: str, base: Annotations, target: str) -> bool:
        # Collapsing (t, base|{(g,v)}) over all v is only sound when g is
        # certain to execute whenever `base` (plus the execution guards of
        # both endpoints, which hold in every run the fact is about) holds;
        # otherwise neither conditional ordering materializes.
        required = sc.effective_guard(guard)
        context = frozenset(base) | source_guard | sc.effective_guard(target)
        return required <= context

    return merge_complementary(stripped, sc.domains, can_merge=can_merge)


def annotated_closure(
    sc: SynchronizationConstraintSet,
    source: str,
    semantics: Semantics = Semantics.GUARD_AWARE,
) -> FrozenSet[Fact]:
    """The closure ``source+`` under the chosen semantics (Definition 3)."""
    raw = _raw_closure_single(sc, source, _through_guards(semantics))
    return _apply_semantics(sc, source, raw, semantics)


def raw_closure(
    sc: SynchronizationConstraintSet,
    source: str,
    semantics: Semantics = Semantics.GUARD_AWARE,
) -> FrozenSet[Fact]:
    """The *raw* (pre-stripping, pre-merging) normalized closure of one node.

    Raw facts compose: a fact of an ancestor that passes through ``source``
    is the ancestor-to-source path joined with one of these facts.  The
    fast minimizer exploits this — if removing an edge leaves the raw
    closure of its source covered, every node's closure is covered under
    any of the three semantics.
    """
    return _raw_closure_single(sc, source, _through_guards(semantics))


def closure_map(
    sc: SynchronizationConstraintSet,
    semantics: Semantics = Semantics.GUARD_AWARE,
    nodes: Optional[Iterable[str]] = None,
    kernel: bool = True,
) -> Dict[str, FrozenSet[Fact]]:
    """Closures of ``nodes`` (default: all nodes) under ``semantics``.

    With ``kernel`` (the default) closures are computed on the interned
    bitset kernel (:mod:`repro.core.kernel`): annotation sets become
    integer masks, closures are cached per node and only the reachable
    subgraph of the requested nodes is touched.  The result is identical
    fact-for-fact to the reference path (property tested).

    With ``kernel=False`` — or on cyclic sets, where the kernel cannot
    build a topological order — the reference frozenset path runs: on
    acyclic sets a single reverse-topological memoized pass; cyclic sets
    fall back to per-node worklist search.  When ``nodes`` restricts the
    computation to a small subset (as the fast minimizer's ancestor checks
    do), per-node searches are used instead of the full pass.
    """
    wanted = list(nodes) if nodes is not None else sc.nodes
    if kernel:
        from repro.core.session import MinimizationSession

        try:
            session = MinimizationSession(sc, semantics)
        except ValueError:
            pass  # cyclic: reference worklist search below
        else:
            return {node: session.semantic_facts(node) for node in wanted}
    if nodes is not None and len(wanted) * 3 < len(sc.nodes):
        through = _through_guards(semantics)
        outgoing = _outgoing_index(sc)
        return {
            node: _apply_semantics(
                sc, node, _raw_closure_single(sc, node, through, outgoing), semantics
            )
            for node in wanted
        }
    raw_map = _raw_closures(sc, semantics)
    return {
        node: _apply_semantics(sc, node, raw_map.get(node, frozenset()), semantics)
        for node in wanted
    }


def internal_closure_map(
    sc: SynchronizationConstraintSet,
    semantics: Semantics = Semantics.GUARD_AWARE,
) -> Dict[str, FrozenSet[Fact]]:
    """Closures restricted to internal activities on both sides.

    Used to state the correctness of service-dependency translation: the
    translated ``ASC`` must cover exactly the internal-to-internal ordering
    facts of the original ``SC``.
    """
    full = closure_map(sc, semantics, nodes=sc.activities)
    internal = set(sc.activities)
    return {
        node: frozenset(
            (target, annotations)
            for target, annotations in facts
            if target in internal
        )
        for node, facts in full.items()
    }
