"""Memoized minimization sessions over the interned bitset kernel.

The reference path (``minimize_fast(..., kernel=False)``) treats the
constraint set as immutable: every candidate edge rebuilds
``current.as_graph()``, recomputes ancestor sets, and re-derives raw
closures from scratch.  A :class:`MinimizationSession` keeps one mutable
picture of the evolving set instead:

* adjacency and reverse adjacency are dense ``list[list[_Edge]]`` arrays
  indexed by interned node id, updated in place on each accepted removal;
* raw and semantic closures are cached per node as kernel
  :data:`~repro.core.kernel.MaskClosure` values;
* removing the edge ``u -> v`` can only change the closures of ``u`` and
  of ``u``'s ancestors (any path using the edge passes through ``u``), so
  an accepted removal either installs the freshly computed candidate
  closures for exactly that node set, or marks it dirty for lazy
  recomputation — no other cache entry is touched.

Closure composition is *memoized structurally*: the raw closure of a node
is assembled from the cached closures of its successors (one pass over the
out-edges), so a cache miss costs one composition rather than a graph
search.  Dirty nodes are recomputed in reverse topological order on first
use.

Sessions require an acyclic constraint set (the construction raises
``ValueError`` otherwise); callers fall back to the reference frozenset
path, which handles cycles via worklist search.

Beyond single-shot minimization, a session supports :meth:`~MinimizationSession.rebase`:
after the declared set is edited (constraints added or removed), the
minimization is replayed incrementally — per-candidate decisions recorded
during the previous pass are reused verbatim for every candidate whose
decision provably cannot have changed, and only candidates inside the
edit's dependency region are re-checked.  The result is bit-identical to
cold-minimizing the edited declared set (property-tested in
``tests/test_session_rebase.py``) at a fraction of the cost.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from repro.obs import Observability

from repro.analysis.conditions import Fact
from repro.analysis.graphs import topological_sort
from repro.core.closure import Semantics
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.kernel import (
    Interner,
    KernelStats,
    MaskClosure,
    antichain_insert,
    closure_covers,
    closure_insert,
    closure_to_facts,
)
from repro.obs.trace import NOOP_SPAN

_EdgeKey = Tuple[str, str, Optional[str]]


def candidate_order(
    sc: SynchronizationConstraintSet, order: Optional[Sequence[Constraint]]
) -> List[Constraint]:
    """``order`` followed by the constraints it leaves out, in set order."""
    if order is None:
        return sc.constraints
    ordered = list(order)
    known = set(sc.constraints)
    unknown = [c for c in ordered if c not in known]
    if unknown:
        raise ValueError("order mentions constraints not in the set: %r" % unknown)
    explicit = set(ordered)
    missing = [c for c in sc.constraints if c not in explicit]
    return ordered + missing


@dataclass
class _Edge:
    """One constraint in kernel form (identity is the object itself)."""

    src: int
    tgt: int
    mask: int
    key: _EdgeKey


class MinimizationSession:
    """Incremental closure cache for one constraint set under one semantics.

    The session is the engine behind ``minimize_fast`` (via
    :meth:`minimized`), the registry's redeploys (via :meth:`rebase`) and
    the kernel path of ``closure_map``; it can also be driven directly:

    >>> session = MinimizationSession.minimized(sc, Semantics.GUARD_AWARE)  # doctest: +SKIP
    >>> session.to_constraint_set()      # doctest: +SKIP
    """

    def __init__(
        self,
        sc: SynchronizationConstraintSet,
        semantics: Semantics = Semantics.GUARD_AWARE,
        stats: Optional[KernelStats] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        order = topological_sort(sc.as_graph())  # ValueError on cycles
        self._sc = sc
        self.semantics = semantics
        self.through_guards = semantics is Semantics.GUARD_AWARE
        self.stats = stats
        self._obs = obs
        if obs is not None:
            self._m_try_remove = obs.metrics.histogram(
                "repro_core_try_remove_seconds",
                "Wall-clock cost of one try_remove, by deciding stage.",
                ("stage",),
            )
        self.interner = Interner()
        interner = self.interner

        for name in sc.nodes:
            interner.node_id(name)
        self._pos: List[int] = [0] * len(interner)
        for position, name in enumerate(order):
            self._pos[interner.node_id(name)] = position

        self._guard_mask: List[int] = [
            interner.mask_of(sc.effective_guard(name)) for name in sc.nodes
        ]
        self._guard_name_masks: Dict[str, int] = {}
        self._domains = sc.domains

        size = len(interner)
        self._out: List[List[_Edge]] = [[] for _ in range(size)]
        self._rin: List[List[_Edge]] = [[] for _ in range(size)]
        self._edges: Dict[_EdgeKey, _Edge] = {}
        for constraint in sc:
            edge = _Edge(
                src=interner.node_id(constraint.source),
                tgt=interner.node_id(constraint.target),
                mask=interner.mask_of(constraint.annotation),
                key=(constraint.source, constraint.target, constraint.condition),
            )
            self._edges[edge.key] = edge
            self._out[edge.src].append(edge)
            self._rin[edge.tgt].append(edge)
        self._removed: Set[_EdgeKey] = set()

        self._raw: List[Optional[MaskClosure]] = [None] * size
        self._sem: List[Optional[MaskClosure]] = [None] * size

        # Per-candidate decision log from the most recent minimization pass,
        # keyed by edge key: (accepted, deciding_stage).  rebase() replays
        # these for candidates outside an edit's dependency region.
        self._decisions: Dict[_EdgeKey, Tuple[bool, str]] = {}

    @classmethod
    def minimized(
        cls,
        sc: SynchronizationConstraintSet,
        semantics: Semantics = Semantics.GUARD_AWARE,
        order: Optional[Sequence[Constraint]] = None,
        stats: Optional[KernelStats] = None,
        obs: Optional["Observability"] = None,
    ) -> "MinimizationSession":
        """A session that has run the full candidate pass over ``sc``.

        Candidates are tried in ``order`` (unlisted constraints follow in
        declaration order); the minimal set is ``to_constraint_set()`` and
        the session is ready for :meth:`rebase`, which replays candidates
        in declaration order.  Raises ``ValueError`` on
        a cyclic set or an ``order`` naming constraints not in ``sc``.
        With ``obs`` the pass runs inside a ``core.minimize`` span and
        ``stats`` are published to its metrics afterwards.
        """
        candidates = candidate_order(sc, order)
        session = cls(sc, semantics, stats=stats, obs=obs)
        span = (
            obs.tracer.span("core.minimize", constraints=len(sc), semantics=semantics.name)
            if obs is not None
            else NOOP_SPAN
        )
        with span:
            for constraint in candidates:
                session.try_remove(constraint)
        if obs is not None and stats is not None:
            stats.publish(obs.metrics)
        return session

    # -- closures ------------------------------------------------------------

    def raw(self, node: int) -> MaskClosure:
        """The raw (pre-semantics) closure of ``node``, cached.

        Dirty dependencies are recomputed deepest-first, so each composes
        only already-cached successor closures.
        """
        cached = self._raw[node]
        if cached is not None:
            if self.stats is not None:
                self.stats.closure_cache_hits += 1
            return cached
        pending = [node]
        seen = {node}
        dirty = []
        while pending:
            current = pending.pop()
            dirty.append(current)
            for edge in self._out[current]:
                if edge.tgt not in seen and self._raw[edge.tgt] is None:
                    seen.add(edge.tgt)
                    pending.append(edge.tgt)
        dirty.sort(key=self._pos.__getitem__, reverse=True)
        for current in dirty:
            self._raw[current] = self._compose(current)
        return self._raw[node]  # type: ignore[return-value]

    def sem(self, node: int) -> MaskClosure:
        """The semantic closure of ``node`` (raw + strip/merge), cached."""
        cached = self._sem[node]
        if cached is not None:
            if self.stats is not None:
                self.stats.closure_cache_hits += 1
            return cached
        result = self._apply_semantics(node, self.raw(node))
        self._sem[node] = result
        return result

    def semantic_facts(self, name: str) -> FrozenSet[Fact]:
        """The closure of ``name`` as reference facts (``closure_map`` twin)."""
        node = self.interner.lookup_node(name)
        if node is None:
            return frozenset()
        return closure_to_facts(self.interner, self.sem(node))

    def _compose(
        self,
        node: int,
        exclude: Optional[_Edge] = None,
        override: Optional[Dict[int, MaskClosure]] = None,
    ) -> MaskClosure:
        """Build the raw closure of ``node`` from its successors' closures.

        ``exclude`` drops one out-edge (the removal candidate); ``override``
        substitutes candidate closures for affected successors while the
        cache still holds the pre-removal ones.
        """
        if self.stats is not None:
            self.stats.closures_computed += 1
        interner = self.interner
        through_guards = self.through_guards
        guard_mask = self._guard_mask
        facts: MaskClosure = {}
        for edge in self._out[node]:
            if edge is exclude:
                continue
            emask = edge.mask
            closure_insert(facts, edge.tgt, emask)
            through = emask | guard_mask[edge.tgt] if through_guards else emask
            if interner.is_contradictory(through):
                continue
            child = override.get(edge.tgt) if override is not None else None
            if child is None:
                child = self.raw(edge.tgt)
            conflict = interner.conflict_of(through)
            for target, masks in child.items():
                for mask in masks:
                    if mask & conflict:
                        continue
                    closure_insert(facts, target, through | mask)
        return facts

    # -- semantics -----------------------------------------------------------

    def _guard_mask_of_name(self, guard: str) -> int:
        mask = self._guard_name_masks.get(guard)
        if mask is None:
            mask = self.interner.mask_of(self._sc.effective_guard(guard))
            self._guard_name_masks[guard] = mask
        return mask

    def _apply_semantics(self, source: int, raw: MaskClosure) -> MaskClosure:
        if self.semantics is Semantics.STRICT:
            return raw
        if self.semantics is Semantics.REACHABILITY:
            return {target: [0] for target in raw}
        source_guard = self._guard_mask[source]
        guard_mask = self._guard_mask
        stripped: MaskClosure = {}
        for target, masks in raw.items():
            implied = source_guard | guard_mask[target]
            for mask in masks:
                closure_insert(stripped, target, mask & ~implied)
        return self._merge_complementary(source, stripped)

    def _merge_complementary(self, source: int, current: MaskClosure) -> MaskClosure:
        """Kernel twin of ``merge_complementary`` with the guard-aware veto.

        Facts ``(t, base | {(g, v)})`` over every ``v`` in ``g``'s domain
        collapse to ``(t, base)`` — provided ``g`` is certain to execute in
        the fact's context — run to a fixpoint.

        The fixpoint is taken *per target*: a merge inserts into one
        target's antichain and its veto context depends on that target
        alone, so the reference's whole-closure rescan (always applying the
        first eligible group in target, mask, bit order) performs the same
        merge sequence as visiting each target once and rescanning only its
        antichain after each merge.  The within-target scan order is kept
        exactly: an antichain eviction can remove a premise of a pending
        merge, so the result depends on which eligible group goes first.
        """
        conds = self.interner.conds
        domains = self._domains
        source_guard = self._guard_mask[source]
        guard_mask = self._guard_mask
        for target, masks in current.items():
            if not masks[0]:
                continue  # an unconditional fact: the antichain is [0]
            context = source_guard | guard_mask[target]
            changed = True
            while changed:
                changed = False
                by_base: Dict[Tuple[int, str], Set[str]] = {}
                for mask in masks:
                    remaining = mask
                    while remaining:
                        low = remaining & -remaining
                        remaining ^= low
                        cond = conds[low.bit_length() - 1]
                        by_base.setdefault((mask ^ low, cond.guard), set()).add(
                            cond.value
                        )
                for (base, guard), values in by_base.items():
                    if values >= domains.domain(guard):
                        required = self._guard_mask_of_name(guard)
                        if required & (base | context) != required:
                            continue
                        if antichain_insert(masks, base):
                            changed = True
                            break
        return current

    # -- graph maintenance -----------------------------------------------------

    def _ancestors(self, node: int) -> List[int]:
        """Ids of all nodes that reach ``node`` in the current graph."""
        seen: Set[int] = set()
        stack = [edge.src for edge in self._rin[node]]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(edge.src for edge in self._rin[current])
        return list(seen)

    def _remove_edge(self, edge: _Edge) -> None:
        self._out[edge.src].remove(edge)
        self._rin[edge.tgt].remove(edge)
        self._removed.add(edge.key)

    def _invalidate_ancestors(self, node: int) -> None:
        for ancestor in self._ancestors(node):
            self._raw[ancestor] = None
            self._sem[ancestor] = None

    # -- minimization -----------------------------------------------------------

    def try_remove(self, constraint: Constraint) -> bool:
        """Remove ``constraint`` if the set stays transitively equivalent.

        Runs the same three-stage check as the reference ``minimize_fast``
        (raw-cover shortcut, single-source semantic pre-test, ancestor-
        restricted equivalence) on cached kernel closures, and commits the
        removal — updating adjacency and exactly the affected cache
        entries — when it succeeds.

        With observability attached, each call is timed and recorded on
        the ``repro_core_try_remove_seconds`` histogram labeled by the
        stage that decided it, plus a ``core.try_remove`` span.
        """
        if self._obs is None:
            return self._try_remove_staged(constraint)[0]
        tracer = self._obs.tracer
        with tracer.span(
            "core.try_remove",
            source=constraint.source,
            target=constraint.target,
        ) as span:
            started = _time.perf_counter()
            accepted, stage = self._try_remove_staged(constraint)
            self._m_try_remove.labels(stage=stage).observe(
                _time.perf_counter() - started
            )
            span.set(stage=stage, accepted=accepted)
        return accepted

    def _try_remove_staged(self, constraint: Constraint) -> Tuple[bool, str]:
        """The three-stage check; returns ``(accepted, deciding_stage)``."""
        key = (constraint.source, constraint.target, constraint.condition)
        decision = self._try_remove_inner(constraint)
        self._decisions[key] = decision
        return decision

    def _try_remove_inner(self, constraint: Constraint) -> Tuple[bool, str]:
        stats = self.stats
        if stats is not None:
            stats.candidates += 1
        edge = self._edges[(constraint.source, constraint.target, constraint.condition)]
        source = edge.src

        raw_before = self.raw(source)
        raw_after = self._compose(source, exclude=edge)
        if closure_covers(raw_after, raw_before, stats):
            # Covered raw closure propagates to every ancestor under any
            # semantics; install the new source closure, lazily dirty the rest.
            self._remove_edge(edge)
            self._raw[source] = raw_after
            self._sem[source] = None
            self._invalidate_ancestors(source)
            if stats is not None:
                stats.raw_shortcut_accepts += 1
                stats.removed += 1
            return True, "raw_shortcut"

        sem_after = self._apply_semantics(source, raw_after)
        single: MaskClosure = {}
        closure_insert(single, edge.tgt, edge.mask)
        sem_single = self._apply_semantics(source, single)
        if not closure_covers(sem_after, sem_single, stats):
            if stats is not None:
                stats.cheap_rejects += 1
            return False, "cheap_reject"

        if stats is not None:
            stats.full_checks += 1
        affected = self._ancestors(source)
        affected.sort(key=self._pos.__getitem__, reverse=True)
        cand_raw: Dict[int, MaskClosure] = {source: raw_after}
        for node in affected:
            cand_raw[node] = self._compose(node, exclude=edge, override=cand_raw)
        cand_sem: Dict[int, MaskClosure] = {source: sem_after}
        for node in affected:
            cand_sem[node] = self._apply_semantics(node, cand_raw[node])
        for node in cand_sem:
            current_sem = self.sem(node)
            candidate_sem = cand_sem[node]
            if not closure_covers(candidate_sem, current_sem, stats):
                return False, "full_check"
            if not closure_covers(current_sem, candidate_sem, stats):
                return False, "full_check"

        self._remove_edge(edge)
        for node, closure in cand_raw.items():
            self._raw[node] = closure
            self._sem[node] = cand_sem[node]
        if stats is not None:
            stats.removed += 1
        return True, "full_check"

    def to_constraint_set(self) -> SynchronizationConstraintSet:
        """The current set (original minus accepted removals, order kept)."""
        remaining = [
            constraint
            for constraint in self._sc.constraints
            if (constraint.source, constraint.target, constraint.condition)
            not in self._removed
        ]
        return self._sc.replace_constraints(remaining)

    # -- rebase ------------------------------------------------------------------

    @staticmethod
    def _reach(starts: Set[int], adjacency: List[List[int]]) -> Set[int]:
        """Nodes reachable from ``starts`` (inclusive) over id adjacency lists."""
        seen = set(starts)
        stack = list(starts)
        while stack:
            node = stack.pop()
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return seen

    def _invalidate_node(self, node: int, raw_only: bool = False) -> None:
        """Drop cached closures of ``node`` and everything that reaches it."""
        self._raw[node] = None
        if not raw_only:
            self._sem[node] = None
        for ancestor in self._ancestors(node):
            self._raw[ancestor] = None
            if not raw_only:
                self._sem[ancestor] = None

    def rebase(
        self,
        added: Tuple[Constraint, ...] = (),
        removed: Tuple[Constraint, ...] = (),
    ) -> SynchronizationConstraintSet:
        """Re-minimize after editing the declared set, reusing prior work.

        ``added`` constraints are appended to the declared set (duplicates of
        surviving constraints are no-ops); ``removed`` constraints are deleted
        from it.  The result — and the session's state afterwards — is
        *bit-identical* to building a fresh session on the edited declared set
        and running the full candidate pass, but most candidates are replayed
        from the recorded decision log instead of re-checked:

        * A candidate's accept/reject decision depends on edges whose source
          lies in ``desc*(anc*(u) ∪ {u})`` for its source ``u`` — but only
          when the recorded decision came from the stage-3 ancestor check.
          Stage-1 (``raw_shortcut``) and stage-2 (``cheap_reject``) decisions
          read nothing beyond ``desc*(u)``.  Candidates are therefore
          re-checked against a *two-tier* dependency region over the union
          of the old and new declared graphs: ``anc*(S)`` (for edit sources
          ``S``) gates stage-1/2 replays, ``desc*(anc*(S))`` gates stage-3
          replays; both grow dynamically when a re-checked decision flips.
        * Accepted removals preserve *semantic* closures exactly (that is the
          minimization invariant), so cached semantic closures survive the
          replay untouched outside the edit region; raw closures survive
          stage-1 (``raw_shortcut``) removals and are invalidated only at the
          ancestors of stage-3 (``full_check``) removal sources.

        Raises ``ValueError`` — leaving the session untouched — when an added
        constraint references an activity the set does not declare, when a
        removal is not part of the declared set, or when the edited set is
        cyclic.  Callers should fall back to a cold minimization then.
        """
        interner = self.interner
        declared = self._sc.constraints
        declared_keys = {(c.source, c.target, c.condition) for c in declared}

        removed_keys: Set[_EdgeKey] = set()
        for constraint in removed:
            key = (constraint.source, constraint.target, constraint.condition)
            if key not in declared_keys:
                raise ValueError(
                    "rebase removal is not in the declared set: %r" % (constraint,)
                )
            removed_keys.add(key)
        known = set(self._sc.nodes)
        additions: List[Constraint] = []
        addition_keys: Set[_EdgeKey] = set()
        for constraint in added:
            if constraint.source not in known or constraint.target not in known:
                raise ValueError(
                    "rebase addition references unknown activities: %r" % (constraint,)
                )
            key = (constraint.source, constraint.target, constraint.condition)
            if key in addition_keys or (
                key in declared_keys and key not in removed_keys
            ):
                continue
            addition_keys.add(key)
            additions.append(constraint)
        if not additions and not removed_keys:
            return self.to_constraint_set()

        survivors = [
            c
            for c in declared
            if (c.source, c.target, c.condition) not in removed_keys
        ]

        # Fast path: every removed edge was *accepted* by the recorded pass
        # (a redundant declared edge — the behavior-preserving edit of a hot
        # redeploy).  Each accepted removal preserved per-node semantic
        # closures, and by monotonicity the edited declared set's closures
        # sit between the post-removal working set's and the full declared
        # set's — so they are identical, every other candidate re-decides
        # exactly as recorded, and the minimal set is unchanged.  The edges
        # are already out of the working graph, so no cache is touched:
        # only the declared set and the decision log shrink.
        if not additions and removed_keys <= self._removed:
            for key in removed_keys:
                del self._edges[key]
                self._removed.discard(key)
                self._decisions.pop(key, None)
            self._sc = self._sc.replace_constraints(survivors)
            return self.to_constraint_set()

        new_sc = self._sc.replace_constraints(survivors + additions)
        order = topological_sort(new_sc.as_graph())  # ValueError on cycles

        # Union-graph adjacency (old ∪ new declared) for region reachability.
        size = len(self._out)
        union_out: List[List[int]] = [[] for _ in range(size)]
        union_rin: List[List[int]] = [[] for _ in range(size)]
        pairs = {(edge.src, edge.tgt) for edge in self._edges.values()}
        pairs.update(
            (interner.node_id(c.source), interner.node_id(c.target))
            for c in additions
        )
        for src, tgt in pairs:
            union_out[src].append(tgt)
            union_rin[tgt].append(src)
        edit_sources = {interner.node_id(c.source) for c in additions}
        edit_sources.update(self._edges[key].src for key in removed_keys)
        up_region = self._reach(edit_sources, union_rin)
        full_region = self._reach(up_region, union_out)

        # Restore every minimization-removed edge: the replay starts from the
        # full declared graph, exactly like a cold pass.  Stage-1 removals
        # left raw closures unchanged as antichains, so only the ancestors of
        # stage-3 removal sources go stale — and only their *raw* caches, the
        # semantic ones being invariant across accepted removals.
        stage3_sources: Set[int] = set()
        for key in self._removed:
            edge = self._edges[key]
            self._out[edge.src].append(edge)
            self._rin[edge.tgt].append(edge)
            if self._decisions.get(key, (True, "full_check"))[1] != "raw_shortcut":
                stage3_sources.add(edge.src)
        self._removed.clear()
        for node in self._reach(
            stage3_sources, [[e.src for e in edges] for edges in self._rin]
        ):
            self._raw[node] = None

        # Apply the edits to the declared graph, invalidating the closures of
        # each edited edge's source and ancestors (both caches: the declared
        # semantics themselves change here).
        for key in removed_keys:
            edge = self._edges.pop(key)
            self._invalidate_node(edge.src)
            self._out[edge.src].remove(edge)
            self._rin[edge.tgt].remove(edge)
        for constraint in additions:
            edge = _Edge(
                src=interner.node_id(constraint.source),
                tgt=interner.node_id(constraint.target),
                mask=interner.mask_of(constraint.annotation),
                key=(constraint.source, constraint.target, constraint.condition),
            )
            self._edges[edge.key] = edge
            self._out[edge.src].append(edge)
            self._rin[edge.tgt].append(edge)
            self._invalidate_node(edge.src)

        self._sc = new_sc
        for position, name in enumerate(order):
            self._pos[interner.node_id(name)] = position

        # Replay: out-of-region candidates reuse the recorded decision (an
        # accepted removal is re-applied without re-checking), in-region
        # candidates run the full three-stage check.  A decision that flips
        # versus the record widens the region for everything downstream.
        decisions: Dict[_EdgeKey, Tuple[bool, str]] = {}
        for constraint in new_sc.constraints:
            key = (constraint.source, constraint.target, constraint.condition)
            edge = self._edges[key]
            stored = self._decisions.get(key)
            if stored is not None:
                accepted, stage = stored
                affected = (
                    edge.src in full_region
                    if stage == "full_check"
                    else edge.src in up_region
                )
                if not affected:
                    if accepted:
                        self._remove_edge(edge)
                        if stage != "raw_shortcut":
                            self._invalidate_node(edge.src, raw_only=True)
                    decisions[key] = stored
                    continue
            decision = self._try_remove_inner(constraint)
            decisions[key] = decision
            if stored is not None and decision[0] != stored[0]:
                flipped_up = self._reach({edge.src}, union_rin)
                up_region |= flipped_up
                full_region |= self._reach(flipped_up, union_out)
        self._decisions = decisions
        return self.to_constraint_set()
