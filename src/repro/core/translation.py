"""Service dependency translation (Section 4.3, Figure 8).

The merged constraint set ``SC = {A, S, P}`` contains external service-port
nodes.  A process implementation can only sequence its *own* activities, so
constraints through external nodes must be rewritten onto internal
activities, producing the Activity Synchronization Constraint set
``ASC = {A, P}``.

Two mechanisms compose:

1. **Port contraction.**  An *invoke* activity and the port it calls are two
   views of the same event (the invocation's finish *is* the message's
   arrival at the port), so a port with exactly one invoking activity is
   contracted into that activity.  This is what turns the Purchase service's
   internal ordering ``Purchase1 ->s Purchase2`` into the bold Figure 8 edge
   ``invPurchase_po -> invPurchase_si`` — an edge that pure path-bridging
   cannot produce because ``invPurchase_si ->s Purchase2`` points *into* the
   port.
2. **Bridging.**  Every remaining external node (dummy callback ports, or
   ports without a unique invoker) is bypassed: for each path
   ``a -> x1 -> ... -> xk -> b`` whose interior is entirely external, the
   constraint ``a -> b`` is added; then all external nodes and their edges
   are dropped.  External nodes with no internal offspring simply disappear
   (the Production service's ports), which is how the paper's analysis shows
   Figure 2's ``invProduction_po -> invProduction_ss`` sequencing to be
   over-specified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.errors import TranslationError
from repro.model.activity import ActivityKind
from repro.model.process import BusinessProcess


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of service dependency translation.

    ``asc``
        The translated set (no external nodes in any constraint).
    ``bridged``
        Constraints that did not exist before translation — Figure 8's bold
        edges.
    ``dropped``
        Original constraints that touched external nodes and were removed.
    """

    asc: SynchronizationConstraintSet
    bridged: Tuple[Constraint, ...]
    dropped: Tuple[Constraint, ...]


def invoke_bindings_from_process(process: BusinessProcess) -> Dict[str, str]:
    """Map ``port display name -> invoking activity`` for contraction.

    Ports invoked by more than one activity are omitted (they fall back to
    bridging, which is always sound).
    """
    invokers: Dict[str, List[str]] = {}
    for activity in process.activities:
        if activity.kind is ActivityKind.INVOKE and activity.port is not None:
            invokers.setdefault(activity.port.port, []).append(activity.name)
    return {
        port: activities[0]
        for port, activities in invokers.items()
        if len(activities) == 1
    }


def translate_service_dependencies(
    sc: SynchronizationConstraintSet,
    invoke_bindings: Optional[Mapping[str, str]] = None,
) -> TranslationResult:
    """Translate ``SC`` into an ``ASC`` (Section 4.3).

    ``invoke_bindings`` maps external port names to the internal activity
    that invokes them; bound ports are contracted, unbound ones bridged.
    Passing no bindings degenerates to pure bridging (the ablation variant).

    Raises :class:`TranslationError` if a conditional constraint touches an
    external node (cannot arise from the extractors in this library, but a
    hand-built set could contain one and silently dropping the condition
    would be unsound).
    """
    invoke_bindings = dict(invoke_bindings or {})
    external = set(sc.externals)
    internal = set(sc.activities)

    for port, activity in invoke_bindings.items():
        if port not in external:
            raise TranslationError(
                "binding for %r: not an external node of this set" % port
            )
        if activity not in internal:
            raise TranslationError(
                "binding %r -> %r: target is not an internal activity"
                % (port, activity)
            )

    for constraint in sc:
        touches_external = (
            constraint.source in external or constraint.target in external
        )
        if touches_external and constraint.condition is not None:
            raise TranslationError(
                "conditional constraint %s touches an external node; "
                "translation would lose the condition" % constraint
            )

    def resolve(node: str) -> str:
        """Apply port contraction (bound port -> its invoking activity)."""
        return invoke_bindings.get(node, node)

    # Pass 1: contract bound ports.  The binding edge itself
    # (invoker -> port) collapses to a self-loop and is dropped.
    contracted: List[Constraint] = []
    dropped: List[Constraint] = []
    for constraint in sc:
        source = resolve(constraint.source)
        target = resolve(constraint.target)
        if constraint.source in external or constraint.target in external:
            dropped.append(constraint)
        if source == target:
            continue
        contracted.append(Constraint(source, target, constraint.condition))

    # Pass 2: bridge the remaining external nodes.
    still_external = external - set(invoke_bindings)
    # Successor and offspring collections are insertion-ordered dicts, not
    # sets: the bridged edges are emitted in this order, and a set's order
    # would make the translated set (and so the minimize candidate order)
    # depend on the interpreter's hash seed.
    successors: Dict[str, Dict[str, None]] = {}
    for constraint in contracted:
        successors.setdefault(constraint.source, {})[constraint.target] = None

    offspring_cache: Dict[str, Dict[str, None]] = {}

    def internal_offspring(node: str) -> Dict[str, None]:
        """Internal nodes reachable from external ``node`` through
        exclusively external interior nodes, in first-reached order."""
        if node in offspring_cache:
            return offspring_cache[node]
        offspring_cache[node] = {}  # breaks cycles defensively
        found: Dict[str, None] = {}
        for target in successors.get(node, ()):
            if target in still_external:
                found.update(internal_offspring(target))
            else:
                found[target] = None
        offspring_cache[node] = found
        return found

    final: Dict[Tuple[str, str, Optional[str]], Constraint] = {}
    bridged: List[Constraint] = []
    existing_keys = {
        (c.source, c.target, c.condition) for c in contracted
        if c.source not in still_external and c.target not in still_external
    }
    for constraint in contracted:
        source_external = constraint.source in still_external
        target_external = constraint.target in still_external
        if not source_external and not target_external:
            final.setdefault(
                (constraint.source, constraint.target, constraint.condition),
                constraint,
            )
            continue
        if not source_external and target_external:
            for target in internal_offspring(constraint.target):
                if target == constraint.source:
                    raise TranslationError(
                        "bridging %s would create a self-loop on %r"
                        % (constraint, target)
                    )
                key = (constraint.source, target, constraint.condition)
                if key not in final:
                    bridged_constraint = Constraint(*key)
                    final[key] = bridged_constraint
                    if key not in existing_keys:
                        bridged.append(bridged_constraint)
        # Edges starting at an external node are consumed by bridging above.

    asc = SynchronizationConstraintSet(
        activities=sc.activities,
        externals=(),
        constraints=final.values(),
        guards=sc.guards,
        domains=sc.domains,
    )
    # Contracted port-ordering edges that landed between two internal
    # activities (e.g. Purchase1 ->s Purchase2 becoming
    # invPurchase_po -> invPurchase_si) are also "new" translated edges.
    original_internal_keys = {
        (c.source, c.target, c.condition)
        for c in sc
        if c.source in internal and c.target in internal
    }
    extra_bridged = [
        constraint
        for key, constraint in final.items()
        if key not in original_internal_keys
        and constraint not in bridged
    ]
    return TranslationResult(
        asc=asc,
        bridged=tuple(bridged + extra_bridged),
        dropped=tuple(dict.fromkeys(dropped)),
    )


def verify_translation(
    original: SynchronizationConstraintSet,
    result: TranslationResult,
) -> bool:
    """Check the Section-4.3 correctness statement of a translation.

    Every internal-to-internal reachability fact of the mixed set must
    survive translation — the ``ASC`` covers the internal projection of the
    original closure.  (Port contraction may *strengthen* the set, so the
    converse need not hold.)  Runs on the bitset closure kernel; used by
    the differential tests and the core perf smoke job.
    """
    from repro.core.closure import Semantics, internal_closure_map
    from repro.core.equivalence import fact_set_covers

    before = internal_closure_map(original, Semantics.REACHABILITY)
    after = internal_closure_map(result.asc, Semantics.REACHABILITY)
    for activity in original.activities:
        original_facts = before.get(activity, frozenset())
        translated_facts = after.get(activity, frozenset())
        if not fact_set_covers(translated_facts, original_facts):
            return False
    return True
