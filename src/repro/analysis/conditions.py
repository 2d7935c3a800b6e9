"""Condition algebra for annotated synchronization constraints.

Definition 3 of the paper annotates members of an activity's transitive
closure with the *conditional* edges encountered along the path: given
``a1 -> a2 ->_T a3 -> a4``, the closure of ``a1`` is
``{a2, a3(T@a2), a4(T@a2)}``.  An annotation is therefore a pair
``(guard, value)`` where ``guard`` is the activity whose outcome the edge is
conditioned on (``a2`` above) and ``value`` is the outcome (``"T"``).

This module implements the small algebra those annotations obey:

* a *fact* is ``(target, annotations)`` with ``annotations`` a frozenset of
  :class:`Cond`;
* a fact with fewer annotations is *stronger* (it holds in more executions)
  and therefore **subsumes** a fact over the same target with a superset of
  annotations;
* two annotations on the same guard with different values are
  **contradictory** — a path carrying both can never be taken;
* facts whose annotations differ only in the value of one guard, jointly
  covering that guard's whole outcome domain, **merge** into the fact without
  that guard (``r(T@d)`` and ``r(F@d)`` together are just ``r``);
* annotations implied by an activity's own control *guard* are vacuous and
  can be **stripped** (an activity that only runs when ``d = T`` gains
  nothing from a ``(d, T)`` annotation).

The last two rules define the *guard-aware* equivalence mode described in
DESIGN.md, which is required to reproduce the paper's Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, Mapping, Set, Tuple

#: The default outcome domain of a boolean guard activity.
DEFAULT_DOMAIN: FrozenSet[str] = frozenset({"T", "F"})


@dataclass(frozen=True, order=True)
class Cond:
    """A single conditional annotation: ``guard`` evaluated to ``value``.

    ``guard`` names the activity whose outcome is tested (the source of a
    conditional happen-before edge) and ``value`` is the branch label,
    conventionally ``"T"`` or ``"F"`` but any string drawn from the guard's
    declared domain is allowed (multi-way ``switch`` constructs).
    """

    guard: str
    value: str

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        return "%s@%s" % (self.value, self.guard)


#: An annotation set attached to one closure fact.
Annotations = FrozenSet[Cond]

#: A closure fact: reached activity plus the path annotations.
Fact = Tuple[str, Annotations]

EMPTY: Annotations = frozenset()


class ConditionDomains:
    """Registry of guard outcome domains.

    Guards default to the boolean domain ``{"T", "F"}``.  Multi-way guards
    (e.g. a three-case ``switch``) declare their domain explicitly so that
    complementary-cover merging knows when a set of values is exhaustive.
    """

    def __init__(self, domains: Mapping[str, Iterable[str]] | None = None) -> None:
        self._domains: Dict[str, FrozenSet[str]] = {}
        if domains:
            for guard, values in domains.items():
                self.declare(guard, values)

    def declare(self, guard: str, values: Iterable[str]) -> None:
        """Declare the full outcome domain of ``guard``."""
        domain = frozenset(values)
        if not domain:
            raise ValueError("guard %r must have a non-empty domain" % guard)
        self._domains[guard] = domain

    def domain(self, guard: str) -> FrozenSet[str]:
        """Return the outcome domain of ``guard`` (boolean by default)."""
        return self._domains.get(guard, DEFAULT_DOMAIN)

    def copy(self) -> "ConditionDomains":
        return ConditionDomains({g: set(d) for g, d in self._domains.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConditionDomains):
            return NotImplemented
        return self._domains == other._domains

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ConditionDomains(%r)" % (self._domains,)


def is_contradictory(annotations: AbstractSet[Cond]) -> bool:
    """Return ``True`` if the annotation set can never be satisfied.

    A path annotated with both ``(g, T)`` and ``(g, F)`` requires the same
    guard to take two different outcomes in a single execution, which is
    impossible; such a path contributes no closure fact.
    """
    seen: Dict[str, str] = {}
    for cond in annotations:
        previous = seen.get(cond.guard)
        if previous is not None and previous != cond.value:
            return True
        seen[cond.guard] = cond.value
    return False


def subsumes(stronger: AbstractSet[Cond], weaker: AbstractSet[Cond]) -> bool:
    """Return ``True`` if a fact annotated ``stronger`` implies one annotated
    ``weaker`` over the same target.

    Fewer annotations means the happen-before obligation applies in more
    executions, so ``stronger`` subsumes ``weaker`` iff
    ``stronger <= weaker``.
    """
    return frozenset(stronger) <= frozenset(weaker)


def normalize_facts(facts: Iterable[Fact]) -> FrozenSet[Fact]:
    """Drop facts subsumed by a stronger fact over the same target.

    The result contains, per target, only the annotation sets that are
    minimal under set inclusion.  Contradictory facts are discarded.
    """
    by_target: Dict[str, Set[Annotations]] = {}
    for target, annotations in facts:
        if is_contradictory(annotations):
            continue
        by_target.setdefault(target, set()).add(frozenset(annotations))

    result: Set[Fact] = set()
    for target, annotation_sets in by_target.items():
        for candidate in annotation_sets:
            dominated = any(
                other < candidate for other in annotation_sets if other != candidate
            )
            if not dominated:
                result.add((target, candidate))
    return frozenset(result)


def merge_complementary(
    facts: Iterable[Fact],
    domains: ConditionDomains | None = None,
    can_merge=None,
) -> FrozenSet[Fact]:
    """Merge facts whose conditions jointly cover a guard's whole domain.

    If for some target ``t``, base annotations ``A`` and guard ``g`` the
    facts ``(t, A | {(g, v)})`` are present for *every* ``v`` in ``g``'s
    domain, they collapse into ``(t, A)``: the ordering holds whichever way
    the guard goes.  Merging runs to a fixpoint (a merge may enable another)
    and the result is subsumption-normalized.

    ``can_merge(guard, base, target)`` optionally vetoes a merge: the
    collapse is only sound when the guard is certain to *execute* in every
    execution where the base annotations hold (otherwise neither branch
    ordering materializes).  Callers with guard metadata pass a predicate
    checking that the guard's own execution guard is implied by ``base``
    plus the execution guards of the fact's endpoints.

    Merges do not commute (a merged fact can subsume a premise of another
    pending merge), so each round scans facts by ``(target, sorted
    annotations)`` and each fact's conditions in sorted order: the first
    eligible merge, and so the result, never depends on set iteration
    order or the interpreter's hash seed.
    """
    if domains is None:
        domains = ConditionDomains()
    current: Set[Fact] = set(normalize_facts(facts))
    changed = True
    while changed:
        changed = False
        by_base: Dict[Tuple[str, Annotations, str], Set[str]] = {}
        for target, conds in sorted(
            (target, sorted(annotations)) for target, annotations in current
        ):
            annotations = frozenset(conds)
            for cond in conds:
                base = frozenset(annotations - {cond})
                by_base.setdefault((target, base, cond.guard), set()).add(cond.value)
        for (target, base, guard), values in by_base.items():
            if values >= domains.domain(guard):
                if can_merge is not None and not can_merge(guard, base, target):
                    continue
                merged: Fact = (target, base)
                if merged not in current:
                    current = set(normalize_facts(current | {merged}))
                    changed = True
                    break
    return frozenset(normalize_facts(current))


def strip_implied(
    annotations: AbstractSet[Cond], implied: AbstractSet[Cond]
) -> Annotations:
    """Remove annotations that are implied anyway.

    Used by guard-aware equivalence: when comparing closure facts observed
    from a source activity, any annotation contained in the *execution
    guard* of either endpoint is vacuous — in every execution where the
    endpoint runs at all, that condition already holds.
    """
    return frozenset(annotations) - frozenset(implied)
