"""Interned bitset kernel for the constraint algebra.

The frozenset-based condition algebra in :mod:`repro.analysis.conditions`
is the *reference* implementation: facts are ``(str, frozenset[Cond])``
tuples and every subsumption / contradiction / merge test hashes and
compares small frozensets.  Minimization performs millions of those tests,
so this module provides a dense integer representation for the same
algebra:

* activity and port names are interned to consecutive integer ids;
* every :class:`~repro.analysis.conditions.Cond` occupies one bit of an
  arbitrary-precision integer, so an annotation set is a single *mask*;
* a closure is ``dict[int, list[int]]`` — target id mapped to the minimal
  antichain of annotation masks reaching it.

Under this layout the hot operations become machine-int arithmetic:

===========================  =============================================
reference                    kernel
===========================  =============================================
``stronger <= annotations``  ``stronger & mask == stronger``
``is_contradictory(a | b)``  ``a & conflict_of(b) != 0``
``normalize_facts``          :func:`antichain_insert`
``fact_set_covers``          :func:`closure_covers`
``merge_complementary``      per-target fixpoint on masks
===========================  =============================================

The complementary merge runs its fixpoint per target: a merge changes one
target's antichain and its veto context depends on that target alone, so
rescanning only that antichain after each merge applies the same merges in
the same order as a whole-closure rescan (see
:meth:`~repro.core.session.MinimizationSession._merge_complementary`).

Contradiction uses per-bit *conflict masks*: when the bit for ``(g, v)``
is interned, it is marked as conflicting with every previously interned
bit ``(g, w)``, ``w != v``.  A mask is contradictory iff it intersects the
union of the conflict masks of its own bits; the union is memoized per
mask because path composition re-joins the same edge masks repeatedly.

The kernel is exercised through :class:`repro.core.session.MinimizationSession`
and the ``kernel=True`` paths of :mod:`repro.core.closure` /
:mod:`repro.core.minimize`; a hypothesis differential property
(``tests/test_core_kernel.py``) checks it against the reference algebra
under all three semantics.  The two scan merges in different orders and
guard-aware normal forms are not canonical, so they can end at different
(equivalent) closures; ROADMAP item 5 records a set where that changes the
minimal set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.analysis.conditions import Annotations, Cond, Fact

#: A closure in kernel form: target id -> minimal antichain of masks.
MaskClosure = Dict[int, List[int]]


@dataclass
class KernelStats:
    """Counters of the kernel's work, surfaced by ``dscweaver minimize --stats``.

    ``closures_computed``
        Per-node raw-closure builds (each composes the cached closures of
        the node's successors).
    ``closure_cache_hits``
        Closure lookups answered from the session cache without any
        recomputation.
    ``subsumption_tests``
        Individual ``stronger & mask == stronger`` bit tests performed by
        cover checks.
    ``candidates``
        Constraints considered for removal by the minimizer.
    ``raw_shortcut_accepts``
        Removals accepted by the raw-closure cover shortcut alone.
    ``cheap_rejects``
        Removals rejected by the single-source semantic pre-test.
    ``full_checks``
        Candidates that reached the ancestor-restricted equivalence check.
    ``removed``
        Constraints actually removed.
    """

    closures_computed: int = 0
    closure_cache_hits: int = 0
    subsumption_tests: int = 0
    candidates: int = 0
    raw_shortcut_accepts: int = 0
    cheap_rejects: int = 0
    full_checks: int = 0
    removed: int = 0

    @property
    def closure_cache_hit_rate(self) -> float:
        """Fraction of closure lookups served from cache (0.0 - 1.0)."""
        total = self.closures_computed + self.closure_cache_hits
        if total == 0:
            return 0.0
        return self.closure_cache_hits / total

    def as_dict(self) -> Dict[str, object]:
        return {
            "closures_computed": self.closures_computed,
            "closure_cache_hits": self.closure_cache_hits,
            "closure_cache_hit_rate": self.closure_cache_hit_rate,
            "subsumption_tests": self.subsumption_tests,
            "candidates": self.candidates,
            "raw_shortcut_accepts": self.raw_shortcut_accepts,
            "cheap_rejects": self.cheap_rejects,
            "full_checks": self.full_checks,
            "removed": self.removed,
        }

    def publish(self, registry) -> None:
        """Add these counters to a :class:`repro.obs.MetricsRegistry`.

        The dataclass stays the typed view; the registry rows
        (``repro_core_<counter>_total``) are the shared exchange format.
        Counters accumulate across repeated minimizations on the same
        registry.
        """
        help_texts = {
            "closures_computed": "Per-node raw-closure builds.",
            "closure_cache_hits": "Closure lookups served from the session cache.",
            "subsumption_tests": "Bitmask subsumption tests in cover checks.",
            "candidates": "Constraints considered for removal.",
            "raw_shortcut_accepts": "Removals accepted by the raw-cover shortcut.",
            "cheap_rejects": "Removals rejected by the semantic pre-test.",
            "full_checks": "Candidates reaching the full ancestor check.",
            "removed": "Constraints actually removed.",
        }
        for name, text in help_texts.items():
            registry.counter("repro_core_%s_total" % name, text).inc(
                getattr(self, name)
            )


@dataclass
class Interner:
    """Dense ids for node names and bit positions for conditions.

    One interner underpins one kernel universe: node ids index the
    adjacency and closure arrays, condition bits compose annotation masks.
    Interning is append-only — removal of a constraint never shrinks the
    universe, which keeps every previously built mask valid.
    """

    _node_ids: Dict[str, int] = field(default_factory=dict)
    _node_names: List[str] = field(default_factory=list)
    _cond_bits: Dict[Cond, int] = field(default_factory=dict)
    _conds: List[Cond] = field(default_factory=list)
    _guard_bits: Dict[str, List[int]] = field(default_factory=dict)
    _conflict: List[int] = field(default_factory=list)
    _conflict_cache: Dict[int, int] = field(default_factory=lambda: {0: 0})

    # -- nodes ---------------------------------------------------------------

    def node_id(self, name: str) -> int:
        """Intern ``name`` and return its dense id."""
        node = self._node_ids.get(name)
        if node is None:
            node = len(self._node_names)
            self._node_ids[name] = node
            self._node_names.append(name)
        return node

    def lookup_node(self, name: str) -> Optional[int]:
        """The id of ``name`` if already interned, else ``None``."""
        return self._node_ids.get(name)

    def node_name(self, node: int) -> str:
        return self._node_names[node]

    def __len__(self) -> int:
        return len(self._node_names)

    # -- conditions ----------------------------------------------------------

    def cond_bit(self, cond: Cond) -> int:
        """Intern ``cond`` and return its bit position.

        Registers the new bit as conflicting with every other value of the
        same guard seen so far, so contradiction stays a mask test.
        """
        bit = self._cond_bits.get(cond)
        if bit is None:
            bit = len(self._conds)
            self._cond_bits[cond] = bit
            self._conds.append(cond)
            siblings = self._guard_bits.setdefault(cond.guard, [])
            conflict = 0
            for other in siblings:
                conflict |= 1 << other
                self._conflict[other] |= 1 << bit
            siblings.append(bit)
            self._conflict.append(conflict)
            # Conflict masks changed; memoized unions may be stale.
            self._conflict_cache = {0: 0}
        return bit

    def lookup_cond(self, cond: Cond) -> Optional[int]:
        """The bit of ``cond`` if already interned, else ``None``."""
        return self._cond_bits.get(cond)

    @property
    def conds(self) -> List[Cond]:
        """Every interned condition, indexed by bit (live view; do not mutate)."""
        return self._conds

    def mask_of(self, annotations: Iterable[Cond]) -> int:
        """Pack an annotation set into a mask (interning as needed)."""
        mask = 0
        for cond in annotations:
            mask |= 1 << self.cond_bit(cond)
        return mask

    def annotations_of(self, mask: int) -> Annotations:
        """Unpack a mask back into a frozenset of conditions."""
        conds = []
        while mask:
            low = mask & -mask
            conds.append(self._conds[low.bit_length() - 1])
            mask ^= low
        return frozenset(conds)

    def conflict_of(self, mask: int) -> int:
        """Union of the conflict masks of every bit in ``mask`` (memoized).

        ``a | b`` is contradictory — for individually consistent ``a`` and
        ``b`` — iff ``a & conflict_of(b)`` is non-zero.
        """
        cached = self._conflict_cache.get(mask)
        if cached is None:
            cached = 0
            m = mask
            conflict = self._conflict
            while m:
                low = m & -m
                cached |= conflict[low.bit_length() - 1]
                m ^= low
            self._conflict_cache[mask] = cached
        return cached

    def is_contradictory(self, mask: int) -> bool:
        """Does ``mask`` bind some guard to two different values?"""
        return bool(mask & self.conflict_of(mask))


# -- antichain closures ------------------------------------------------------


def antichain_insert(masks: List[int], mask: int) -> bool:
    """Insert ``mask`` into a minimal antichain, in place.

    Returns ``False`` (and leaves the list untouched) when an existing mask
    subsumes ``mask``; otherwise removes every mask ``mask`` subsumes and
    appends it.  Mirrors ``normalize_facts`` restricted to one target.
    """
    for existing in masks:
        if existing & mask == existing:
            return False
    masks[:] = [existing for existing in masks if mask & existing != mask]
    masks.append(mask)
    return True


def antichain_covers(masks: Iterable[int], mask: int) -> bool:
    """Is ``mask`` subsumed by some member of a minimal antichain?

    ``existing & mask == existing`` is the subset test: an existing
    (weaker, smaller) mask covers every extension of itself.
    """
    for existing in masks:
        if existing & mask == existing:
            return True
    return False


class AntichainFrontier:
    """Memoized antichain frontiers keyed by an opaque context.

    The verifier uses one frontier per (valuation, skipped, running)
    context: the antichain stores the minimal executed-set masks already
    proven completable, so symmetric interleavings — and repeated
    ``would_strand`` queries over monotonically growing prefixes —
    collapse into a single subset test instead of a re-exploration.
    ``hits``/``misses`` feed the ``repro_verify_memo_*`` metrics.
    """

    def __init__(self) -> None:
        self._chains: Dict[object, List[int]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return sum(len(masks) for masks in self._chains.values())

    def covers(self, key: object, mask: int) -> bool:
        masks = self._chains.get(key)
        if masks is not None and antichain_covers(masks, mask):
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key: object, mask: int) -> bool:
        masks = self._chains.setdefault(key, [])
        return antichain_insert(masks, mask)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def closure_insert(closure: MaskClosure, target: int, mask: int) -> bool:
    """Insert the fact ``(target, mask)`` into a kernel closure."""
    masks = closure.get(target)
    if masks is None:
        closure[target] = [mask]
        return True
    return antichain_insert(masks, mask)


def closure_covers(
    covering: MaskClosure,
    covered: MaskClosure,
    stats: Optional[KernelStats] = None,
) -> bool:
    """Kernel twin of ``fact_set_covers``: every covered fact subsumed.

    A mask ``m`` is subsumed by a stronger mask ``s`` when
    ``s & m == s`` (subset test on machine ints).
    """
    tests = 0
    result = True
    for target, masks in covered.items():
        candidates = covering.get(target)
        if not candidates:
            result = False
            break
        for mask in masks:
            found = False
            for stronger in candidates:
                tests += 1
                if stronger & mask == stronger:
                    found = True
                    break
            if not found:
                result = False
                break
        if not result:
            break
    if stats is not None:
        stats.subsumption_tests += tests
    return result


def closures_equal(first: MaskClosure, second: MaskClosure) -> bool:
    """Are two kernel closures the same fact set (order-insensitive)?"""
    if first.keys() != second.keys():
        return False
    return all(
        len(first[target]) == len(second[target])
        and set(first[target]) == set(second[target])
        for target in first
    )


def closure_to_facts(interner: Interner, closure: MaskClosure) -> FrozenSet[Fact]:
    """Convert a kernel closure back to reference ``(name, frozenset)`` facts."""
    return frozenset(
        (interner.node_name(target), interner.annotations_of(mask))
        for target, masks in closure.items()
        for mask in masks
    )
