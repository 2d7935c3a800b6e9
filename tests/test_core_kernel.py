"""Differential and unit tests for the interned bitset kernel.

The kernel (:mod:`repro.core.kernel` + :mod:`repro.core.session`) must be a
pure representation change: for every generated input and every semantics
it produces *bit-for-bit* the same minimal sets, closures and equivalence
verdicts as the reference frozenset path.  The hypothesis property here is
the contract that lets ``kernel=True`` be the default everywhere.  One
larger synthetic set is a known exception (ROADMAP item 5): guard-aware
normal forms are not canonical, and there the kernel keeps one constraint
more than the reference.
"""

from __future__ import annotations

import copy
import hashlib
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.conditions import Cond, ConditionDomains
from repro.cli import main
from repro.core.closure import Semantics, closure_map
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.equivalence import transitive_equivalent
from repro.core.kernel import (
    Interner,
    KernelStats,
    antichain_insert,
    closure_covers,
    closure_insert,
    closures_equal,
    closure_to_facts,
)
from repro.core.minimize import minimize_fast
from repro.core.pipeline import DSCWeaver
from repro.core.session import MinimizationSession, candidate_order
from repro.workloads.synthetic import SyntheticSpec, generate_dependency_set
from tests.strategies import constraint_sets, unconditional_constraint_sets
from tests.test_pipeline_paper_numbers import FIGURE9_EDGES

SLOW = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ALL_SEMANTICS = [Semantics.STRICT, Semantics.GUARD_AWARE, Semantics.REACHABILITY]


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


class TestInterner:
    def test_node_ids_are_dense_and_stable(self):
        interner = Interner()
        assert interner.node_id("a") == 0
        assert interner.node_id("b") == 1
        assert interner.node_id("a") == 0
        assert interner.node_name(1) == "b"
        assert interner.lookup_node("c") is None
        assert len(interner) == 2

    def test_mask_roundtrip(self):
        interner = Interner()
        annotations = frozenset({Cond("g", "T"), Cond("h", "F")})
        mask = interner.mask_of(annotations)
        assert bin(mask).count("1") == 2
        assert interner.annotations_of(mask) == annotations
        assert interner.mask_of(frozenset()) == 0
        assert interner.annotations_of(0) == frozenset()

    def test_sibling_values_conflict(self):
        interner = Interner()
        true_mask = interner.mask_of({Cond("g", "T")})
        false_mask = interner.mask_of({Cond("g", "F")})
        other = interner.mask_of({Cond("h", "T")})
        assert not interner.is_contradictory(true_mask)
        assert not interner.is_contradictory(true_mask | other)
        assert interner.is_contradictory(true_mask | false_mask)
        # a | b contradiction via the memoized conflict union.
        assert true_mask & interner.conflict_of(false_mask)
        assert not true_mask & interner.conflict_of(other)

    def test_conflict_cache_invalidated_by_new_bits(self):
        interner = Interner()
        true_mask = interner.mask_of({Cond("g", "T")})
        assert interner.conflict_of(true_mask) == 0  # no sibling yet, cached
        false_mask = interner.mask_of({Cond("g", "F")})
        # The cached union must have been dropped when the sibling arrived.
        assert interner.conflict_of(true_mask) == false_mask


class TestAntichainClosures:
    def test_insert_keeps_only_minimal_masks(self):
        masks = []
        assert antichain_insert(masks, 0b11)
        assert not antichain_insert(masks, 0b11)  # duplicate
        assert not antichain_insert(masks, 0b111)  # weaker (superset) fact
        assert antichain_insert(masks, 0b01)  # stronger: evicts 0b11
        assert masks == [0b01]
        assert antichain_insert(masks, 0b10)  # incomparable: coexists
        assert sorted(masks) == [0b01, 0b10]

    def test_closure_cover_is_subsumption(self):
        stats = KernelStats()
        covering = {}
        closure_insert(covering, 1, 0b0)
        closure_insert(covering, 2, 0b01)
        covered = {1: [0b10], 2: [0b011]}
        assert closure_covers(covering, covered, stats)
        assert stats.subsumption_tests > 0
        # Missing target or no subsuming mask -> not covered.
        assert not closure_covers(covering, {3: [0]}, stats)
        assert not closure_covers({2: [0b10]}, {2: [0b01]}, stats)

    def test_closures_equal_ignores_mask_order(self):
        assert closures_equal({1: [0b01, 0b10]}, {1: [0b10, 0b01]})
        assert not closures_equal({1: [0b01]}, {1: [0b01], 2: [0]})
        assert not closures_equal({1: [0b01]}, {1: [0b10]})

    def test_closure_to_facts_unpacks(self):
        interner = Interner()
        interner.node_id("a")
        target = interner.node_id("b")
        mask = interner.mask_of({Cond("g", "T")})
        facts = closure_to_facts(interner, {target: [mask, 0]})
        assert ("b", frozenset()) in facts
        assert ("b", frozenset({Cond("g", "T")})) in facts


class TestDifferential:
    """Kernel on/off must be observationally identical."""

    @SLOW
    @given(sc=constraint_sets())
    def test_minimal_sets_identical_guarded(self, sc):
        for semantics in ALL_SEMANTICS:
            fast = minimize_fast(sc, semantics, kernel=True)
            reference = minimize_fast(sc, semantics, kernel=False)
            assert fast.constraints == reference.constraints

    @SLOW
    @given(sc=unconditional_constraint_sets())
    def test_minimal_sets_identical_unconditional(self, sc):
        for semantics in ALL_SEMANTICS:
            fast = minimize_fast(sc, semantics, kernel=True)
            reference = minimize_fast(sc, semantics, kernel=False)
            assert fast.constraints == reference.constraints

    @SLOW
    @given(sc=constraint_sets())
    def test_closure_maps_identical(self, sc):
        for semantics in ALL_SEMANTICS:
            assert closure_map(sc, semantics, kernel=True) == closure_map(
                sc, semantics, kernel=False
            )

    @SLOW
    @given(sc=constraint_sets())
    def test_equivalence_verdicts_identical(self, sc):
        for semantics in ALL_SEMANTICS:
            minimal = minimize_fast(sc, semantics, kernel=True)
            for candidate in (minimal, sc):
                for constraint in sc.constraints[:3]:
                    thinned = candidate.without(constraint)
                    assert transitive_equivalent(
                        thinned, sc, semantics, kernel=True
                    ) == transitive_equivalent(thinned, sc, semantics, kernel=False)

    def test_cyclic_set_falls_back_to_reference(self):
        cyclic = sc_of([("a", "b"), ("b", "a"), ("a", "c")])
        for semantics in ALL_SEMANTICS:
            assert closure_map(cyclic, semantics, kernel=True) == closure_map(
                cyclic, semantics, kernel=False
            )
            assert (
                minimize_fast(cyclic, semantics, kernel=True).constraints
                == minimize_fast(cyclic, semantics, kernel=False).constraints
            )

    def test_session_rejects_cyclic_sets(self):
        cyclic = sc_of([("a", "b"), ("b", "a")])
        with pytest.raises(ValueError):
            MinimizationSession(cyclic)


class TestPaperNumbersOnKernel:
    """Table 2 and Figure 9 pinned under both representation paths."""

    def test_table2_and_figure9(self, purchasing_process, purchasing_dependencies):
        kernel = DSCWeaver(kernel=True).weave(
            purchasing_process, purchasing_dependencies
        )
        reference = DSCWeaver(kernel=False).weave(
            purchasing_process, purchasing_dependencies
        )
        for result in (kernel, reference):
            assert result.report.raw_total == 40
            assert result.report.minimal == 17
            assert result.report.removed == 23
            assert {str(c) for c in result.minimal} == FIGURE9_EDGES
        assert kernel.minimal.constraints == reference.minimal.constraints

    def test_kernel_stats_attached_only_on_kernel_path(
        self, purchasing_process, purchasing_dependencies
    ):
        kernel = DSCWeaver(kernel=True).weave(
            purchasing_process, purchasing_dependencies
        )
        reference = DSCWeaver(kernel=False).weave(
            purchasing_process, purchasing_dependencies
        )
        stats = kernel.report.kernel_stats
        assert stats is not None
        assert stats["candidates"] == 30
        assert stats["removed"] == 13
        assert stats["closures_computed"] > 0
        assert "kernel" in kernel.report.as_table()
        assert reference.report.kernel_stats is None
        assert "kernel" not in reference.report.as_table()


class TestSession:
    def test_direct_drive_matches_minimize_fast(self, purchasing_weave):
        asc = purchasing_weave.translation.asc
        session = MinimizationSession(asc, Semantics.GUARD_AWARE)
        for constraint in asc.constraints:
            session.try_remove(constraint)
        direct = session.to_constraint_set()
        assert direct.constraints == minimize_fast(asc, Semantics.GUARD_AWARE).constraints

    def test_semantic_facts_matches_closure_map(self, purchasing_weave):
        asc = purchasing_weave.translation.asc
        session = MinimizationSession(asc, Semantics.GUARD_AWARE)
        reference = closure_map(asc, Semantics.GUARD_AWARE, kernel=False)
        for node in asc.nodes:
            assert session.semantic_facts(node) == reference[node]
        assert session.semantic_facts("no-such-node") == frozenset()

    def test_stats_counters_accumulate(self, purchasing_weave):
        asc = purchasing_weave.translation.asc
        stats = KernelStats()
        minimize_fast(asc, Semantics.GUARD_AWARE, kernel=True, stats=stats)
        assert stats.candidates == len(asc)
        assert stats.removed == 13
        assert (
            stats.raw_shortcut_accepts + stats.cheap_rejects + stats.full_checks
            <= stats.candidates
        )
        assert stats.closures_computed > 0
        assert stats.closure_cache_hits > 0
        assert 0.0 < stats.closure_cache_hit_rate < 1.0
        payload = stats.as_dict()
        assert payload["subsumption_tests"] == stats.subsumption_tests
        assert payload["closure_cache_hit_rate"] == pytest.approx(
            stats.closure_cache_hit_rate, rel=1e-3
        )

    def test_fresh_stats_hit_rate_is_zero(self):
        assert KernelStats().closure_cache_hit_rate == 0.0


def whole_closure_merge(session, source, current):
    """The whole-closure rescan ``_merge_complementary`` replaced (reference).

    Rebuilds the ``(target, base, guard)`` grouping over every fact after
    each single merge and applies the first eligible group.
    """
    interner = session.interner
    source_guard = session._guard_mask[source]
    changed = True
    while changed:
        changed = False
        by_base = {}
        for target, masks in current.items():
            for mask in masks:
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    cond = interner.conds[low.bit_length() - 1]
                    by_base.setdefault((target, mask ^ low, cond.guard), set()).add(
                        cond.value
                    )
        for (target, base, guard), values in by_base.items():
            if values >= session._domains.domain(guard):
                required = session._guard_mask_of_name(guard)
                context = base | source_guard | session._guard_mask[target]
                if required & context != required:
                    continue
                if closure_insert(current, target, base):
                    changed = True
                    break
    return current


#: Guards of the merge property, one per domain size (1, 2 and 3 values).
MERGE_DOMAINS = {"g1": ("only",), "g2": ("T", "F"), "g3": ("x", "y", "z")}
MERGE_NODES = ["g1", "g2", "g3", "n0", "n1", "n2", "n3"]


@st.composite
def _assignments(draw):
    """A consistent annotation: at most one value per guard."""
    conds = set()
    for guard, domain in MERGE_DOMAINS.items():
        value = draw(st.sampled_from((None,) + domain))
        if value is not None:
            conds.add(Cond(guard, value))
    return conds


@st.composite
def merge_inputs(draw):
    """A session with execution guards, a source and a stripped closure.

    Execution guards on the guard activities themselves make some merges
    subject to the veto; closures are built from complementary families
    (one base extended by several values of one guard, usually all of them)
    plus stray facts, so merges cascade and antichain evictions happen.
    """
    guards = {}
    for node in MERGE_NODES:
        # A guard activity is only guarded by lower-numbered guards (no cycles).
        allowed = [guard for guard in MERGE_DOMAINS if node not in MERGE_DOMAINS or guard < node]
        if not allowed:
            continue
        chosen = draw(st.lists(st.sampled_from(allowed), max_size=2, unique=True))
        if chosen:
            guards[node] = {
                Cond(guard, draw(st.sampled_from(MERGE_DOMAINS[guard]))) for guard in chosen
            }
    sc = SynchronizationConstraintSet(
        activities=MERGE_NODES, guards=guards, domains=ConditionDomains(MERGE_DOMAINS)
    )
    session = MinimizationSession(sc, Semantics.GUARD_AWARE)
    order = draw(st.permutations([Cond(g, v) for g, d in MERGE_DOMAINS.items() for v in d]))
    interner = session.interner
    for cond in order:
        interner.cond_bit(cond)

    closure = {}
    nodes = st.sampled_from(range(len(MERGE_NODES)))
    targets = draw(st.lists(nodes, min_size=1, max_size=4, unique=True))
    for target in targets:
        facts = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            base = draw(_assignments())
            guard = draw(st.sampled_from(sorted(MERGE_DOMAINS)))
            base = {c for c in base if c.guard != guard}
            values = list(MERGE_DOMAINS[guard])
            if draw(st.booleans()) and len(values) > 1:
                values.pop(draw(st.integers(min_value=0, max_value=len(values) - 1)))
            facts.extend(base | {Cond(guard, value)} for value in values)
        facts.extend(draw(st.lists(_assignments(), max_size=3)))
        for annotation in draw(st.permutations(facts)):
            closure_insert(closure, target, interner.mask_of(annotation))
    return session, draw(nodes), closure


class TestMergeComplementary:
    """The per-target fixpoint replays the whole-closure rescan exactly."""

    @settings(max_examples=300, deadline=None)
    @given(case=merge_inputs())
    def test_same_closure_key_and_mask_order(self, case):
        session, source, closure = case
        expected = whole_closure_merge(session, source, copy.deepcopy(closure))
        merged = session._merge_complementary(source, copy.deepcopy(closure))
        assert list(merged) == list(expected)
        assert merged == expected

    def test_veto_blocks_a_merge_the_context_lacks(self):
        domains = ConditionDomains(MERGE_DOMAINS)
        guarded = SynchronizationConstraintSet(
            activities=MERGE_NODES, guards={"g3": {Cond("g2", "T")}}, domains=domains
        )
        session = MinimizationSession(guarded, Semantics.GUARD_AWARE)
        interner = session.interner
        target = interner.node_id("n1")
        facts = [{Cond("g3", value)} for value in MERGE_DOMAINS["g3"]]
        closure = {target: [interner.mask_of(f) for f in facts]}
        vetoed = session._merge_complementary(interner.node_id("n0"), copy.deepcopy(closure))
        assert 0 not in vetoed[target]
        # Under g2=T the guard g3 is certain to run: the merge applies.
        context = {target: [interner.mask_of(f | {Cond("g2", "T")}) for f in facts]}
        merged = session._merge_complementary(interner.node_id("n0"), context)
        assert merged[target] == [interner.mask_of({Cond("g2", "T")})]


class TestSyntheticPin:
    def test_syn300_weave_counters_and_minimal_set(self):
        process, dependencies = generate_dependency_set(
            SyntheticSpec(
                n_activities=300, n_services=4, n_branches=2, coop_density=0.5, seed=1
            )
        )
        result = DSCWeaver().weave(process, dependencies)
        stats = dict(result.report.kernel_stats)
        stats.pop("closure_cache_hit_rate")
        assert stats == {
            "candidates": 665,
            "cheap_rejects": 563,
            "closure_cache_hits": 4952,
            "closures_computed": 1146,
            "full_checks": 14,
            "raw_shortcut_accepts": 88,
            "removed": 102,
            "subsumption_tests": 56362,
        }
        lines = sorted(str(constraint) for constraint in result.minimal.constraints)
        assert len(lines) == 563
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == "2ae32a12f9d1ede6ea419b28184d75393322a4e3b63f607ae5724a5c10139b59"


class TestCandidateOrder:
    def test_explicit_order_wins_then_insertion_order(self):
        sc = sc_of([("a", "b"), ("b", "c"), ("a", "c")])
        explicit = [Constraint("a", "c")]
        ordered = candidate_order(sc, explicit)
        assert ordered[0] == Constraint("a", "c")
        assert ordered[1:] == [c for c in sc.constraints if c != Constraint("a", "c")]

    def test_unknown_constraint_rejected(self):
        sc = sc_of([("a", "b")])
        with pytest.raises(ValueError):
            candidate_order(sc, [Constraint("x", "y")])

    def test_large_explicit_order_is_not_quadratic(self):
        # Regression: the membership checks used to scan the order *list*
        # for every constraint, turning a full explicit order over a large
        # chain into an O(n^2) prelude.  With set-based membership this
        # stays well under a second even at 4000 constraints.
        names = ["a%d" % i for i in range(4001)]
        edges = [(names[i], names[i + 1]) for i in range(4000)]
        sc = sc_of(edges, activities=names)
        explicit = list(reversed(sc.constraints))
        started = time.perf_counter()
        ordered = candidate_order(sc, explicit)
        elapsed = time.perf_counter() - started
        assert ordered == explicit
        assert elapsed < 1.0


class TestMinimizeCli:
    def test_minimize_lists_figure9(self, capsys):
        assert main(["minimize", "--workload", "purchasing"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 17

    def test_minimize_stats_prints_counters(self, capsys):
        assert main(["minimize", "--workload", "purchasing", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "minimized 30 -> 17 constraint(s) (13 removed)" in out
        assert "semantics=guard-aware" in out
        assert "algorithm=" not in out and "kernel=" not in out
        assert "closures_computed" in out
        assert "subsumption_tests" in out

    def test_minimize_no_kernel_identical_edges(self, purchasing_weave, capsys):
        """The CLI's set is the reference frozenset path's, edge for edge."""
        assert main(["minimize", "--workload", "purchasing"]) == 0
        with_kernel = capsys.readouterr().out.strip().splitlines()
        reference = minimize_fast(
            purchasing_weave.asc, Semantics.GUARD_AWARE, kernel=False
        )
        assert with_kernel == [str(c) for c in sorted(reference.constraints)]

    @pytest.mark.parametrize(
        "flags", [["--no-kernel"], ["--algorithm", "naive"]], ids=["no-kernel", "algorithm"]
    )
    def test_mode_flags_exit_two(self, flags, capsys):
        # One production minimizer: the reference paths are library
        # functions, not CLI modes.
        with pytest.raises(SystemExit) as exit_info:
            main(["minimize", "--workload", "purchasing"] + flags)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: %s" % flags[0] in capsys.readouterr().err

    def test_minimize_semantics_flag(self, capsys):
        assert (
            main(["minimize", "--workload", "purchasing", "--semantics", "strict"])
            == 0
        )
        strict_lines = capsys.readouterr().out.strip().splitlines()
        assert len(strict_lines) >= 17
