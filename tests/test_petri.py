"""Tests for the Petri-net backend: nets, reachability, soundness,
constraint-set translation."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.closure import Semantics
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.minimize import minimize
from repro.errors import NotEnabledError, PetriNetError
from repro.petri.from_constraints import constraint_set_to_petri_net
from repro.petri.net import Marking, PetriNet
from repro.petri.reachability import (
    build_reachability_graph,
    can_reach,
    find_deadlocks,
    is_bounded,
)
from repro.petri.soundness import check_soundness, is_workflow_net, workflow_places
from tests.strategies import constraint_sets

SLOW = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def simple_net() -> PetriNet:
    net = PetriNet("simple")
    net.add_place("i")
    net.add_place("m")
    net.add_place("o")
    net.add_transition("t1")
    net.add_transition("t2")
    net.add_arc("i", "t1")
    net.add_arc("t1", "m")
    net.add_arc("m", "t2")
    net.add_arc("t2", "o")
    return net


class TestMarking:
    def test_immutability(self):
        marking = Marking({"p": 1})
        with pytest.raises(AttributeError):
            marking.x = 1  # type: ignore[attr-defined]

    def test_add_remove(self):
        marking = Marking({"p": 1})
        assert marking.add("p").count("p") == 2
        assert marking.remove("p").count("p") == 0
        with pytest.raises(PetriNetError):
            marking.remove("p", 2)

    def test_zero_counts_dropped(self):
        assert Marking({"p": 0}).places() == []

    def test_covers(self):
        assert Marking({"p": 2}).covers(Marking({"p": 1}))
        assert not Marking({"p": 1}).covers(Marking({"q": 1}))

    def test_hash_and_eq(self):
        assert Marking({"p": 1}) == Marking({"p": 1})
        assert len({Marking({"p": 1}), Marking({"p": 1})}) == 1


class TestFiring:
    def test_enabled_and_fire(self):
        net = simple_net()
        start = Marking({"i": 1})
        assert net.is_enabled("t1", start)
        assert not net.is_enabled("t2", start)
        after = net.fire("t1", start)
        assert after == Marking({"m": 1})

    def test_fire_disabled_raises(self):
        net = simple_net()
        with pytest.raises(NotEnabledError):
            net.fire("t2", Marking({"i": 1}))

    def test_fire_sequence(self):
        net = simple_net()
        final = net.fire_sequence(["t1", "t2"], Marking({"i": 1}))
        assert final == Marking({"o": 1})

    def test_weighted_arcs(self):
        net = PetriNet()
        net.add_place("p")
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        net.add_arc("t", "q")
        assert not net.is_enabled("t", Marking({"p": 1}))
        assert net.is_enabled("t", Marking({"p": 2}))

    def test_arc_must_be_bipartite(self):
        net = simple_net()
        with pytest.raises(PetriNetError):
            net.add_arc("i", "o")
        with pytest.raises(PetriNetError):
            net.add_arc("t1", "t2")


class TestReachability:
    def test_simple_graph(self):
        net = simple_net()
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert len(graph) == 3
        assert not graph.truncated
        assert graph.fired_transitions() == {"t1", "t2"}

    def test_deadlocks(self):
        net = simple_net()
        graph = build_reachability_graph(net, Marking({"i": 1}))
        deadlocks = find_deadlocks(net, graph)
        assert deadlocks == [Marking({"o": 1})]

    def test_can_reach(self):
        net = simple_net()
        graph = build_reachability_graph(net, Marking({"i": 1}))
        reaching = can_reach(net, graph, Marking({"o": 1}))
        assert reaching == {0, 1, 2}

    def test_state_limit_truncation(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p", weight=2)  # unbounded growth
        graph = build_reachability_graph(net, Marking({"p": 1}), state_limit=10)
        assert graph.truncated

    def test_boundedness(self):
        net = simple_net()
        graph = build_reachability_graph(net, Marking({"i": 1}))
        assert is_bounded(graph, 1)


class TestWorkflowNet:
    def test_simple_is_workflow_net(self):
        assert is_workflow_net(simple_net())
        assert workflow_places(simple_net()) == ("i", "o")

    def test_two_sources_is_not(self):
        net = simple_net()
        net.add_place("i2")
        net.add_arc("i2", "t1")
        assert not is_workflow_net(net)

    def test_disconnected_node_is_not(self):
        net = simple_net()
        net.add_transition("island")
        net.add_place("island_in")
        net.add_arc("island_in", "island")
        assert not is_workflow_net(net)

    def test_soundness_of_simple(self):
        report = check_soundness(simple_net())
        assert report.is_sound
        assert report.reachable_markings == 3

    def test_unsound_deadlocking_net(self):
        net = simple_net()
        net.add_place("never")
        net.add_arc("never", "t2")  # t2 now requires an unmarked place
        # Repair connectivity so the structural check passes: feed `never`
        # from nothing is impossible; instead expect not-workflow-net.
        report = check_soundness(net)
        assert not report.is_sound


class TestConstraintTranslation:
    def test_purchasing_minimal_net_sound(self, purchasing_weave):
        net, initial = constraint_set_to_petri_net(purchasing_weave.minimal)
        assert initial == Marking({"i": 1})
        report = check_soundness(net)
        assert report.is_sound
        assert report.reachable_markings == 166

    def test_full_asc_net_sound_same_state_space(self, purchasing_weave):
        net, _ = constraint_set_to_petri_net(purchasing_weave.asc)
        report = check_soundness(net)
        assert report.is_sound
        # The redundant constraints do not change behavior: identical
        # reachable-marking count as the minimal net.
        assert report.reachable_markings == 166

    def test_cyclic_set_is_unsound(self):
        sc = SynchronizationConstraintSet(
            ["a", "b", "c"],
            constraints=[Constraint("a", "b"), Constraint("b", "c"), Constraint("c", "a")],
        )
        net, _ = constraint_set_to_petri_net(sc)
        report = check_soundness(net)
        assert not report.is_sound

    def test_rejects_externals(self, purchasing_weave):
        with pytest.raises(PetriNetError):
            constraint_set_to_petri_net(purchasing_weave.merged)

    def test_rejects_multi_guard_activity(self):
        from repro.analysis.conditions import Cond

        sc = SynchronizationConstraintSet(
            ["g1", "g2", "x"],
            constraints=[Constraint("g1", "x", "T"), Constraint("g2", "x", "T")],
            guards={"x": frozenset({Cond("g1", "T"), Cond("g2", "T")})},
        )
        with pytest.raises(PetriNetError):
            constraint_set_to_petri_net(sc)

    def test_branch_taken_vs_skipped(self, purchasing_weave):
        """On the F branch the net must still complete (dead-path
        elimination through the skip transitions)."""
        net, initial = constraint_set_to_petri_net(purchasing_weave.minimal)
        graph = build_reachability_graph(net, initial)
        # Both outcome transitions of the guard fire somewhere.
        fired = graph.fired_transitions()
        assert "exec__if_au__T" in fired
        assert "exec__if_au__F" in fired
        assert "skip__t__set_oi" in fired  # skipped on the T branch
        assert "skip__t__invPurchase_po" in fired  # skipped on the F branch

    @SLOW
    @given(constraint_sets(max_nodes=6, max_edges=9, max_guards_per_activity=1))
    def test_random_acyclic_sets_translate_to_sound_nets(self, sc):
        net, _ = constraint_set_to_petri_net(sc)
        report = check_soundness(net, state_limit=50_000)
        assert report.is_sound, report.problems

    @SLOW
    @given(constraint_sets(max_nodes=6, max_edges=9, max_guards_per_activity=1))
    def test_minimization_preserves_soundness(self, sc):
        minimal = minimize(sc, Semantics.GUARD_AWARE)
        net, _ = constraint_set_to_petri_net(minimal)
        assert check_soundness(net, state_limit=50_000).is_sound
