"""Tests for the Colored Petri Net extension (Section 4.1's CPN remark)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.closure import Semantics
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.minimize import minimize
from repro.errors import NotEnabledError, PetriNetError
from repro.petri.colored import (
    PLAIN,
    SKIPPED,
    ColoredMarking,
    ColoredPetriNet,
    InputArc,
    OutputArc,
    colored_net_completes,
    colored_reachable_markings,
    constraint_set_to_colored_net,
)
from tests.strategies import constraint_sets

SLOW = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestColoredMarking:
    def test_immutability(self):
        marking = ColoredMarking({("p", "T"): 1})
        with pytest.raises(AttributeError):
            marking.x = 1  # type: ignore[attr-defined]

    def test_colors_at(self):
        marking = ColoredMarking({("p", "T"): 1, ("p", "F"): 2, ("q", PLAIN): 1})
        assert sorted(marking.colors_at("p")) == ["F", "T"]
        assert marking.total_at("p") == 3
        assert marking.total() == 4

    def test_add_remove_by_color(self):
        marking = ColoredMarking()
        marking = marking.add("p", "T")
        assert marking.count("p", "T") == 1
        assert marking.count("p", "F") == 0
        with pytest.raises(PetriNetError):
            marking.remove("p", "F")

    def test_eq_and_hash(self):
        assert ColoredMarking({("p", "T"): 1}) == ColoredMarking({("p", "T"): 1})
        assert ColoredMarking({("p", "T"): 1}) != ColoredMarking({("p", "F"): 1})


class TestColoredFiring:
    def _net(self) -> ColoredPetriNet:
        net = ColoredPetriNet()
        for place in ("a", "b"):
            net.add_place(place)
        net.add_transition("only_t")
        net.add_input("only_t", InputArc.of("a", "T"))
        net.add_output("only_t", OutputArc("b", PLAIN))
        net.add_transition("any_color")
        net.add_input("any_color", InputArc.any("a"))
        net.add_output("any_color", OutputArc("b", "out"))
        return net

    def test_color_filtering(self):
        net = self._net()
        assert not net.is_enabled("only_t", ColoredMarking({("a", "F"): 1}))
        assert net.is_enabled("only_t", ColoredMarking({("a", "T"): 1}))
        assert net.is_enabled("any_color", ColoredMarking({("a", "F"): 1}))

    def test_fire_moves_token(self):
        net = self._net()
        after = net.fire("only_t", ColoredMarking({("a", "T"): 1}))
        assert after == ColoredMarking({("b", PLAIN): 1})

    def test_fire_disabled_raises(self):
        net = self._net()
        with pytest.raises(NotEnabledError):
            net.fire("only_t", ColoredMarking({("a", "F"): 1}))

    def test_unknown_place_rejected(self):
        net = ColoredPetriNet()
        net.add_transition("t")
        with pytest.raises(PetriNetError):
            net.add_input("t", InputArc.any("ghost"))


class TestColoredTranslation:
    def test_purchasing_completes_on_all_branches(self, purchasing_weave):
        net, initial = constraint_set_to_colored_net(purchasing_weave.minimal)
        assert colored_net_completes(net, initial)
        markings, truncated = colored_reachable_markings(net, initial)
        assert not truncated
        # Same behavioral state-space size as the black-token translation.
        assert len(markings) == 166

    def test_outcome_colors_visible_in_markings(self, purchasing_weave):
        net, initial = constraint_set_to_colored_net(purchasing_weave.minimal)
        markings, _ = colored_reachable_markings(net, initial)
        colored = {
            color
            for marking in markings
            for (_place, color), _count in marking.items()
        }
        assert "T" in colored and "F" in colored  # outcomes are first-class

    def test_nested_guards_emit_skipped_color(self):
        from repro.core.pipeline import DSCWeaver, extract_all_dependencies
        from repro.workloads.insurance import (
            build_insurance_process,
            insurance_cooperation,
        )

        process = build_insurance_process()
        result = DSCWeaver().weave(
            process,
            extract_all_dependencies(
                process, cooperation=insurance_cooperation(process).dependencies
            ),
        )
        net, initial = constraint_set_to_colored_net(result.minimal)
        assert colored_net_completes(net, initial)
        markings, _ = colored_reachable_markings(net, initial)
        colors = {
            color for marking in markings for (_p, color), _n in marking.items()
        }
        # When if_valid=F, the inner guard if_severity is skipped and its
        # dependents see the SKIPPED color.
        assert SKIPPED in colors

    def test_rejects_mixed_sets(self, purchasing_weave):
        with pytest.raises(PetriNetError):
            constraint_set_to_colored_net(purchasing_weave.merged)

    def test_cyclic_set_does_not_complete(self):
        sc = SynchronizationConstraintSet(
            ["a", "b"],
            constraints=[Constraint("a", "b"), Constraint("b", "a")],
        )
        net, initial = constraint_set_to_colored_net(sc)
        assert not colored_net_completes(net, initial)

    @SLOW
    @given(constraint_sets(max_nodes=6, max_edges=9, max_guards_per_activity=1))
    def test_random_sets_complete(self, sc):
        net, initial = constraint_set_to_colored_net(sc)
        assert colored_net_completes(net, initial, state_limit=50_000)

    @SLOW
    @given(constraint_sets(max_nodes=6, max_edges=9, max_guards_per_activity=1))
    def test_agrees_with_black_token_translation(self, sc):
        """Both Petri translations agree on behavioral acceptability."""
        from repro.petri.from_constraints import constraint_set_to_petri_net
        from repro.petri.soundness import check_soundness

        colored_net, initial = constraint_set_to_colored_net(sc)
        colored_ok = colored_net_completes(colored_net, initial, state_limit=50_000)
        black_net, _ = constraint_set_to_petri_net(sc)
        black_ok = check_soundness(black_net, state_limit=50_000).is_sound
        assert colored_ok == black_ok
