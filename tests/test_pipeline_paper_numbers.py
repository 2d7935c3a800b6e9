"""End-to-end reproduction of the paper's published numbers.

This is the headline test module: Table 1, Table 2, Figure 7, Figure 8 and
Figure 9 of the Purchasing process, exactly as reported, plus the strict /
reachability ablation documented in DESIGN.md.
"""

from __future__ import annotations

import pytest

from repro.core.closure import Semantics
from repro.core.equivalence import transitive_equivalent
from repro.core.minimize import is_minimal, minimize_naive
from repro.core.pipeline import DSCWeaver
from repro.errors import CycleError

#: The 17 constraints of Figure 9 as produced by insertion-order
#: minimization.  (Minimal sets are not unique; this one is the
#: deterministic output of the pipeline and is transitive-equivalent to the
#: paper's figure.)
FIGURE9_EDGES = {
    "recClient_po -> invCredit_po",
    "invCredit_po -> recCredit_au",
    "recCredit_au -> if_au",
    "if_au ->T invPurchase_po",
    "if_au ->T invShip_po",
    "if_au ->T invProduction_po",
    "if_au ->F set_oi",
    "invPurchase_po -> invPurchase_si",
    "invPurchase_si -> recPurchase_oi",
    "recPurchase_oi -> replyClient_oi",
    "invShip_po -> recShip_si",
    "invShip_po -> recShip_ss",
    "recShip_si -> invPurchase_si",
    "recShip_ss -> invProduction_ss",
    "invProduction_po -> replyClient_oi",
    "invProduction_ss -> replyClient_oi",
    "set_oi -> replyClient_oi",
}


class TestTable1:
    def test_category_counts(self, purchasing_weave):
        assert purchasing_weave.report.raw_by_kind == {
            "data": 9,
            "control": 10,
            "service": 15,
            "cooperation": 6,
        }

    def test_total(self, purchasing_weave):
        assert purchasing_weave.report.raw_total == 40


class TestTable2:
    def test_23_constraints_removed(self, purchasing_weave):
        """The paper: 'There are 23 constraints removed from the original
        synchronization constraints set in Table 1.'"""
        assert purchasing_weave.report.removed == 23

    def test_stage_counts(self, purchasing_weave):
        report = purchasing_weave.report
        assert report.raw_total == 40
        assert report.merged == 39  # one data/cooperation duplicate
        assert report.translated == 30
        assert report.minimal == 17

    def test_stage_decomposition_sums(self, purchasing_weave):
        report = purchasing_weave.report
        assert (
            report.removed_by_merge
            + report.removed_by_translation
            + report.removed_by_minimization
            == report.removed
        )

    def test_reduction_ratio(self, purchasing_weave):
        assert purchasing_weave.report.reduction_ratio == pytest.approx(23 / 40)

    def test_table_rendering(self, purchasing_weave):
        table = purchasing_weave.report.as_table()
        assert "40" in table and "17" in table and "23" in table


class TestFigure7:
    def test_merged_set_shape(self, purchasing_weave):
        merged = purchasing_weave.merged
        assert len(merged) == 39
        assert len(merged.activities) == 14
        # S contains every port incl. the dummies (Figure 7 shows them).
        assert set(merged.externals) == {
            "Credit",
            "Credit_d",
            "Purchase1",
            "Purchase2",
            "Purchase_d",
            "Ship",
            "Ship_d",
            "Production1",
            "Production2",
        }

    def test_merged_contains_each_dimension(self, purchasing_weave):
        merged = purchasing_weave.merged
        assert merged.has_constraint("recClient_po", "invCredit_po")  # data
        assert merged.has_constraint("if_au", "invPurchase_po", "T")  # control
        assert merged.has_constraint("Purchase1", "Purchase2")  # service
        assert merged.has_constraint("invShip_po", "replyClient_oi")  # cooperation


class TestFigure9:
    def test_exact_minimal_edges(self, purchasing_weave):
        rendered = {str(c) for c in purchasing_weave.minimal.constraints}
        assert rendered == FIGURE9_EDGES

    def test_minimal_is_minimal(self, purchasing_weave):
        assert is_minimal(purchasing_weave.minimal, Semantics.GUARD_AWARE)

    def test_minimal_equivalent_to_translated(self, purchasing_weave):
        assert transitive_equivalent(
            purchasing_weave.minimal, purchasing_weave.asc, Semantics.GUARD_AWARE
        )

    def test_redundant_cooperation_edges_removed(self, purchasing_weave):
        """recPurchase_oi ->o replyClient_oi's cooperation duplicate and the
        Ship-side cooperation constraints are covered by data paths."""
        minimal = purchasing_weave.minimal
        assert not minimal.has_constraint("invShip_po", "replyClient_oi")
        assert not minimal.has_constraint("recShip_si", "replyClient_oi")
        assert not minimal.has_constraint("recShip_ss", "replyClient_oi")

    def test_production_cooperation_edges_kept(self, purchasing_weave):
        """Production has no callback, so only cooperation orders it before
        the reply — those edges must survive."""
        minimal = purchasing_weave.minimal
        assert minimal.has_constraint("invProduction_po", "replyClient_oi")
        assert minimal.has_constraint("invProduction_ss", "replyClient_oi")

    def test_service_required_sequencing_kept(self, purchasing_weave):
        """invPurchase_po -> invPurchase_si is required (state-aware
        Purchase service) even though no data is exchanged."""
        assert purchasing_weave.minimal.has_constraint(
            "invPurchase_po", "invPurchase_si"
        )


class TestSemanticsAblation:
    def test_strict_semantics_keeps_more(
        self, purchasing_process, purchasing_dependencies
    ):
        """Under the literal Definition 3-5 semantics the data fan-out edges
        from recClient_po are not removable (their bypass runs through the
        conditional guard) and the minimal set has 21 constraints."""
        result = DSCWeaver(semantics=Semantics.STRICT).weave(
            purchasing_process, purchasing_dependencies
        )
        assert result.report.minimal == 21
        assert result.minimal.has_constraint("recClient_po", "invPurchase_po")

    def test_reachability_semantics_matches_guard_aware_here(
        self, purchasing_process, purchasing_dependencies
    ):
        """On the Purchasing process, pure reachability happens to coincide
        with guard-aware (every conditional fact is guard-implied)."""
        result = DSCWeaver(semantics=Semantics.REACHABILITY).weave(
            purchasing_process, purchasing_dependencies
        )
        assert result.report.minimal == 17

    def test_naive_algorithm_same_result(
        self, purchasing_process, purchasing_dependencies, purchasing_weave
    ):
        minimal = minimize_naive(purchasing_weave.asc)
        assert set(minimal.constraints) == set(purchasing_weave.minimal.constraints)


class TestCycleDetection:
    def test_contradictory_cooperation_raises(self, purchasing_process):
        from repro.core.pipeline import extract_all_dependencies
        from repro.deps.types import Dependency, DependencyKind

        bad = extract_all_dependencies(
            purchasing_process,
            cooperation=[
                Dependency(
                    DependencyKind.COOPERATION, "replyClient_oi", "recClient_po"
                )
            ],
        )
        with pytest.raises(CycleError) as excinfo:
            DSCWeaver().weave(purchasing_process, bad)
        assert "recClient_po" in str(excinfo.value)
