"""The built-in rules and the engine running them."""

from __future__ import annotations

import pytest

import repro.conformance.rules  # noqa: F401  (registers the CONF00x rules)
import repro.deploy.rules  # noqa: F401  (registers the DEP00x rules)
import repro.objects.rules  # noqa: F401  (registers the OBJ00x rules)
import repro.runtime.rules  # noqa: F401  (registers the RT00x rules)
from repro.analysis.conditions import Cond, ConditionDomains
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.dscl.ast import Exclusive, StateRef
from repro.lint import (
    Baseline,
    LintConfig,
    LintContext,
    Severity,
    all_rules,
    get_rule,
    rule,
    run_lint,
)
from repro.model.activity import ActivityState

ALL_CODES = (
    "CONF001",
    "CONF002",
    "CONF003",
    "CONF004",
    "CONF005",
    "CONF006",
    "CONF007",
    "DEP001",
    "DEP002",
    "DEP003",
    "DEP004",
    "DEP005",
    "DIS001",
    "DIS002",
    "DIS003",
    "DIS004",
    "DIS005",
    "OBJ001",
    "OBJ002",
    "OBJ003",
    "RED001",
    "RT001",
    "RT002",
    "RT003",
    "RT004",
    "RT005",
    "RT006",
    "RT007",
    "SPEC001",
    "SPEC002",
    "SVC001",
    "SVC002",
    "SYNC001",
    "SYNC002",
    "SYNC003",
    "SYNC004",
    "SYNC005",
    "SYNC006",
    "VER001",
    "VER002",
    "VER003",
    "VER004",
    "VER005",
)


def _context(constraints, activities=("a", "b", "c"), **kwargs):
    sc = SynchronizationConstraintSet(
        activities=activities,
        constraints=constraints,
        guards=kwargs.pop("guards", None),
        domains=kwargs.pop("domains", None),
    )
    return LintContext.from_constraints(sc, **kwargs)


class TestRegistry:
    def test_all_rules_registered(self):
        assert tuple(r.code for r in all_rules()) == ALL_CODES

    def test_get_rule(self):
        assert get_rule("SYNC001").severity is Severity.WARNING
        assert get_rule("SYNC003").severity is Severity.ERROR
        assert get_rule("RED001").severity is Severity.INFO
        with pytest.raises(KeyError, match="unknown rule code"):
            get_rule("NOPE999")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            rule("SYNC001", "dup", "dup", Severity.INFO)(lambda context: [])


class TestLintConfig:
    def test_default_runs_everything(self):
        config = LintConfig()
        assert all(config.enabled(code) for code in ALL_CODES)

    def test_select_exact_and_prefix(self):
        config = LintConfig.from_codes(select=["SYNC001", "SVC"])
        assert config.enabled("SYNC001")
        assert config.enabled("SVC002")
        assert not config.enabled("SYNC002")
        assert not config.enabled("RED001")

    def test_ignore_wins_over_select(self):
        config = LintConfig.from_codes(select=["SYNC"], ignore=["SYNC002"])
        assert config.enabled("SYNC001")
        assert not config.enabled("SYNC002")

    def test_codes_are_case_normalized(self):
        config = LintConfig.from_codes(select=["sync001"])
        assert config.enabled("SYNC001")


class TestSyncRules:
    def test_sync003_cycle_is_error(self):
        context = _context([Constraint("a", "b"), Constraint("b", "a")])
        report = run_lint(context, LintConfig.from_codes(select=["SYNC003"]))
        (finding,) = report.findings
        assert finding.code == "SYNC003"
        assert finding.severity is Severity.ERROR
        assert report.has_errors

    def test_cycle_suppresses_order_dependent_rules(self):
        # On a cyclic set, ordering is undefined: the race/redundancy rules
        # bail instead of reporting nonsense.
        context = _context([Constraint("a", "b"), Constraint("b", "a")])
        report = run_lint(context)
        assert {finding.code for finding in report.findings} == {"SYNC003"}

    def test_sync004_unsatisfiable_guard(self):
        guards = {"b": {Cond("g", "T"), Cond("g", "F")}}
        context = _context(
            [Constraint("g", "b")], activities=("g", "b"), guards=guards
        )
        report = run_lint(context, LintConfig.from_codes(select=["SYNC004"]))
        (finding,) = report.findings
        assert finding.severity is Severity.ERROR
        assert finding.location.name == "b"

    def test_sync005_vacuous_exclusive_is_info(self):
        exclusive = Exclusive(
            StateRef("a", ActivityState.RUN), StateRef("b", ActivityState.RUN)
        )
        context = _context([Constraint("a", "b")], exclusives=[exclusive])
        report = run_lint(context, LintConfig.from_codes(select=["SYNC005"]))
        (finding,) = report.findings
        assert finding.severity is Severity.INFO
        assert report.exit_code() == 0  # info never gates by default

    def test_sync006_undeclared_outcome(self):
        domains = ConditionDomains()
        domains.declare("g", ["T", "F"])
        context = _context(
            [Constraint("g", "b", "MAYBE")],
            activities=("g", "b"),
            domains=domains,
        )
        report = run_lint(context, LintConfig.from_codes(select=["SYNC006"]))
        (finding,) = report.findings
        assert "MAYBE" in finding.message
        assert finding.severity is Severity.WARNING

    def test_sync001_on_undersynchronized_set(self, purchasing_process):
        # Drop all constraints: every def-use pair races.
        sc = SynchronizationConstraintSet(
            activities=[a.name for a in purchasing_process.activities]
        )
        context = LintContext.from_constraints(sc, process=purchasing_process)
        report = run_lint(context, LintConfig.from_codes(select=["SYNC"]))
        assert report.by_code("SYNC002")  # read/write races abound
        for finding in report.by_code("SYNC002"):
            assert finding.severity is Severity.WARNING
            assert finding.fix is not None


class TestRedundancyRule:
    def test_red001_reports_covering_path(self):
        context = _context(
            [Constraint("a", "b"), Constraint("b", "c"), Constraint("a", "c")]
        )
        report = run_lint(context, LintConfig.from_codes(select=["RED001"]))
        (finding,) = report.findings
        assert finding.location.name == "a -> c"
        assert any("a -> b -> c" in item for item in finding.evidence)

    def test_red001_counts_match_minimization(self, purchasing_weave):
        context = LintContext.from_weave(purchasing_weave)
        report = run_lint(context, LintConfig.from_codes(select=["RED001"]))
        expected = len(purchasing_weave.asc) - len(purchasing_weave.minimal)
        assert len(report.findings) == expected

    def test_red001_findings_carry_dscl_spans(self, purchasing_weave):
        context = LintContext.from_weave(purchasing_weave)
        report = run_lint(context, LintConfig.from_codes(select=["RED001"]))
        spanned = [f for f in report.findings if f.location.span is not None]
        assert spanned, "program-backed findings should map to DSCL lines"
        first, last = spanned[0].location.span
        assert 1 <= first <= last


class TestSpecificationRules:
    def test_spec001_reports_figure2_overspecified_edge(
        self, purchasing_weave, purchasing_constructs
    ):
        context = LintContext.from_weave(
            purchasing_weave, construct=purchasing_constructs
        )
        report = run_lint(context, LintConfig.from_codes(select=["SPEC"]))
        names = {f.location.name for f in report.by_code("SPEC001")}
        assert "invProduction_po -> invProduction_ss" in names
        assert report.by_code("SPEC002") == ()

    def test_spec002_reports_missing_ordering(
        self, purchasing_weave, purchasing_constructs
    ):
        asc = purchasing_weave.asc
        augmented = SynchronizationConstraintSet(
            activities=asc.activities,
            constraints=list(asc.constraints)
            + [Constraint("invShip_po", "invPurchase_po")],
            guards=asc.guards,
            domains=asc.domains,
        )
        context = LintContext.from_constraints(
            augmented,
            process=purchasing_weave.process,
            construct=purchasing_constructs,
        )
        report = run_lint(context, LintConfig.from_codes(select=["SPEC002"]))
        names = {f.location.name for f in report.findings}
        assert "invShip_po -> invPurchase_po" in names
        assert report.has_errors

    def test_spec_rules_skip_without_construct(self, purchasing_weave):
        context = LintContext.from_weave(purchasing_weave)
        report = run_lint(context, LintConfig.from_codes(select=["SPEC"]))
        assert report.findings == ()


class TestEngine:
    def test_baseline_suppression(self):
        context = _context([Constraint("a", "b"), Constraint("b", "a")])
        first = run_lint(context)
        assert first.findings
        baseline = Baseline.from_diagnostics(first.findings)
        second = run_lint(context, LintConfig(baseline=baseline))
        assert second.findings == ()
        assert len(second.suppressed) == len(first.findings)
        assert second.exit_code() == 0

    def test_rules_run_recorded(self):
        context = _context([])
        report = run_lint(context, LintConfig.from_codes(select=["SYNC"]))
        assert all(code.startswith("SYNC") for code in report.rules_run)
        assert "SYNC001" in report.rules_run

    def test_context_ordered_helper(self):
        context = _context([Constraint("a", "b"), Constraint("b", "c")])
        assert context.ordered("a", "c")
        assert not context.ordered("c", "a")

    def test_minimal_not_computed_for_cyclic_sets(self):
        context = _context([Constraint("a", "b"), Constraint("b", "a")])
        assert context.has_cycles
        assert context.minimal is None
