"""Batch replay of event logs and aggregate fitness reporting.

:func:`replay` drives a :class:`~repro.conformance.monitor.ConformanceMonitor`
over a whole :class:`~repro.conformance.events.EventLog` and aggregates the
result into a :class:`ReplayReport`: per-case verdicts, violation counts by
``CONF00x`` code and by dependency category (``d``/``T``/``F``/``s``/``o``),
obligation verdict totals, and the monitoring cost (constraint
inspections) — the empirical counterpart of the paper's claim that the
minimal set monitors at lower cost with identical outcomes.

:meth:`ReplayReport.to_lint_report` folds the findings into the
:mod:`repro.lint` reporting stack, so text/JSON/SARIF rendering and
severity gating (``exit_code``) come for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.conformance.events import EventLog
from repro.conformance.monitor import (
    ConformanceMonitor,
    MonitorProgram,
    Verdict,
)
from repro.lint.diagnostics import Diagnostic, LintReport, Severity

#: The conformance rule codes, in reporting order.
CONF_CODES = tuple("CONF%03d" % n for n in range(1, 8))


@dataclass
class ReplayReport:
    """Everything observed while replaying one log against one program."""

    cases: int
    events: int
    checks: int
    program_size: int
    diagnostics: Tuple[Diagnostic, ...]
    violations_by_case: Dict[str, int]
    violations_by_category: Dict[str, int]
    verdict_counts: Dict[Verdict, int] = field(default_factory=dict)

    @property
    def violations(self) -> Tuple[Diagnostic, ...]:
        """Diagnostics at warning or above (residue is informational)."""
        return tuple(
            d for d in self.diagnostics if d.severity.at_least(Severity.WARNING)
        )

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def violated_cases(self) -> Tuple[str, ...]:
        return tuple(
            sorted(case for case, count in self.violations_by_case.items() if count)
        )

    def case_verdicts(self) -> Dict[str, bool]:
        """``case -> conformant?`` for every case in the log."""
        return {
            case: count == 0 for case, count in self.violations_by_case.items()
        }

    @property
    def fitness(self) -> float:
        """Fraction of cases that replayed violation-free (1.0 = perfect)."""
        if not self.violations_by_case:
            return 1.0
        clean = sum(1 for count in self.violations_by_case.values() if count == 0)
        return clean / len(self.violations_by_case)

    @property
    def checks_per_event(self) -> float:
        return self.checks / self.events if self.events else 0.0

    def counts_by_code(self) -> Dict[str, int]:
        counts = {code: 0 for code in CONF_CODES}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return counts

    @property
    def residue(self) -> int:
        """Obligations left pending by truncated cases."""
        return self.verdict_counts.get(Verdict.PENDING, 0)

    def to_lint_report(self) -> LintReport:
        """The findings as a :class:`~repro.lint.diagnostics.LintReport`."""
        import repro.conformance.rules  # noqa: F401  (registers CONF rules)

        return LintReport.from_diagnostics(
            list(self.diagnostics), rules_run=CONF_CODES
        )

    def exit_code(self, fail_on: Severity = Severity.WARNING) -> int:
        """0 when no finding gates at ``fail_on``, 1 otherwise."""
        return self.to_lint_report().exit_code(fail_on)

    def summary(self) -> str:
        """Multi-line fitness summary (the text the CLI prints)."""
        lines = [
            "cases checked: %d (%d conformant, %d violated)"
            % (
                self.cases,
                sum(1 for ok in self.case_verdicts().values() if ok),
                len(self.violated_cases),
            ),
            "events: %d | monitored constraints: %d | checks: %d (%.2f per event)"
            % (self.events, self.program_size, self.checks, self.checks_per_event),
            "fitness: %.3f" % self.fitness,
        ]
        code_counts = {
            code: count for code, count in self.counts_by_code().items() if count
        }
        if code_counts:
            lines.append(
                "violations by code: "
                + ", ".join("%s=%d" % item for item in sorted(code_counts.items()))
            )
        if self.violations_by_category:
            lines.append(
                "order violations by category: "
                + ", ".join(
                    "%s=%d" % item
                    for item in sorted(self.violations_by_category.items())
                )
            )
        if self.verdict_counts:
            lines.append(
                "obligations: "
                + ", ".join(
                    "%s=%d" % (verdict.value, count)
                    for verdict, count in sorted(
                        self.verdict_counts.items(), key=lambda kv: kv[0].value
                    )
                    if count
                )
            )
        if self.residue:
            lines.append("obligation residue on truncated traces: %d" % self.residue)
        return "\n".join(lines)


def replay(
    log: EventLog,
    program: MonitorProgram,
    obs=None,
) -> ReplayReport:
    """Replay ``log`` against ``program`` and aggregate the outcome.

    ``obs`` (an :class:`~repro.obs.Observability`) wraps the replay in a
    ``conformance.replay`` span and publishes the monitor's counters.
    """
    monitor = ConformanceMonitor(program, obs=obs)
    if obs is not None:
        with obs.tracer.span(
            "conformance.replay", events=len(log), constraints=program.size
        ):
            for event in log:
                monitor.feed(event)
            monitor.finish()
    else:
        for event in log:
            monitor.feed(event)
        monitor.finish()
    return ReplayReport(
        cases=len(monitor.violations_by_case),
        events=monitor.events_fed,
        checks=monitor.checks,
        program_size=program.size,
        diagnostics=tuple(monitor.diagnostics),
        violations_by_case=dict(monitor.violations_by_case),
        violations_by_category=dict(monitor.violations_by_category),
        verdict_counts=dict(monitor.verdict_counts),
    )


# The historical home of the monitor-compiling ``program_from_weave``; the
# canonical implementation (shared with repro.runtime) lives in
# :mod:`repro.programs` and defaults to ``target="monitor"``.
from repro.programs import program_from_weave  # noqa: E402,F401


def verdicts_agree(first: ReplayReport, second: ReplayReport) -> bool:
    """Did two replays of the same log reach identical per-case verdicts?

    This is the monitoring-level equivalence check for minimization: the
    individual diagnostics may differ (a violation of a redundant
    constraint surfaces through a different edge of the covering path in
    the minimal set) but every case must get the same clean/violated
    verdict.
    """
    return first.case_verdicts() == second.case_verdicts()
