"""Test-local full-scan reference for the conformance monitor.

:class:`FullScanMonitor` answers every watcher lookup by scanning and
filtering the full constraint lists, so it pins the compiled index of
:class:`~repro.conformance.ConformanceMonitor` to identical diagnostics at
no lower cost.
"""

from __future__ import annotations

from repro.conformance import ConformanceMonitor, EventLog, ReplayReport


class FullScanMonitor(ConformanceMonitor):
    """Reference: every watcher lookup scans and filters the full lists."""

    def _incoming_for(self, activity):
        constraints = self._program.constraints
        self.checks += len(constraints)
        return tuple(c for c in constraints if c.target == activity)

    def _fine_for(self, activity, on_finish):
        fine = self._program.fine_grained
        self.checks += len(fine)
        return tuple(
            f for f in fine
            if f.right == activity and f.right_triggers_on_finish == on_finish
        )

    def _exclusives_for(self, activity):
        exclusives = self._program.exclusives
        self.checks += len(exclusives)
        return tuple(x for x in exclusives if activity in (x.left, x.right))


def full_scan_replay(log: EventLog, program) -> ReplayReport:
    """:func:`~repro.conformance.replay` driven by :class:`FullScanMonitor`."""
    monitor = FullScanMonitor(program)
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
