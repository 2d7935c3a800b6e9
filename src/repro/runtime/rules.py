"""RT00x runtime failure codes, registered with the :mod:`repro.lint` engine.

Like the ``CONF00x`` conformance codes, runtime diagnostics are produced
by execution (the multi-case coordinator), not by a static check — but
registering them here gives them the same first-class treatment: they
appear in the SARIF ``tool.driver.rules`` table, honor
``--select``/``--ignore`` prefixes (``RT`` selects the group), text/JSON/
SARIF rendering and ``--fail-on`` severity gating apply unchanged, and
:func:`~repro.lint.engine.run_lint` surfaces them when a
:class:`~repro.runtime.coordinator.RuntimeReport` is attached to the lint
context (``context.runtime = report``).
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import LintContext, rule

#: Stable runtime failure codes.
RETRY_EXHAUSTED = "RT001"
ADMISSION_REJECTED = "RT002"
JOURNAL_MISMATCH = "RT003"
DEADLOCK = "RT004"
PROTOCOL_FAULT = "RT005"
STRANDED_BARRIER = "RT006"
TORN_TAIL = "RT007"

#: The runtime rule codes, in reporting order.
RT_CODES = (
    RETRY_EXHAUSTED,
    ADMISSION_REJECTED,
    JOURNAL_MISMATCH,
    DEADLOCK,
    PROTOCOL_FAULT,
    STRANDED_BARRIER,
    TORN_TAIL,
)


def _runtime(context: LintContext, code: str) -> Iterable[Diagnostic]:
    report = getattr(context, "runtime", None)
    if report is None:
        return ()
    return tuple(d for d in report.diagnostics if d.code == code)


@rule(
    RETRY_EXHAUSTED,
    "service-retry-exhausted",
    "a remote service stayed unreachable through every retry attempt",
    Severity.ERROR,
)
def check_retry_exhausted(context: LintContext) -> Iterable[Diagnostic]:
    return _runtime(context, RETRY_EXHAUSTED)


@rule(
    ADMISSION_REJECTED,
    "admission-rejected",
    "a case was rejected because the admission queue was full",
    Severity.WARNING,
)
def check_admission_rejected(context: LintContext) -> Iterable[Diagnostic]:
    return _runtime(context, ADMISSION_REJECTED)


@rule(
    JOURNAL_MISMATCH,
    "journal-recovery-mismatch",
    "re-execution after a crash diverged from the journaled event prefix",
    Severity.ERROR,
)
def check_journal_mismatch(context: LintContext) -> Iterable[Diagnostic]:
    return _runtime(context, JOURNAL_MISMATCH)


@rule(
    DEADLOCK,
    "case-deadlocked",
    "a case stalled with unfinished activities and no pending events",
    Severity.ERROR,
)
def check_case_deadlock(context: LintContext) -> Iterable[Diagnostic]:
    return _runtime(context, DEADLOCK)


@rule(
    PROTOCOL_FAULT,
    "service-protocol-fault",
    "a state-aware service rejected an out-of-order invocation at runtime",
    Severity.ERROR,
)
def check_protocol_fault(context: LintContext) -> Iterable[Diagnostic]:
    return _runtime(context, PROTOCOL_FAULT)


@rule(
    STRANDED_BARRIER,
    "stranded-cross-case-barrier",
    "a case waited on a cross-case barrier whose declared children can "
    "no longer all resolve",
    Severity.ERROR,
)
def check_stranded_barrier(context: LintContext) -> Iterable[Diagnostic]:
    return _runtime(context, STRANDED_BARRIER)


@rule(
    TORN_TAIL,
    "journal-torn-tail",
    "recovery dropped a torn final journal write (a crash mid-append) and "
    "truncated the journal back to its last complete record",
    Severity.WARNING,
)
def check_torn_tail(context: LintContext) -> Iterable[Diagnostic]:
    return _runtime(context, TORN_TAIL)
