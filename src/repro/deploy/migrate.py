"""Live case migration: classify, journal, and apply a constraint hot swap.

Every in-flight case of a running :class:`~repro.runtime.coordinator.
Runtime` is classified against the candidate version:

**reject**
    The case's executed history deadlocks somewhere under the new program
    — decided by :func:`repro.verify.strand.would_strand` (VER005), so
    swap-time rejections and the static verifier agree exactly.
**upgrade**
    Not strandable, the journaled prefix replays without error-severity
    findings against the new version's monitor, *and* an operational
    probe (a fresh :class:`~repro.runtime.instance.CaseInstance` replaying
    the prefix record-for-record, the crash-recovery machinery) re-derives
    the prefix cleanly.  Such a case can be swapped in place.
**drain**
    Everything else: the case is safe on its old version but its history
    cannot be re-anchored in the new one, so it finishes on vN.

The ``strategy`` then maps classifications to actions: ``drain`` keeps
every case on its old version, ``upgrade`` (the default) migrates
upgradable cases and drains the rest (rejecting only strandable ones),
``reject`` fails anything that cannot upgrade.

Applying a plan is write-ahead journaled as ``{"rt": "dep"}`` records —
``begin``, one ``assign`` per case *before* its action applies, then
``commit``.  A crash mid-swap therefore leaves a ``begin`` without its
``commit``; :func:`resume_swap` rolls the swap forward at recovery:
already-assigned cases keep their durable decisions, unassigned cases are
re-classified (decisions are pure functions of the journaled prefixes, so
the re-run decides identically) and the ``commit`` is finally written.
The swap only ever runs between scheduling rounds — the barrier point
where every resident case sits in its shard queue exactly once — which is
what makes in-place instance replacement safe.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.conformance.events import FINISH, SKIP, START, Event
from repro.deploy.registry import ProgramVersion
from repro.deploy.rules import (
    CASE_REJECTED_AT_SWAP,
    MIGRATION_WOULD_STRAND,
    PREFIX_REPLAY_DIVERGED,
    PREFLIGHT_STRAND_GATE,
    SWAP_RECOVERED,
)
from repro.lint.diagnostics import Diagnostic, Severity, SourceLocation
from repro.runtime.coordinator import Runtime
from repro.runtime.instance import CaseStatus
from repro.runtime.journal import JournalState, read_journal
from repro.runtime.program import ConstraintProgram
from repro.verify.space import DEFAULT_STATE_LIMIT, StateSpace
from repro.verify.strand import StrandReport, migration_strands, would_strand

#: classification outcomes (what the case *can* do).
CLASS_UPGRADE = "upgrade"
CLASS_DRAIN = "drain"
CLASS_REJECT = "reject"

#: strategies (what the operator *wants*).
STRATEGY_DRAIN = "drain"
STRATEGY_UPGRADE = "upgrade"
STRATEGY_REJECT = "reject"
STRATEGIES = (STRATEGY_DRAIN, STRATEGY_UPGRADE, STRATEGY_REJECT)


@dataclass(frozen=True)
class PoolSwap:
    """A hot-swap spec and its driver: the only code that arms, converges
    and applies a swap.

    Both serving paths drive a swap through this spec: the in-process
    ``dscweaver serve`` runtime and each
    :class:`~repro.runtime.workers.WorkerPool` worker (armed at pool
    construction, before the fork, so worker processes inherit the
    compiled old/new programs by memory, not by pickling).  ``dscweaver
    deploy --from`` converges a journal through it too.  ``after`` is the
    pause target: the runtime stops at the first scheduling barrier once
    that many of *its own* cases have finished, then :meth:`apply` runs
    (a pool broadcasts the swap once every worker is paused, so all
    workers flip versions in the same exchange round).
    """

    old: ProgramVersion
    new: ProgramVersion
    strategy: str = STRATEGY_UPGRADE
    after: int = 0
    state_limit: int = DEFAULT_STATE_LIMIT

    def programs(self) -> Dict[int, ConstraintProgram]:
        """``version -> program`` a swapping runtime must be built with."""
        return {
            self.old.version: self.old.program,
            self.new.version: self.new.program,
        }

    def armed(self, runtime: Runtime) -> bool:
        """True while the swap has not reached ``runtime`` yet."""
        return runtime.version != self.new.version

    def apply(self, runtime: Runtime) -> MigrationPlan:
        """Classify and migrate every resident case at the current barrier."""
        return execute_swap(runtime, self.engine(), self.strategy)

    def converge(
        self, runtime: Runtime, state: JournalState, swap_now: bool = False
    ) -> Optional[MigrationPlan]:
        """Bring a runtime recovered from ``state`` to the swap's version.

        ``runtime`` must have been recovered with ``programs=``
        :meth:`programs`.  A committed swap needs nothing (recovery
        adopted the new version); a ``begin`` without its ``commit`` rolls
        forward (:func:`resume_swap`); ``swap_now`` swaps a journal the
        crash hit before its ``begin`` (a pool sets it when any sibling
        segment began).  Otherwise the swap stays :meth:`armed` and the
        caller applies it at its pause barrier.  Returns the plan this
        call applied, else ``None``.
        """
        if state.current_version() >= self.new.version:
            return None
        if state.pending_deploy() is not None:
            return resume_swap(runtime, self.engine(), state, self.strategy)
        if swap_now:
            return self.apply(runtime)
        return None

    def engine(self) -> MigrationEngine:
        """The swap's case classifier (one per swap: it owns the new
        program's state space)."""
        return MigrationEngine(self.old, self.new, state_limit=self.state_limit)


@dataclass(frozen=True)
class CaseDecision:
    """One case's classification and the action the strategy chose."""

    case: str
    classification: str
    action: str
    #: program version the case runs under after the swap.
    version: int
    reasons: Tuple[str, ...] = ()


@dataclass
class MigrationPlan:
    """Everything one swap decided (and, unless dry-run, applied)."""

    from_version: int
    to_version: int
    strategy: str
    decisions: List[CaseDecision] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    applied: bool = False
    #: True when this plan rolled forward a crashed swap at recovery.
    recovered: bool = False

    def count(self, action: str) -> int:
        return sum(1 for decision in self.decisions if decision.action == action)

    @property
    def upgraded(self) -> int:
        return self.count(CLASS_UPGRADE)

    @property
    def drained(self) -> int:
        return self.count(CLASS_DRAIN)

    @property
    def rejected(self) -> int:
        return self.count(CLASS_REJECT)

    def to_dict(self) -> Dict[str, object]:
        return {
            "from_version": self.from_version,
            "to_version": self.to_version,
            "strategy": self.strategy,
            "applied": self.applied,
            "recovered": self.recovered,
            "upgraded": self.upgraded,
            "drained": self.drained,
            "rejected": self.rejected,
            "decisions": [
                {
                    "case": decision.case,
                    "classification": decision.classification,
                    "action": decision.action,
                    "version": decision.version,
                    "reasons": list(decision.reasons),
                }
                for decision in self.decisions
            ],
        }


def case_history(
    events: Tuple[Event, ...],
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Dict[str, str]]:
    """``(executed, skipped, outcomes)`` of a journaled event prefix.

    Only *finished* activities count as executed — an activity mid-run at
    the swap point contributes nothing to the strand query's done-mask,
    which matches migrating at quiescent points only.
    """
    executed: List[str] = []
    skipped: List[str] = []
    outcomes: Dict[str, str] = {}
    for event in events:
        if event.lifecycle == FINISH:
            executed.append(event.activity)
            if event.outcome is not None:
                outcomes[event.activity] = event.outcome
        elif event.lifecycle == SKIP:
            skipped.append(event.activity)
        elif event.lifecycle == START:
            pass
    return tuple(sorted(executed)), tuple(sorted(skipped)), outcomes


def preflight(
    old: ProgramVersion,
    new: ProgramVersion,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Tuple[StrandReport, List[Diagnostic]]:
    """Sweep every reachable old-version prefix before rollout (DEP005).

    Wraps :func:`repro.verify.strand.migration_strands`: the returned
    diagnostics are deploy-side gate findings, one per strandable prefix,
    each carrying the verifier's counterexample as evidence.
    """
    report = migration_strands(old.program, new.program, state_limit=state_limit)
    findings: List[Diagnostic] = []
    for executed, outcomes, counterexample in report.stranded:
        findings.append(
            Diagnostic(
                code=PREFLIGHT_STRAND_GATE,
                severity=Severity.ERROR,
                message=(
                    "v%d -> v%d: a case that executed {%s} would strand under "
                    "the new version"
                    % (old.version, new.version, ", ".join(executed))
                ),
                location=SourceLocation("process", new.program.process.name),
                evidence=(
                    "outcomes: %s"
                    % (", ".join("%s=%s" % kv for kv in outcomes) or "<none>"),
                    "continuation: "
                    + (" -> ".join(counterexample) or "<no step possible>"),
                ),
            )
        )
    if report.truncated:
        findings.append(
            Diagnostic(
                code=PREFLIGHT_STRAND_GATE,
                severity=Severity.ERROR,
                message=(
                    "v%d -> v%d: pre-flight sweep truncated at the state "
                    "limit; strand-safety is undecided"
                    % (old.version, new.version)
                ),
                location=SourceLocation("process", new.program.process.name),
                evidence=("state_limit: %d" % state_limit,),
            )
        )
    return report, findings


class MigrationEngine:
    """Classifies in-flight cases against one ``old -> new`` candidate swap.

    One engine per swap: the new program's :class:`StateSpace` is shared
    across every case query, so the antichain frontier amortizes exactly
    as in :func:`~repro.verify.strand.migration_strands`.
    """

    def __init__(
        self,
        old: ProgramVersion,
        new: ProgramVersion,
        state_limit: int = DEFAULT_STATE_LIMIT,
    ) -> None:
        self.old = old
        self.new = new
        self._space = StateSpace(new.program, state_limit=state_limit)
        self._state_limit = state_limit

    def classify(
        self, runtime: Runtime, case: str, events: Tuple[Event, ...]
    ) -> Tuple[str, Tuple[str, ...], List[Diagnostic]]:
        """``(classification, reasons, diagnostics)`` for one resident case."""
        from repro.conformance.monitor import ConformanceMonitor

        executed, skipped, outcomes = case_history(events)
        strand = would_strand(
            self.old.program,
            self.new.program,
            executed,
            skipped,
            outcomes,
            space=self._space,
            state_limit=self._state_limit,
        )
        if strand.stranded or strand.truncated:
            reason = (
                "strand-safety undecided (state limit reached)"
                if strand.truncated and not strand.stranded
                else "executed prefix {%s} deadlocks under v%d"
                % (", ".join(executed), self.new.version)
            )
            evidence: Tuple[str, ...] = ()
            if strand.stranded:
                _, _, counterexample = strand.stranded[0]
                evidence = (
                    "continuation: "
                    + (" -> ".join(counterexample) or "<no step possible>"),
                )
            return (
                CLASS_REJECT,
                (reason,),
                [
                    Diagnostic(
                        code=MIGRATION_WOULD_STRAND,
                        severity=Severity.ERROR,
                        message="[%s] %s" % (case, reason),
                        location=SourceLocation("case", case),
                        evidence=("case: %s" % case,) + evidence,
                    )
                ],
            )

        monitor = ConformanceMonitor(self.new.monitor)
        monitor_errors = [
            diagnostic
            for diagnostic in monitor.replay_events(events)
            if diagnostic.severity.at_least(Severity.ERROR)
        ]
        if monitor_errors:
            reason = (
                "journaled prefix violates v%d monitor: %s"
                % (self.new.version, monitor_errors[0].message)
            )
            return (
                CLASS_DRAIN,
                (reason,),
                [self._divergence(case, reason)],
            )

        probe = runtime.probe_case(case, self.new.program, events)
        active = True
        while probe.replaying and active:
            active = probe.advance()
        if probe.status is CaseStatus.FAILED or probe.replaying:
            reason = (
                probe.reason
                if probe.reason is not None
                else "prefix replay stalled with %d journaled event(s) left"
                % len(probe._prefix)  # noqa: SLF001 — diagnostic detail only
            )
            return (
                CLASS_DRAIN,
                (reason,),
                [self._divergence(case, reason)],
            )
        return CLASS_UPGRADE, (), []

    def _divergence(self, case: str, reason: str) -> Diagnostic:
        return Diagnostic(
            code=PREFIX_REPLAY_DIVERGED,
            severity=Severity.WARNING,
            message="[%s] drains on v%d: %s" % (case, self.old.version, reason),
            location=SourceLocation("case", case),
            evidence=("case: %s" % case, "to_version: %d" % self.new.version),
        )


def _action_for(classification: str, strategy: str) -> str:
    """The strategy matrix (classification x strategy -> applied action)."""
    if strategy == STRATEGY_DRAIN:
        return CLASS_DRAIN
    if classification == CLASS_UPGRADE:
        return CLASS_UPGRADE
    if classification == CLASS_REJECT:
        return CLASS_REJECT
    return CLASS_DRAIN if strategy == STRATEGY_UPGRADE else CLASS_REJECT


def _check_swappable(runtime: Runtime, strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(
            "strategy must be one of %s, got %r" % ("/".join(STRATEGIES), strategy)
        )
    if runtime.has_objects:
        raise ValueError(
            "hot swap is not supported for object-centric runs: cross-case "
            "barriers couple case states across versions (drain the run "
            "and redeploy cold instead)"
        )
    if runtime.journal is None:
        raise ValueError(
            "hot swap requires a write-ahead journal: migration decisions "
            "are classified from (and journaled to) it"
        )


def plan_swap(
    runtime: Runtime,
    engine: MigrationEngine,
    strategy: str = STRATEGY_UPGRADE,
    state: Optional[JournalState] = None,
) -> MigrationPlan:
    """Classify every resident case; decide actions; apply nothing."""
    _check_swappable(runtime, strategy)
    journal = runtime.journal
    assert journal is not None  # _check_swappable
    if state is None:
        journal.flush()
        state = read_journal(journal.path)
    plan = MigrationPlan(
        from_version=engine.old.version,
        to_version=engine.new.version,
        strategy=strategy,
    )
    for case in sorted(runtime.resident_cases()):
        _decide(runtime, engine, state, plan, case)
    return plan


def _decide(
    runtime: Runtime,
    engine: MigrationEngine,
    state: JournalState,
    plan: MigrationPlan,
    case: str,
) -> CaseDecision:
    """Classify one resident case; record its decision and findings on ``plan``."""
    journaled = state.cases.get(case)
    events = tuple(journaled.events) if journaled is not None else ()
    classification, reasons, diagnostics = engine.classify(runtime, case, events)
    action = _action_for(classification, plan.strategy)
    decision = CaseDecision(
        case=case,
        classification=classification,
        action=action,
        version=(
            engine.new.version
            if action == CLASS_UPGRADE
            else (journaled.version if journaled is not None else 1)
        ),
        reasons=reasons,
    )
    plan.decisions.append(decision)
    plan.diagnostics.extend(diagnostics)
    return decision


def _apply_decision(
    runtime: Runtime,
    plan: MigrationPlan,
    decision: CaseDecision,
    state: JournalState,
    now: float,
) -> None:
    journal = runtime.journal
    assert journal is not None
    journal.dep_assign(decision.case, decision.version, decision.action, now)
    if decision.action == CLASS_UPGRADE:
        journaled = state.cases.get(decision.case)
        prefix = tuple(journaled.events) if journaled is not None else ()
        runtime.swap_case(decision.case, decision.version, prefix)
    elif decision.action == CLASS_DRAIN:
        runtime.drain_case(decision.case)
    else:
        reason = "; ".join(decision.reasons) or (
            "strategy %r rejects non-upgradable cases" % plan.strategy
        )
        message = "rejected at v%d -> v%d swap barrier: %s" % (
            plan.from_version,
            plan.to_version,
            reason,
        )
        diagnostic = Diagnostic(
            code=CASE_REJECTED_AT_SWAP,
            severity=Severity.ERROR,
            message="[%s] %s" % (decision.case, message),
            location=SourceLocation("case", decision.case),
            evidence=(
                "case: %s" % decision.case,
                "classification: %s" % decision.classification,
                "strategy: %s" % plan.strategy,
            ),
        )
        plan.diagnostics.append(diagnostic)
        runtime.reject_case(decision.case, message, diagnostic)


def execute_swap(
    runtime: Runtime,
    engine: MigrationEngine,
    strategy: str = STRATEGY_UPGRADE,
    dry_run: bool = False,
    now: float = 0.0,
) -> MigrationPlan:
    """Plan and (unless ``dry_run``) apply one hot swap at the barrier.

    Must be called between scheduling rounds — after
    :meth:`~repro.runtime.coordinator.Runtime.run_until_completed`
    returned, before the next ``run*`` call.  Write-ahead order: every
    decision is journaled (``assign``) before it applies; ``begin`` before
    any decision; ``commit`` only after all of them.  New admissions after
    the swap run the new version.
    """
    started = _time.perf_counter()
    obs = runtime._obs  # noqa: SLF001 — same-subsystem instrumentation
    span = (
        obs.tracer.span(
            "deploy.swap",
            from_version=engine.old.version,
            to_version=engine.new.version,
            strategy=strategy,
            dry_run=dry_run,
        )
        if obs is not None
        else None
    )
    if span is not None:
        span.__enter__()
    try:
        _check_swappable(runtime, strategy)
        journal = runtime.journal
        assert journal is not None
        journal.flush()
        state = read_journal(journal.path)
        plan = plan_swap(runtime, engine, strategy, state=state)
        if dry_run:
            return plan
        journal.dep_begin(engine.old.version, engine.new.version, now)
        runtime.register_program(engine.new.version, engine.new.program)
        for decision in plan.decisions:
            _apply_decision(runtime, plan, decision, state, now)
        journal.dep_commit(engine.new.version, now)
        runtime.activate_version(engine.new.version)
        journal.flush()
        plan.applied = True
        # DEP001/DEP002 classification findings flow into the runtime
        # report; DEP003 already arrived there via the rejected instance.
        runtime.diagnostics.extend(
            d for d in plan.diagnostics if d.code != CASE_REJECTED_AT_SWAP
        )
        if obs is not None:
            counter = obs.metrics.counter(
                "repro_deploy_migrations_total",
                "Swap migration decisions applied, by action.",
                ("action",),
            )
            for decision in plan.decisions:
                counter.labels(action=decision.action).inc()
        return plan
    finally:
        if span is not None:
            span.set(seconds=_time.perf_counter() - started)
            span.__exit__(None, None, None)


def _assigned_after_begin(state: JournalState) -> Dict[str, Tuple[int, str]]:
    """``case -> (version, action)`` for assigns after the last ``begin``."""
    last_begin = None
    for index, record in enumerate(state.deploys):
        if record.get("kind") == "begin":
            last_begin = index
    assigned: Dict[str, Tuple[int, str]] = {}
    if last_begin is None:
        return assigned
    for record in state.deploys[last_begin + 1 :]:
        if record.get("kind") == "assign":
            assigned[str(record["case"])] = (
                int(record["version"]),
                str(record["action"]),
            )
    return assigned


def resume_swap(
    runtime: Runtime,
    engine: MigrationEngine,
    state: JournalState,
    strategy: str = STRATEGY_UPGRADE,
    now: float = 0.0,
) -> Optional[MigrationPlan]:
    """Roll a crashed swap forward after :meth:`Runtime.recover`.

    A ``begin`` without its ``commit`` in ``state`` means the crash hit
    mid-swap.  Cases with durable ``assign`` records keep those decisions
    (recovery already re-activated upgraded cases under the new version);
    the remaining resident cases are re-classified — decisions are pure
    functions of the journaled prefixes, so the roll-forward converges to
    the same version map as an uncrashed swap — and the ``commit`` is
    finally written.  Returns ``None`` when no swap was pending.
    """
    pending = state.pending_deploy()
    if pending is None:
        return None
    _check_swappable(runtime, strategy)
    journal = runtime.journal
    assert journal is not None
    if int(pending["to"]) != engine.new.version:
        raise ValueError(
            "journal has a pending swap to version %d but the engine targets "
            "version %d" % (int(pending["to"]), engine.new.version)
        )
    plan = MigrationPlan(
        from_version=int(pending["from"]),
        to_version=int(pending["to"]),
        strategy=strategy,
        recovered=True,
    )
    runtime.register_program(engine.new.version, engine.new.program)
    assigned = _assigned_after_begin(state)
    resident = runtime.resident_cases()

    for case in sorted(assigned):
        version, action = assigned[case]
        plan.decisions.append(
            CaseDecision(
                case=case,
                classification=action,
                action=action,
                version=version,
                reasons=("journaled before the crash",),
            )
        )
        if action == CLASS_UPGRADE:
            # Recovery already re-activated the case under its assigned
            # version (the assign record set its version map entry).
            runtime.upgraded += 1
        elif action == CLASS_DRAIN:
            runtime.drained += 1
        elif case in resident:
            # Assigned reject, but the crash hit before the FAILED
            # completion was journaled: apply it now.
            message = "rejected at v%d -> v%d swap barrier (recovered)" % (
                plan.from_version,
                plan.to_version,
            )
            diagnostic = Diagnostic(
                code=CASE_REJECTED_AT_SWAP,
                severity=Severity.ERROR,
                message="[%s] %s" % (case, message),
                location=SourceLocation("case", case),
                evidence=("case: %s" % case, "strategy: %s" % strategy),
            )
            plan.diagnostics.append(diagnostic)
            runtime.reject_case(case, message, diagnostic)
        else:
            runtime.swap_rejected += 1

    for case in sorted(resident):
        if case not in assigned:
            decision = _decide(runtime, engine, state, plan, case)
            _apply_decision(runtime, plan, decision, state, now)

    journal.dep_commit(engine.new.version, now)
    runtime.activate_version(engine.new.version)
    journal.flush()
    plan.applied = True
    plan.diagnostics.append(
        Diagnostic(
            code=SWAP_RECOVERED,
            severity=Severity.WARNING,
            message=(
                "rolled a crashed v%d -> v%d swap forward: %d decision(s) "
                "journaled before the crash, %d re-derived"
                % (
                    plan.from_version,
                    plan.to_version,
                    len(assigned),
                    len(plan.decisions) - len(assigned),
                )
            ),
            location=SourceLocation("journal", journal.path),
            evidence=("pending begin committed at recovery",),
        )
    )
    runtime.diagnostics.extend(
        d for d in plan.diagnostics if d.code != CASE_REJECTED_AT_SWAP
    )
    return plan
