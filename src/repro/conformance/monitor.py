"""Online conformance monitoring against synchronization constraint sets.

:func:`compile_monitor` turns an activity-level constraint set (plus the
dynamically-enforced fine-grained state constraints and ``Exclusive``
relations) into a :class:`MonitorProgram` — a per-activity **watcher
index**: every incoming event consults only the constraints incident to
its activity, so the per-event cost is ``O(degree)``, not ``O(|SC|)``.

:class:`ConformanceMonitor` is the streaming state machine.  Each
obligation moves through an explicit lifecycle:

* **satisfied** — the source's required transition was observed before the
  target's;
* **violated** — the target transitioned first (a ``CONF001``/``CONF002``
  diagnostic);
* **vacuous** — the source was skipped, so dead-path elimination satisfies
  the obligation vacuously;
* **inactive** — a conditional constraint whose guard took the other
  branch;
* **pending** — a conditional obligation whose guard outcome is not yet
  known; resolved retroactively when the guard finishes or skips, and
  reported as *residue* (``CONF007``) if the case ends first.

Violations are emitted as :class:`~repro.lint.diagnostics.Diagnostic`
records with stable ``CONF00x`` codes, so the text/JSON/SARIF renderers
and severity gating of :mod:`repro.lint` apply unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from repro.obs import Observability

from repro.analysis.conditions import Cond, ConditionDomains
from repro.core.constraints import SynchronizationConstraintSet
from repro.dscl.ast import Exclusive, HappenBefore
from repro.lint.diagnostics import (
    Diagnostic,
    Severity,
    SourceLocation,
    activity_location,
    constraint_location,
)
from repro.model.activity import ActivityState
from repro.conformance.events import FINISH, SKIP, START, Event

# Rule codes (metadata lives in repro.conformance.rules).
ORDER_VIOLATION = "CONF001"
STATE_ORDER_VIOLATION = "CONF002"
EXCLUSIVE_OVERLAP = "CONF003"
LIFECYCLE_VIOLATION = "CONF004"
UNKNOWN_ACTIVITY = "CONF005"
GUARD_VIOLATION = "CONF006"
OBLIGATION_RESIDUE = "CONF007"

#: Category letter for constraints we cannot attribute to a dependency.
UNCATEGORIZED = "u"


class Verdict(enum.Enum):
    """Final state of one obligation in one case."""

    SATISFIED = "satisfied"
    VIOLATED = "violated"
    VACUOUS = "vacuous"
    INACTIVE = "inactive"
    PENDING = "pending"
    UNOBSERVED = "unobserved"


@dataclass(frozen=True)
class WatchedConstraint:
    """One compiled activity-level happen-before ``source -> target``.

    ``category`` is the dependency-dimension letter used by the fitness
    statistics: ``d`` (data), ``T``/``F`` (control branches), ``c``
    (unconditional control), ``s`` (service), ``o`` (cooperation) or ``u``
    when the provenance is unknown.
    """

    source: str
    target: str
    condition: Optional[str] = None
    category: str = UNCATEGORIZED

    @property
    def key(self) -> Tuple[str, str, Optional[str]]:
        return (self.source, self.target, self.condition)

    def location(self) -> SourceLocation:
        return constraint_location(self.source, self.target, self.condition)

    def __str__(self) -> str:
        if self.condition is None:
            return "%s -> %s" % (self.source, self.target)
        return "%s ->%s %s" % (self.source, self.condition, self.target)


@dataclass(frozen=True)
class WatchedFineGrained:
    """A compiled state-level happen-before (e.g. ``S(a) -> F(b)``)."""

    left: str
    left_state: ActivityState
    right: str
    right_state: ActivityState
    condition: Optional[str] = None

    @property
    def left_requires_finish(self) -> bool:
        return self.left_state is ActivityState.FINISH

    @property
    def right_triggers_on_finish(self) -> bool:
        return self.right_state is ActivityState.FINISH

    def location(self) -> SourceLocation:
        return SourceLocation("constraint", str(self))

    def __str__(self) -> str:
        arrow = "->" if self.condition is None else "->[%s]" % self.condition
        return "%s(%s) %s %s(%s)" % (
            self.left_state.value,
            self.left,
            arrow,
            self.right_state.value,
            self.right,
        )


@dataclass(frozen=True)
class WatchedExclusive:
    """A compiled ``Exclusive``: the two run intervals must never overlap."""

    left: str
    right: str

    def partner_of(self, activity: str) -> str:
        return self.right if activity == self.left else self.left

    def location(self) -> SourceLocation:
        return SourceLocation("constraint", "%s O %s" % (self.left, self.right))


def categorize_constraints(
    sc: SynchronizationConstraintSet,
    dependencies=None,
    bridged: Iterable = (),
) -> Dict[Tuple[str, str, Optional[str]], str]:
    """Best-effort ``constraint key -> category letter`` map.

    Exact matches against a :class:`~repro.deps.registry.DependencySet`
    win; constraints introduced by service-dependency translation
    (``bridged``) are ``s``; leftover conditionals are control branches.
    """
    categories: Dict[Tuple[str, str, Optional[str]], str] = {}
    by_key: Dict[Tuple[str, str, Optional[str]], str] = {}
    if dependencies is not None:
        for dependency in dependencies:
            letter = {
                "data": "d",
                "control": "c",
                "service": "s",
                "cooperation": "o",
            }[dependency.kind.value]
            if dependency.kind.value == "control" and dependency.condition:
                letter = dependency.condition
            by_key.setdefault(dependency.key, letter)
    bridged_keys = {
        (c.source, c.target, c.condition) for c in bridged
    }
    for constraint in sc:
        key = (constraint.source, constraint.target, constraint.condition)
        if key in by_key:
            categories[key] = by_key[key]
        elif key in bridged_keys:
            categories[key] = "s"
        elif constraint.condition is not None:
            categories[key] = constraint.condition
        else:
            categories[key] = UNCATEGORIZED
    return categories


@dataclass
class MonitorProgram:
    """A compiled, immutable watcher index over one constraint set."""

    activities: FrozenSet[str]
    constraints: Tuple[WatchedConstraint, ...]
    fine_grained: Tuple[WatchedFineGrained, ...]
    exclusives: Tuple[WatchedExclusive, ...]
    guards: Dict[str, FrozenSet[Cond]]
    domains: ConditionDomains
    #: watcher indexes
    incoming: Dict[str, Tuple[WatchedConstraint, ...]] = field(default_factory=dict)
    fine_on_start: Dict[str, Tuple[WatchedFineGrained, ...]] = field(default_factory=dict)
    fine_on_finish: Dict[str, Tuple[WatchedFineGrained, ...]] = field(default_factory=dict)
    exclusive_index: Dict[str, Tuple[WatchedExclusive, ...]] = field(default_factory=dict)
    guard_dependents: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        incoming: Dict[str, List[WatchedConstraint]] = {}
        for constraint in self.constraints:
            incoming.setdefault(constraint.target, []).append(constraint)
        self.incoming = {k: tuple(v) for k, v in incoming.items()}

        on_start: Dict[str, List[WatchedFineGrained]] = {}
        on_finish: Dict[str, List[WatchedFineGrained]] = {}
        for fine in self.fine_grained:
            bucket = on_finish if fine.right_triggers_on_finish else on_start
            bucket.setdefault(fine.right, []).append(fine)
        self.fine_on_start = {k: tuple(v) for k, v in on_start.items()}
        self.fine_on_finish = {k: tuple(v) for k, v in on_finish.items()}

        exclusive_index: Dict[str, List[WatchedExclusive]] = {}
        for exclusive in self.exclusives:
            exclusive_index.setdefault(exclusive.left, []).append(exclusive)
            exclusive_index.setdefault(exclusive.right, []).append(exclusive)
        self.exclusive_index = {k: tuple(v) for k, v in exclusive_index.items()}

        dependents: Dict[str, Set[str]] = {}
        for activity, conditions in self.guards.items():
            for condition in conditions:
                dependents.setdefault(condition.guard, set()).add(activity)
        self.guard_dependents = {k: frozenset(v) for k, v in dependents.items()}

    @property
    def size(self) -> int:
        """Total number of monitored obligations."""
        return len(self.constraints) + len(self.fine_grained) + len(self.exclusives)


def compile_monitor(
    sc: SynchronizationConstraintSet,
    fine_grained: Iterable[HappenBefore] = (),
    exclusives: Iterable[Exclusive] = (),
    categories: Optional[Mapping[Tuple[str, str, Optional[str]], str]] = None,
) -> MonitorProgram:
    """Compile an activity constraint set into a :class:`MonitorProgram`."""
    if not sc.is_activity_set:
        raise ValueError(
            "monitor requires an activity constraint set; run service "
            "dependency translation first"
        )
    categories = dict(categories or {})
    watched = tuple(
        WatchedConstraint(
            source=c.source,
            target=c.target,
            condition=c.condition,
            category=categories.get((c.source, c.target, c.condition), UNCATEGORIZED),
        )
        for c in sc
    )
    fine = tuple(
        WatchedFineGrained(
            left=hb.left.activity,
            left_state=hb.left.state,
            right=hb.right.activity,
            right_state=hb.right.state,
            condition=hb.condition,
        )
        for hb in fine_grained
    )
    watched_exclusives = tuple(
        WatchedExclusive(left=x.left.activity, right=x.right.activity)
        for x in exclusives
    )
    return MonitorProgram(
        activities=frozenset(sc.activities),
        constraints=watched,
        fine_grained=fine,
        exclusives=watched_exclusives,
        guards=dict(sc.guards),
        domains=sc.domains,
    )


@dataclass
class _Obligation:
    """A conditional obligation parked until its source/guard resolves."""

    kind: str  # "hb" | "fine" | "guard"
    source: str
    watcher: object  # WatchedConstraint | WatchedFineGrained | Cond
    target: str
    target_time: float


class _CaseState:
    """All monitor state of one case."""

    def __init__(self, case: str) -> None:
        self.case = case
        self.started: Dict[str, float] = {}
        self.finished: Dict[str, float] = {}
        self.skipped: Dict[str, float] = {}
        self.outcomes: Dict[str, str] = {}
        self.running: Set[str] = set()
        self.pending: Dict[str, List[_Obligation]] = {}
        self.verdicts: Dict[Tuple[str, str, Optional[str]], Verdict] = {}
        self.last_time: Optional[float] = None
        self.violations = 0

    def terminal(self, activity: str) -> bool:
        return activity in self.finished or activity in self.skipped


class ConformanceMonitor:
    """Streaming conformance checker over a :class:`MonitorProgram`.

    ``feed(event)`` returns the diagnostics *triggered by that event* (for
    online alerting); everything is also accumulated on ``diagnostics``.
    ``end_case``/``finish`` close cases and emit ``CONF007`` residue.

    ``checks`` counts constraint inspections: the watchers each event
    consults plus the parked obligations it resolves.
    """

    def __init__(
        self,
        program: MonitorProgram,
        obs: Optional["Observability"] = None,
    ) -> None:
        self._program = program
        self._cases: Dict[str, _CaseState] = {}
        self.checks = 0
        self.events_fed = 0
        self.diagnostics: List[Diagnostic] = []
        self.verdict_counts: Dict[Verdict, int] = {v: 0 for v in Verdict}
        self.violations_by_category: Dict[str, int] = {}
        #: every case ever seen -> count of warning+ diagnostics (violations)
        self.violations_by_case: Dict[str, int] = {}
        self._obs = obs
        self._published = False
        if obs is not None:
            self._m_activated = obs.metrics.counter(
                "repro_conformance_obligations_activated_total",
                "Conditional obligations parked awaiting a guard resolution.",
            )

    # -- watcher-index lookups (each counts its inspections) --------------

    def _incoming_for(self, activity: str) -> Tuple[WatchedConstraint, ...]:
        result = self._program.incoming.get(activity, ())
        self.checks += len(result)
        return result

    def _fine_for(self, activity: str, on_finish: bool) -> Tuple[WatchedFineGrained, ...]:
        index = (
            self._program.fine_on_finish if on_finish else self._program.fine_on_start
        )
        result = index.get(activity, ())
        self.checks += len(result)
        return result

    def _exclusives_for(self, activity: str) -> Tuple[WatchedExclusive, ...]:
        result = self._program.exclusive_index.get(activity, ())
        self.checks += len(result)
        return result

    def _take_pending(self, state: _CaseState, source: str) -> List[_Obligation]:
        obligations = state.pending.pop(source, [])
        self.checks += len(obligations)
        return obligations

    # -- public API --------------------------------------------------------

    def feed(self, event: Event) -> List[Diagnostic]:
        """Check one event; returns diagnostics it triggered."""
        self.events_fed += 1
        self.violations_by_case.setdefault(event.case, 0)
        state = self._cases.setdefault(event.case, _CaseState(event.case))
        found: List[Diagnostic] = []

        if state.last_time is not None and event.time < state.last_time:
            found.append(
                self._diagnostic(
                    LIFECYCLE_VIOLATION,
                    Severity.ERROR,
                    "time went backwards (%.1f after %.1f)"
                    % (event.time, state.last_time),
                    activity_location(event.activity),
                    state,
                    event,
                )
            )
        state.last_time = max(state.last_time or event.time, event.time)

        if event.activity not in self._program.activities:
            found.append(
                self._diagnostic(
                    UNKNOWN_ACTIVITY,
                    Severity.WARNING,
                    "event names activity %r not in the monitored constraint set"
                    % event.activity,
                    activity_location(event.activity),
                    state,
                    event,
                )
            )
            self._record(found, state)
            return found

        if event.lifecycle == START:
            found.extend(self._on_start(state, event))
        elif event.lifecycle == FINISH:
            found.extend(self._on_finish(state, event))
        elif event.lifecycle == SKIP:
            found.extend(self._on_skip(state, event))
        self._record(found, state)
        return found

    def replay_events(self, events: Iterable[Event]) -> List[Diagnostic]:
        """Feed a batch of events; residue is NOT emitted (call ``finish``)."""
        found: List[Diagnostic] = []
        for event in events:
            found.extend(self.feed(event))
        return found

    def end_case(self, case: str) -> List[Diagnostic]:
        """Close one case: resolve residue and fold verdict statistics."""
        state = self._cases.pop(case, None)
        if state is None:
            return []
        found: List[Diagnostic] = []
        residue: List[str] = []
        for source, obligations in sorted(state.pending.items()):
            for obligation in obligations:
                residue.append(
                    "unresolved: %s awaited by %s (case truncated before %s resolved)"
                    % (obligation.watcher, obligation.target, source)
                )
                self.verdict_counts[Verdict.PENDING] += 1
        for name in sorted(self._program.activities):
            if state.terminal(name):
                continue
            if name in state.started:
                residue.append("activity %s started but never finished" % name)
            else:
                residue.append(
                    "activity %s never observed (expected by the constraint set)"
                    % name
                )
        for constraint in self._program.constraints:
            if constraint.key in state.verdicts:
                continue
            if constraint.target in state.skipped:
                self.verdict_counts[Verdict.VACUOUS] += 1
            else:
                self.verdict_counts[Verdict.UNOBSERVED] += 1
        for verdict in state.verdicts.values():
            self.verdict_counts[verdict] += 1
        if residue:
            found.append(
                self._diagnostic(
                    OBLIGATION_RESIDUE,
                    Severity.INFO,
                    "case ended with %d unresolved obligation(s)" % len(residue),
                    SourceLocation("case", case),
                    state,
                    None,
                    evidence=tuple(residue),
                )
            )
        self.diagnostics.extend(found)
        return found

    def finish(self) -> List[Diagnostic]:
        """Close every open case and publish metrics (if observed)."""
        found: List[Diagnostic] = []
        for case in list(self._cases):
            found.extend(self.end_case(case))
        self.publish_metrics()
        return found

    def publish_metrics(self) -> None:
        """Fold the monitor's counters into the observability registry.

        Called by :meth:`finish`; publishing once keeps the counters
        cumulative-correct (a second call is a no-op).  The obligation
        lifecycle lands as ``repro_conformance_obligations_total`` labeled
        per verdict, diagnostics per ``CONF00x`` code.
        """
        if self._obs is None or self._published:
            return
        self._published = True
        registry = self._obs.metrics
        registry.counter(
            "repro_conformance_events_total", "Events fed to the monitor."
        ).inc(self.events_fed)
        registry.counter(
            "repro_conformance_inspections_total",
            "Constraint inspections while monitoring.",
        ).inc(self.checks)
        registry.counter(
            "repro_conformance_cases_total", "Cases observed by the monitor."
        ).inc(len(self.violations_by_case))
        obligations = registry.counter(
            "repro_conformance_obligations_total",
            "Obligations resolved, by final verdict.",
            ("verdict",),
        )
        for verdict in sorted(self.verdict_counts, key=lambda v: v.value):
            obligations.labels(verdict=verdict.value).inc(self.verdict_counts[verdict])
        diagnostics = registry.counter(
            "repro_conformance_diagnostics_total",
            "Diagnostics emitted, by CONF code.",
            ("code",),
        )
        for diagnostic in self.diagnostics:
            diagnostics.labels(code=diagnostic.code).inc()

    @property
    def open_cases(self) -> List[str]:
        return list(self._cases)

    def case_violations(self, case: str) -> int:
        state = self._cases.get(case)
        return state.violations if state else 0

    # -- event handlers ----------------------------------------------------

    def _on_start(self, state: _CaseState, event: Event) -> List[Diagnostic]:
        found: List[Diagnostic] = []
        name = event.activity
        if name in state.started or name in state.skipped:
            what = "started twice" if name in state.started else "started after being skipped"
            found.append(
                self._diagnostic(
                    LIFECYCLE_VIOLATION,
                    Severity.ERROR,
                    "activity %s %s" % (name, what),
                    activity_location(name),
                    state,
                    event,
                )
            )
            return found
        state.started[name] = event.time
        state.running.add(name)

        # Guard obligations: did a dead path execute? (CONF006)
        self.checks += len(self._program.guards.get(name, ()))
        for condition in sorted(self._program.guards.get(name, ())):
            guard = condition.guard
            if guard in state.skipped:
                found.append(self._guard_violation(state, event, condition, "was skipped"))
            elif guard in state.finished:
                outcome = state.outcomes.get(guard)
                if outcome is not None and outcome != condition.value:
                    found.append(
                        self._guard_violation(
                            state, event, condition, "evaluated to %s" % outcome
                        )
                    )
            else:
                state.pending.setdefault(guard, []).append(
                    _Obligation("guard", guard, condition, name, event.time)
                )
                if self._obs is not None:
                    self._m_activated.inc()

        # Activity-level happen-before constraints into this activity.
        for constraint in self._incoming_for(name):
            found.extend(self._check_incoming(state, event, constraint))

        # Fine-grained constraints gating this activity's start.
        for fine in self._fine_for(name, on_finish=False):
            found.extend(self._check_fine(state, event, fine))

        # Exclusive relations: is the partner currently running?
        for exclusive in self._exclusives_for(name):
            partner = exclusive.partner_of(name)
            if partner in state.running:
                found.append(
                    self._diagnostic(
                        EXCLUSIVE_OVERLAP,
                        Severity.ERROR,
                        "%s started while exclusive partner %s is running"
                        % (name, partner),
                        exclusive.location(),
                        state,
                        event,
                        related=(activity_location(name), activity_location(partner)),
                    )
                )
        return found

    def _on_finish(self, state: _CaseState, event: Event) -> List[Diagnostic]:
        found: List[Diagnostic] = []
        name = event.activity
        if name not in state.started or name in state.finished:
            what = (
                "finished twice" if name in state.finished else "finished without starting"
            )
            found.append(
                self._diagnostic(
                    LIFECYCLE_VIOLATION,
                    Severity.ERROR,
                    "activity %s %s" % (name, what),
                    activity_location(name),
                    state,
                    event,
                )
            )
            if name not in state.started:
                return found
        state.finished[name] = event.time
        state.running.discard(name)
        if event.outcome is not None:
            state.outcomes[name] = event.outcome
            domain = self._program.domains.domain(name)
            if event.outcome not in domain:
                found.append(
                    self._diagnostic(
                        GUARD_VIOLATION,
                        Severity.ERROR,
                        "guard %s produced outcome %r outside its domain {%s}"
                        % (name, event.outcome, ", ".join(sorted(domain))),
                        activity_location(name),
                        state,
                        event,
                    )
                )

        # Fine-grained constraints gating this activity's finish.
        for fine in self._fine_for(name, on_finish=True):
            found.extend(self._check_fine(state, event, fine))

        found.extend(self._resolve_pending(state, event, skipped=False))
        return found

    def _on_skip(self, state: _CaseState, event: Event) -> List[Diagnostic]:
        found: List[Diagnostic] = []
        name = event.activity
        if name in state.started or name in state.skipped:
            what = (
                "skipped after starting" if name in state.started else "skipped twice"
            )
            found.append(
                self._diagnostic(
                    LIFECYCLE_VIOLATION,
                    Severity.ERROR,
                    "activity %s %s" % (name, what),
                    activity_location(name),
                    state,
                    event,
                )
            )
            return found
        state.skipped[name] = event.time
        found.extend(self._resolve_pending(state, event, skipped=True))
        return found

    # -- obligation evaluation ---------------------------------------------

    def _check_incoming(
        self, state: _CaseState, event: Event, constraint: WatchedConstraint
    ) -> List[Diagnostic]:
        source = constraint.source
        if source in state.finished:
            outcome = state.outcomes.get(source)
            if constraint.condition is not None and outcome != constraint.condition:
                state.verdicts[constraint.key] = Verdict.INACTIVE
            else:
                state.verdicts[constraint.key] = Verdict.SATISFIED
            return []
        if source in state.skipped:
            state.verdicts[constraint.key] = Verdict.VACUOUS
            return []
        if constraint.condition is not None:
            # Guard outcome unknown: park the obligation until the source
            # finishes (violation if the branch turns out active) or skips.
            state.pending.setdefault(source, []).append(
                _Obligation("hb", source, constraint, event.activity, event.time)
            )
            if self._obs is not None:
                self._m_activated.inc()
            return []
        state.verdicts[constraint.key] = Verdict.VIOLATED
        return [self._order_violation(state, event, constraint)]

    def _check_fine(
        self, state: _CaseState, event: Event, fine: WatchedFineGrained
    ) -> List[Diagnostic]:
        left = fine.left
        reached = (
            left in state.finished
            if fine.left_requires_finish
            else left in state.started
        )
        if reached:
            return []
        if left in state.skipped:
            return []  # vacuous under dead-path elimination
        if fine.condition is not None and left not in state.finished:
            state.pending.setdefault(left, []).append(
                _Obligation("fine", left, fine, event.activity, event.time)
            )
            if self._obs is not None:
                self._m_activated.inc()
            return []
        return [self._state_order_violation(state, event, fine)]

    def _resolve_pending(
        self, state: _CaseState, event: Event, skipped: bool
    ) -> List[Diagnostic]:
        found: List[Diagnostic] = []
        name = event.activity
        outcome = state.outcomes.get(name)
        for obligation in self._take_pending(state, name):
            if obligation.kind == "guard":
                condition = obligation.watcher
                if skipped or (outcome is not None and outcome != condition.value):
                    reason = "was skipped" if skipped else "evaluated to %s" % outcome
                    found.append(
                        self._guard_violation(
                            state, event, condition, reason, dependent=obligation.target
                        )
                    )
                continue
            if obligation.kind == "hb":
                constraint = obligation.watcher
                if skipped:
                    state.verdicts[constraint.key] = Verdict.VACUOUS
                elif outcome is None or outcome == constraint.condition:
                    # The branch is active (or undeterminable and the source
                    # did finish after the target started): order violated.
                    state.verdicts[constraint.key] = Verdict.VIOLATED
                    found.append(
                        self._order_violation(
                            state, event, constraint, target_time=obligation.target_time
                        )
                    )
                else:
                    state.verdicts[constraint.key] = Verdict.INACTIVE
                continue
            # fine-grained
            fine = obligation.watcher
            if skipped:
                continue
            if outcome is None or outcome == fine.condition:
                found.append(
                    self._state_order_violation(
                        state, event, fine, target_time=obligation.target_time
                    )
                )
        return found

    # -- diagnostic builders -----------------------------------------------

    def _diagnostic(
        self,
        code: str,
        severity: Severity,
        message: str,
        location: SourceLocation,
        state: _CaseState,
        event: Optional[Event],
        related: Tuple[SourceLocation, ...] = (),
        evidence: Tuple[str, ...] = (),
    ) -> Diagnostic:
        details = list(evidence)
        details.append("case: %s" % state.case)
        if event is not None:
            details.append("event: %s %s at t=%.1f" % (event.lifecycle, event.activity, event.time))
        return Diagnostic(
            code=code,
            severity=severity,
            message="[%s] %s" % (state.case, message),
            location=location,
            related=related,
            evidence=tuple(details),
        )

    def _order_violation(
        self,
        state: _CaseState,
        event: Event,
        constraint: WatchedConstraint,
        target_time: Optional[float] = None,
    ) -> Diagnostic:
        started = target_time if target_time is not None else event.time
        self.violations_by_category[constraint.category] = (
            self.violations_by_category.get(constraint.category, 0) + 1
        )
        return self._diagnostic(
            ORDER_VIOLATION,
            Severity.ERROR,
            "%s started at t=%.1f before %s finished (violates %s)"
            % (constraint.target, started, constraint.source, constraint),
            constraint.location(),
            state,
            event,
            related=(
                activity_location(constraint.source),
                activity_location(constraint.target),
            ),
            evidence=("category: %s" % constraint.category,),
        )

    def _state_order_violation(
        self,
        state: _CaseState,
        event: Event,
        fine: WatchedFineGrained,
        target_time: Optional[float] = None,
    ) -> Diagnostic:
        reached = target_time if target_time is not None else event.time
        return self._diagnostic(
            STATE_ORDER_VIOLATION,
            Severity.ERROR,
            "%s(%s) reached at t=%.1f before %s(%s) (violates %s)"
            % (
                fine.right_state.value,
                fine.right,
                reached,
                fine.left_state.value,
                fine.left,
                fine,
            ),
            fine.location(),
            state,
            event,
            related=(activity_location(fine.left), activity_location(fine.right)),
        )

    def _guard_violation(
        self,
        state: _CaseState,
        event: Event,
        condition: Cond,
        reason: str,
        dependent: Optional[str] = None,
    ) -> Diagnostic:
        activity = dependent if dependent is not None else event.activity
        return self._diagnostic(
            GUARD_VIOLATION,
            Severity.ERROR,
            "%s executed although its guard %s %s (requires %s = %s)"
            % (activity, condition.guard, reason, condition.guard, condition.value),
            activity_location(activity),
            state,
            event,
            related=(activity_location(condition.guard),),
        )

    def _record(self, found: List[Diagnostic], state: _CaseState) -> None:
        self.diagnostics.extend(found)
        gating = sum(1 for d in found if d.severity.at_least(Severity.WARNING))
        state.violations += gating
        self.violations_by_case[state.case] = (
            self.violations_by_case.get(state.case, 0) + gating
        )
