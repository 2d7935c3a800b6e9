"""The constraint-monitoring scheduling engine.

Executes a process straight from its synchronization constraint set: an
activity starts as soon as every incoming happen-before is satisfied (its
source finished — or was skipped, which satisfies obligations vacuously:
dead-path elimination).  Guard activities resolve an outcome; activities
whose execution guard came out the other way are skipped transitively.

The engine is a discrete-event simulator: activities take
``activity.duration`` time units, remote services deliver callbacks after
their latency (see :mod:`repro.scheduler.services`), and unlimited
parallelism is assumed (the paper's concern is ordering, not resources).

Dynamic-only constraints are enforced here exactly as Section 4.2
prescribes: ``Exclusive`` relations serialize the run intervals of their
activities, and fine-grained state-level HappenBefore constraints (e.g.
``S(collectSurvey) -> F(closeOrder)``) gate individual state transitions.

``constraint_checks`` counts every evaluation of a pending constraint — the
"maintenance and computation cost" that motivates minimization.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.dscl.ast import Exclusive, HappenBefore
from repro.errors import DeadlockError, SchedulingError
from repro.model.activity import ActivityKind, ActivityState
from repro.model.process import BusinessProcess
from repro.scheduler.events import ActivityRecord, ExecutionTrace
from repro.scheduler.services import ServiceSimulator

OutcomePolicy = Union[Mapping[str, str], Callable[[str], str], None]


class _Status(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    SKIPPED = "skipped"


@dataclass
class ExecutionResult:
    """Everything observed during one run."""

    trace: ExecutionTrace
    makespan: float
    constraint_checks: int
    outcomes: Dict[str, str]
    violations: List[str] = field(default_factory=list)
    deadlocked: bool = False
    pending_at_deadlock: Tuple[str, ...] = ()

    def executed_names(self) -> List[str]:
        return [record.name for record in self.trace.executed()]


class ConstraintScheduler:
    """Schedules one process from one constraint set.

    Parameters
    ----------
    process:
        Supplies activity durations, kinds, service bindings and services.
    sc:
        The activity synchronization constraint set driving scheduling
        (must contain no external nodes).
    fine_grained:
        State-level HappenBefore constraints enforced dynamically.
    exclusives:
        ``Exclusive`` relations enforced dynamically (run intervals of the
        two activities never overlap).
    strict_services:
        Propagate :class:`~repro.errors.ProtocolViolation` immediately
        (default); when false, violations are recorded in the result.
    max_workers:
        Optional cap on simultaneously running activities (the paper
        assumes unlimited parallelism; a cap models engine thread pools).
    """

    def __init__(
        self,
        process: BusinessProcess,
        sc: SynchronizationConstraintSet,
        fine_grained: Iterable[HappenBefore] = (),
        exclusives: Iterable[Exclusive] = (),
        strict_services: bool = True,
        max_workers: Optional[int] = None,
        obs=None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise SchedulingError("max_workers must be at least 1")
        self._max_workers = max_workers
        self._obs = obs
        if not sc.is_activity_set:
            raise SchedulingError(
                "scheduler requires an activity constraint set; run service "
                "dependency translation first"
            )
        self._process = process
        self._sc = sc
        self._fine_grained = list(fine_grained)
        self._exclusives = list(exclusives)
        self._strict_services = strict_services

        self._incoming: Dict[str, List[Constraint]] = {
            name: [] for name in sc.activities
        }
        for constraint in sc:
            self._incoming[constraint.target].append(constraint)

        for name in sc.activities:
            if not process.has_activity(name) and not name.startswith("__"):
                raise SchedulingError(
                    "constraint set mentions activity %r unknown to process %r"
                    % (name, process.name)
                )

    # -- public API -----------------------------------------------------------

    def run(
        self,
        outcomes: OutcomePolicy = None,
        raise_on_deadlock: bool = True,
    ) -> ExecutionResult:
        """Execute once and return the :class:`ExecutionResult`.

        ``outcomes`` decides guard results: a mapping ``guard -> outcome``,
        a callable, or ``None`` (every guard takes its lexicographically
        last outcome, which is ``T`` for boolean guards).
        """
        state = _RunState(self, outcomes)
        obs = self._obs
        if obs is None:
            return state.execute(raise_on_deadlock)
        with obs.tracer.span(
            "scheduler.run", process=self._process.name, constraints=len(self._sc)
        ):
            result = state.execute(raise_on_deadlock)
        registry = obs.metrics
        registry.counter(
            "repro_scheduler_runs_total", "Single-case scheduler executions."
        ).inc()
        registry.counter(
            "repro_scheduler_checks_total",
            "Constraint evaluations during scheduling.",
        ).inc(result.constraint_checks)
        registry.histogram(
            "repro_scheduler_makespan_virtual",
            "Virtual makespan of scheduler runs.",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200),
        ).observe(result.makespan)
        return result

    # -- helpers used by _RunState ------------------------------------------------

    def _duration(self, name: str) -> float:
        if self._process.has_activity(name):
            return self._process.activity(name).duration
        return 0.0  # synthetic coordinators take no time

    def _outcome_domain(self, name: str) -> List[str]:
        return sorted(self._sc.domains.domain(name))


class _RunState:
    """Mutable state of a single run (kept out of the scheduler object so a
    scheduler can be reused across runs/outcome combinations)."""

    def __init__(self, scheduler: ConstraintScheduler, outcomes: OutcomePolicy) -> None:
        self._s = scheduler
        self._outcome_policy = outcomes
        self._status: Dict[str, _Status] = {
            name: _Status.PENDING for name in scheduler._sc.activities
        }
        self._start_time: Dict[str, float] = {}
        self._finish_time: Dict[str, float] = {}
        self._skip_time: Dict[str, float] = {}
        self._outcomes: Dict[str, str] = {}
        self._trace = ExecutionTrace()
        self._checks = 0
        self._queue: List[Tuple[float, int, str, str]] = []
        self._sequence = itertools.count()
        self._services = ServiceSimulator(
            scheduler._process, strict=scheduler._strict_services
        )
        #: finishes held back by fine-grained constraints: activity -> time
        self._held_finishes: Dict[str, float] = {}

    # -- outcome policy ------------------------------------------------------

    def _resolve_outcome(self, guard: str) -> str:
        domain = self._s._outcome_domain(guard)
        policy = self._outcome_policy
        if policy is None:
            value = "T" if "T" in domain else domain[-1]
        elif callable(policy):
            value = policy(guard)
        else:
            value = policy.get(guard, "T" if "T" in domain else domain[-1])
        if value not in domain:
            raise SchedulingError(
                "outcome %r not in domain %s of guard %r" % (value, domain, guard)
            )
        return value

    # -- fate & readiness -----------------------------------------------------

    def _fate(self, name: str) -> Optional[bool]:
        """True = will run, False = must skip, None = undecided.

        A skipped guard or one resolved to another value decides False
        even while other guards are undecided, so the answer does not
        depend on the order the guard map lists its conditions in.
        """
        fate: Optional[bool] = True
        for condition in self._s._sc.guard_of(name):
            guard_status = self._status.get(condition.guard)
            if guard_status is _Status.SKIPPED:
                return False
            if guard_status is _Status.DONE:
                if self._outcomes.get(condition.guard) != condition.value:
                    return False
            else:
                fate = None
        return fate

    def _constraints_satisfied(self, name: str) -> bool:
        for constraint in self._s._incoming[name]:
            self._checks += 1
            source_status = self._status[constraint.source]
            if source_status not in (_Status.DONE, _Status.SKIPPED):
                return False
        return True

    def _message_ready(self, name: str, now: float) -> bool:
        if not self._s._process.has_activity(name):
            return True
        activity = self._s._process.activity(name)
        if activity.kind is not ActivityKind.RECEIVE or activity.port is None:
            return True
        return self._services.message_available(activity.port.service, now)

    def _workers_exhausted(self) -> bool:
        limit = self._s._max_workers
        if limit is None:
            return False
        running = sum(
            1 for status in self._status.values() if status is _Status.RUNNING
        )
        return running >= limit

    def _exclusive_blocked(self, name: str) -> bool:
        for exclusive in self._s._exclusives:
            left, right = exclusive.left.activity, exclusive.right.activity
            if name == left and self._status.get(right) is _Status.RUNNING:
                return True
            if name == right and self._status.get(left) is _Status.RUNNING:
                return True
        return False

    def _fine_grained_start_blocked(self, name: str) -> bool:
        for hb in self._s._fine_grained:
            if hb.right.activity != name:
                continue
            if hb.right.state is ActivityState.FINISH:
                continue  # gates the finish, not the start
            if self._vacuous(hb):
                continue
            if hb.left.activity not in self._start_time and hb.left.state in (
                ActivityState.START,
                ActivityState.RUN,
            ):
                return True
            if (
                hb.left.state is ActivityState.FINISH
                and hb.left.activity not in self._finish_time
            ):
                return True
        return False

    def _fine_grained_finish_blocked(self, name: str) -> bool:
        for hb in self._s._fine_grained:
            if hb.right.activity != name or hb.right.state is not ActivityState.FINISH:
                continue
            if self._vacuous(hb):
                continue
            left = hb.left.activity
            if hb.left.state is ActivityState.FINISH:
                if left not in self._finish_time:
                    return True
            elif left not in self._start_time:
                return True
        return False

    def _vacuous(self, hb: HappenBefore) -> bool:
        """A fine-grained constraint is vacuous if its left activity was
        skipped (dead-path elimination)."""
        return self._status.get(hb.left.activity) is _Status.SKIPPED

    # -- event machinery --------------------------------------------------------

    def _push(self, time: float, kind: str, payload: str) -> None:
        heapq.heappush(self._queue, (time, next(self._sequence), kind, payload))

    def _start(self, name: str, now: float) -> None:
        self._status[name] = _Status.RUNNING
        self._start_time[name] = now
        self._trace.note(now, "start %s" % name)
        finish_at = now + self._s._duration(name)
        self._push(finish_at, "finish", name)

    def _finish(self, name: str, now: float) -> None:
        self._status[name] = _Status.DONE
        self._finish_time[name] = now
        outcome: Optional[str] = None
        if self._is_guard(name):
            outcome = self._resolve_outcome(name)
            self._outcomes[name] = outcome
        self._trace.note(now, "finish %s%s" % (name, " -> %s" % outcome if outcome else ""))
        self._trace.record(
            ActivityRecord(
                name=name,
                start=self._start_time[name],
                finish=now,
                outcome=outcome,
            )
        )
        self._register_invocation(name, now)
        self._release_held_finishes(now)

    def _skip(self, name: str, now: float) -> None:
        self._status[name] = _Status.SKIPPED
        self._skip_time[name] = now
        self._trace.note(now, "skip %s" % name)
        self._trace.record(ActivityRecord(name=name, skipped_at=now))
        self._release_held_finishes(now)

    def _register_invocation(self, name: str, now: float) -> None:
        if not self._s._process.has_activity(name):
            return
        activity = self._s._process.activity(name)
        if activity.kind is not ActivityKind.INVOKE or activity.port is None:
            return
        callback = self._services.invoke(
            activity.port.service, activity.port.port, now
        )
        if callback is not None:
            self._push(callback, "callback", activity.port.service)

    def _release_held_finishes(self, now: float) -> None:
        for name in list(self._held_finishes):
            if not self._fine_grained_finish_blocked(name):
                del self._held_finishes[name]
                self._finish(name, now)

    def _is_guard(self, name: str) -> bool:
        if self._s._process.has_activity(name):
            return self._s._process.activity(name).is_guard
        return False

    # -- the main loop --------------------------------------------------------------

    def _evaluate(self, now: float) -> None:
        """Start or skip every pending activity that can move; repeats to a
        fixpoint because skips cascade instantly."""
        moved = True
        while moved:
            moved = False
            for name in self._s._sc.activities:
                if self._status[name] is not _Status.PENDING:
                    continue
                fate = self._fate(name)
                if fate is False:
                    self._skip(name, now)
                    moved = True
                    continue
                if fate is None:
                    continue
                if not self._constraints_satisfied(name):
                    continue
                if not self._message_ready(name, now):
                    continue
                if self._exclusive_blocked(name):
                    continue
                if self._fine_grained_start_blocked(name):
                    continue
                if self._workers_exhausted():
                    continue
                self._start(name, now)
                moved = True

    def execute(self, raise_on_deadlock: bool) -> ExecutionResult:
        now = 0.0
        self._evaluate(now)
        while self._queue:
            time, _seq, kind, payload = heapq.heappop(self._queue)
            now = time
            if kind == "finish":
                if self._fine_grained_finish_blocked(payload):
                    self._held_finishes[payload] = time
                else:
                    self._finish(payload, now)
            elif kind == "callback":
                self._trace.note(now, "callback %s" % payload)
            self._evaluate(now)

        pending = tuple(
            sorted(
                name
                for name, status in self._status.items()
                if status in (_Status.PENDING, _Status.RUNNING)
            )
        )
        deadlocked = bool(pending) or bool(self._held_finishes)
        if deadlocked and raise_on_deadlock:
            raise DeadlockError(
                "execution stalled; unfinished activities: %s"
                % ", ".join(pending or self._held_finishes)
            )
        return ExecutionResult(
            trace=self._trace,
            makespan=self._trace.makespan(),
            constraint_checks=self._checks,
            outcomes=dict(self._outcomes),
            violations=self._services.violations(),
            deadlocked=deadlocked,
            pending_at_deadlock=pending,
        )
