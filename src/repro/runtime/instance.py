"""One process instance (case) executing against a shared constraint program.

:class:`CaseInstance` is a *stepwise* re-implementation of the single-case
discrete-event engine (:mod:`repro.scheduler.engine`): the coordinator
calls :meth:`step` to process exactly one timed event, so thousands of
cases interleave fairly across shards instead of each monopolizing the
loop until completion.  It evaluates on the program's
:class:`~repro.runtime.program.MaskProgram` only — the same fate,
readiness and gate tests the verifier explores — while
``ConstraintScheduler`` stays the independent object-walking reference.
Under the default lossless retry policy a case's transition sequence
(activities, times, outcomes) is bit-for-bit identical to
``ConstraintScheduler.run`` — the property the crash-recovery,
minimal-vs-full and scheduler-differential tests pin.

Extras over the single-case engine:

* every start/finish/skip is emitted as a conformance
  :class:`~repro.conformance.events.Event` and written to the write-ahead
  journal *before* the in-memory transition is applied;
* recovery mode replays a journaled event prefix, verifying each replayed
  transition record-for-record (``RT003`` on divergence) and re-journaling
  nothing until the prefix is exhausted;
* service invocations go through per-service retry-with-timeout policies
  (``RT001`` when retries are exhausted);
* a case whose event queue drains with unfinished activities fails with
  ``RT004`` (deadlock) instead of raising, so one poisoned case cannot
  take down the runtime;
* an optional :class:`~repro.objects.runtime.CaseHook` wires the case
  into cross-case barriers: activity finishes/skips *contribute* to the
  shared wait index (journaled write-ahead), and barrier-gated activities
  start at ``max(first_ready_time, barrier_release_time)``.  A case whose
  gate is unresolved **parks immediately** — its virtual clock freezes and
  no queued event is processed until :meth:`wake` — and the wake callback
  carries a constant ``-1`` sequence number, so the heap tuple stream is
  bit-for-bit identical whether the barrier resolved before or after the
  case first looked (the property the co-shard-vs-random and
  crash-recovery equivalence tests pin).  With no hook attached every
  object code path is skipped and behavior is unchanged.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.conformance.events import FINISH, SKIP, START, Event
from repro.errors import ProtocolViolation
from repro.lint.diagnostics import Diagnostic, Severity, SourceLocation
from repro.runtime.journal import COMPLETED, FAILED, Journal
from repro.runtime.program import ConstraintProgram
from repro.runtime.retry import RetryPolicies
from repro.runtime.rules import (
    DEADLOCK,
    JOURNAL_MISMATCH,
    PROTOCOL_FAULT,
    RETRY_EXHAUSTED,
    STRANDED_BARRIER,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.objects.runtime import CaseHook

OutcomeMap = Dict[str, str]

#: The replay prefix of every case that is not recovering.  ``maxlen=0``
#: makes it unable to hold an element, so sharing it is safe; it spares
#: each such case a deque of its own (~700 bytes).
_NOT_REPLAYING: Deque[Event] = deque(maxlen=0)


class CaseStatus(enum.Enum):
    ACTIVE = "active"
    COMPLETED = "completed"
    FAILED = "failed"


class _ReplayMismatch(Exception):
    """Internal: a recovered case diverged from its journaled prefix."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


@dataclass(frozen=True)
class CaseResult:
    """The durable outcome of one case."""

    case: str
    status: str  # "completed" | "failed"
    makespan: float
    outcomes: Tuple[Tuple[str, str], ...]
    executed: Tuple[Tuple[str, float, float], ...]
    skipped: Tuple[str, ...]
    retries: int = 0
    checks: int = 0
    transitions: int = 0
    reason: Optional[str] = None

    def final_state(self) -> Tuple:
        """Canonical comparable snapshot (status, work done, outcomes)."""
        return (
            self.status,
            self.executed,
            self.skipped,
            self.outcomes,
        )


class CaseInstance:
    """All mutable state of one case; shares the read-only program.

    Activity state lives in five dense integers over the program's
    interner: pending/running/done/skipped activity masks plus a guard
    valuation mask.  Start and finish times and guard outcomes are kept by
    name for :meth:`result`.  The ready-set fixpoint is a dirty-set
    worklist over ``MaskProgram.dependents``: only activities incident to a
    state change get re-checked, in the same scheduling order and pass
    structure as the scheduler's full scan, so the emitted event sequence
    is bit-for-bit the scheduler's.
    """

    __slots__ = (
        "case", "status", "reason", "retries", "checks", "transitions",
        "diagnostics", "_program", "_outcome_map", "_seed",
        "_policies", "_journal", "_prefix", "_start_time",
        "_finish_time", "_outcomes", "_queue",
        "_sequence", "_held_finishes", "_services", "_started", "now",
        "_objects", "_gate_waiting", "_gate_alarms", "_parked",
        "_masks", "_pending_m", "_running_m", "_done_m", "_skipped_m",
        "_val_m", "_dirty", "_callback_due", "_gate_check_mask",
    )

    def __init__(
        self,
        case: str,
        program: ConstraintProgram,
        outcomes: Optional[OutcomeMap] = None,
        seed: int = 0,
        policies: Optional[RetryPolicies] = None,
        journal: Optional[Journal] = None,
        replay_prefix: Tuple[Event, ...] = (),
        objects: Optional["CaseHook"] = None,
    ) -> None:
        from repro.scheduler.services import ServiceSimulator

        self.case = case
        self.status = CaseStatus.ACTIVE
        self.reason: Optional[str] = None
        self.retries = 0
        self.checks = 0
        self.transitions = 0
        self.diagnostics: List[Diagnostic] = []

        self._program = program
        self._outcome_map: OutcomeMap = dict(outcomes or {})
        self._seed = seed
        self._policies = policies or RetryPolicies()
        self._journal = journal
        self._prefix: Deque[Event] = (
            deque(replay_prefix) if replay_prefix else _NOT_REPLAYING
        )

        self._start_time: Dict[str, float] = {}
        self._finish_time: Dict[str, float] = {}
        self._outcomes: OutcomeMap = {}
        self._queue: List[Tuple[float, int, str, object]] = []
        self._sequence = itertools.count()
        self._held_finishes: Dict[str, float] = {}
        self._services = ServiceSimulator(program.process, strict=True)
        self._started = False
        self.now = 0.0

        self._objects = objects
        #: activities whose cross-case gate was closed at their ready check.
        self._gate_waiting: Set[str] = set()
        #: activities with a pending gate-release alarm in the queue.
        self._gate_alarms: Set[str] = set()
        self._parked = False

        self._masks = program.masks()
        self._pending_m = self._masks.all_mask
        self._running_m = 0
        self._done_m = 0
        self._skipped_m = 0
        self._val_m = 0
        #: activities to re-check at the next evaluation round.
        self._dirty = self._masks.all_mask
        #: min-heap of ``(callback time, service)`` — drained into the
        #: dirty set as virtual time passes each pending callback.
        self._callback_due: List[Tuple[float, str]] = []
        gate_mask = 0
        if objects is not None:
            for act in self._masks.activities:
                if objects.gate(act.name):
                    gate_mask |= act.bit
        self._gate_check_mask = gate_mask

    @property
    def replaying(self) -> bool:
        """True while a journaled prefix remains to be re-derived.

        The deploy migration probe drives a candidate instance until this
        goes False: a case whose prefix re-derives cleanly under a new
        program version can be hot-upgraded in place.
        """
        return bool(self._prefix)

    @property
    def parked(self) -> bool:
        """True when the case froze on an unresolved cross-case barrier.

        A parked case returned False from :meth:`advance` but is *not*
        done: the coordinator keeps it aside and calls :meth:`wake` when
        its barrier releases (or :meth:`fail_stranded` when it never can).
        """
        return self._parked

    # -- public stepping API -------------------------------------------------

    def advance(self) -> bool:
        """Advance by one unit of work.  Returns True while the case is
        active: the first call runs the t=0 evaluation, each later call
        processes one timed event.  This is the coordinator's entry point —
        it lets freshly admitted and half-done cases share one loop."""
        if not self._started:
            self._started = True
            return self.start()
        return self.step()

    def start(self) -> bool:
        """Run the t=0 ready-set evaluation.  Returns True while active."""
        self._started = True
        try:
            self._evaluate(0.0)
        except _ReplayMismatch as mismatch:
            self._fail(self.now, JOURNAL_MISMATCH, str(mismatch), mismatch.diagnostic)
            return False
        return self._settle()

    def step(self) -> bool:
        """Process one timed event.  Returns True while the case is active."""
        if self.status is not CaseStatus.ACTIVE:
            return False
        if not self._queue:
            return self._settle()
        time, _seq, kind, payload = heapq.heappop(self._queue)
        self.now = time
        try:
            if kind == "finish":
                name = str(payload)
                if self._finish_blocked(name):
                    self._held_finishes[name] = time
                else:
                    self._finish(name, time)
            elif kind == "callback":
                # The message/barrier is now available; re-evaluation below.
                if payload == "__objects__":
                    self._dirty |= self._gate_check_mask
            elif kind == "attempt":
                service, port, attempt = payload  # type: ignore[misc]
                self._attempt_invocation(service, port, attempt, time)
            elif kind == "exhausted":
                service, port, attempts = payload  # type: ignore[misc]
                self._fail(
                    time,
                    RETRY_EXHAUSTED,
                    "service %s port %s unreachable after %d attempt(s)"
                    % (service, port, attempts),
                )
                return False
            if self.status is not CaseStatus.ACTIVE:
                return False
            self._evaluate(time)
        except _ReplayMismatch as mismatch:
            self._fail(self.now, JOURNAL_MISMATCH, str(mismatch), mismatch.diagnostic)
            return False
        return self._settle()

    def run_to_completion(self) -> "CaseResult":
        """Drive this case alone (single-case convenience, used by tests)."""
        active = self.start()
        while active:
            active = self.step()
        return self.result()

    def wake(self) -> None:
        """Unpark after a barrier release.

        For every activity that was gate-waiting, schedules a re-check
        callback at ``max(release_time, now)`` — the *virtual* release
        time journaled with the contributions, never the wall-clock wake
        moment — with the constant ``-1`` sequence number, so the
        resulting heap tuples are independent of when (and on which
        shard) the release physically happened.
        """
        if not self._parked:
            return
        self._parked = False
        for name in sorted(self._gate_waiting):
            if name in self._gate_alarms:
                continue
            self._gate_alarms.add(name)
            mask = self._objects.gate(name) if self._objects is not None else 0
            release = (
                self._objects.release_time(mask)
                if self._objects is not None and mask and self._objects.gate_open(mask)
                else self.now
            )
            self._push_gate_alarm(max(release, self.now))
        self._gate_waiting.clear()

    def fail_stranded(self, evidence: Tuple[str, ...] = ()) -> None:
        """Fail a parked case whose barrier can never release (``RT006``)."""
        names = sorted(self._gate_waiting)
        self._parked = False
        message = (
            "case parked forever on cross-case barrier(s) gating: %s"
            % ", ".join(names)
        )
        gate_names: Tuple[str, ...] = ()
        if self._objects is not None and names:
            mask = 0
            for name in names:
                mask |= self._objects.gate(name)
            gate_names = self._objects.gate_names(mask)
        self._fail(
            self.now,
            STRANDED_BARRIER,
            message,
            diagnostic=Diagnostic(
                code=STRANDED_BARRIER,
                severity=Severity.ERROR,
                message="[%s] %s" % (self.case, message),
                location=SourceLocation("case", self.case),
                evidence=(
                    "case: %s" % self.case,
                    "time: %.1f" % self.now,
                )
                + tuple("barrier: %s" % name for name in gate_names)
                + evidence,
            ),
        )

    def fail_migration(self, message: str, diagnostic: Diagnostic) -> None:
        """Fail a case rejected at a hot-swap barrier (``DEP003``).

        Called by the coordinator's :meth:`~Runtime.reject_case` between
        scheduling rounds: the FAILED completion is journaled write-ahead
        exactly like any other terminal failure, so recovery and the
        uncrashed run agree on the case's fate.
        """
        self._parked = False
        self._fail(self.now, diagnostic.code, message, diagnostic)

    @property
    def makespan(self) -> float:
        return max(self._finish_time.values()) if self._finish_time else 0.0

    def result(self) -> CaseResult:
        executed = tuple(
            (name, self._start_time[name], finish)
            for name, finish in sorted(
                self._finish_time.items(), key=lambda kv: (kv[1], kv[0])
            )
        )
        return CaseResult(
            case=self.case,
            status=COMPLETED if self.status is CaseStatus.COMPLETED else FAILED,
            makespan=self.makespan,
            outcomes=tuple(sorted(self._outcomes.items())),
            executed=executed,
            skipped=tuple(sorted(self._masks.names_of(self._skipped_m))),
            retries=self.retries,
            checks=self.checks,
            transitions=self.transitions,
            reason=self.reason,
        )

    # -- completion / failure ------------------------------------------------

    def _settle(self) -> bool:
        """After an event+evaluation round: decide completed/deadlocked.

        The gate-waiting check comes *before* the queue check on purpose:
        a case parks the moment any activity is gated on an unresolved
        barrier, even with events still queued.  Processing those events
        first would make the emitted sequence depend on how far the case
        got before the barrier physically resolved — i.e. on shard
        placement and crash timing.
        """
        if self.status is not CaseStatus.ACTIVE:
            return False
        if self._gate_waiting:
            self._parked = True
            if self._objects is not None:
                mask = 0
                for name in self._gate_waiting:
                    mask |= self._objects.gate(name)
                self._objects.register_wait(mask)
            return False
        if self._queue:
            return True
        # Held finishes stay RUNNING, so they are among the unfinished.
        stuck = sorted(self._masks.names_of(self._pending_m | self._running_m))
        if stuck:
            message = "case stalled with unfinished activities: %s" % ", ".join(stuck)
            self._fail(
                self.now,
                DEADLOCK,
                message,
                diagnostic=Diagnostic(
                    code=DEADLOCK,
                    severity=Severity.ERROR,
                    message="[%s] %s" % (self.case, message),
                    location=SourceLocation("case", self.case),
                    evidence=(
                        "case: %s" % self.case,
                        "time: %.1f" % self.now,
                    )
                    + self._deadlock_evidence(stuck),
                ),
            )
            return False
        self.status = CaseStatus.COMPLETED
        if self._journal is not None:
            self._journal.complete(self.case, self.makespan, COMPLETED)
        return False

    def _deadlock_evidence(self, stuck: List[str]) -> Tuple[str, ...]:
        """Per-activity blocking detail for RT004, worded by the same
        :meth:`MaskProgram.why_blocked` as the verifier's VER001
        counterexamples so the two reports cross-reference.  Cold path —
        only runs on failure."""
        masks = self._masks
        evidence: List[str] = []
        for name in stuck:
            act = masks.activities[masks.index[name]]
            awaits = act.awaits_service
            evidence.append(
                masks.why_blocked(
                    act, self._done_m, self._running_m, self._skipped_m,
                    self._val_m,
                    message_ready=awaits is None
                    or self._services.message_available(awaits, self.now),
                )
            )
        return tuple(evidence)

    def _fail(
        self,
        time: float,
        code: str,
        message: str,
        diagnostic: Optional[Diagnostic] = None,
    ) -> None:
        if self.status is CaseStatus.FAILED:
            return  # already failed (and journaled) with the first cause
        self.status = CaseStatus.FAILED
        self.reason = message
        self._queue.clear()
        self.diagnostics.append(
            diagnostic
            if diagnostic is not None
            else Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message="[%s] %s" % (self.case, message),
                location=SourceLocation("case", self.case),
                evidence=("case: %s" % self.case, "time: %.1f" % time),
            )
        )
        if self._journal is not None:
            self._journal.complete(self.case, time, FAILED, reason=message)

    # -- WAL emission --------------------------------------------------------

    def _emit(self, activity: str, lifecycle: str, time: float,
              outcome: Optional[str] = None) -> None:
        self.transitions += 1
        event = Event(
            self.case,
            activity,
            lifecycle,
            time,
            outcome=outcome,
            attrs=self._objects.attrs if self._objects is not None else (),
        )
        if self._prefix:
            expected = self._prefix.popleft()
            if (
                expected.activity != event.activity
                or expected.lifecycle != event.lifecycle
                or expected.outcome != event.outcome
                or expected.time != event.time
            ):
                raise _ReplayMismatch(
                    Diagnostic(
                        code=JOURNAL_MISMATCH,
                        severity=Severity.ERROR,
                        message="[%s] recovery diverged from journal: "
                        "journal has %s, re-execution produced %s"
                        % (self.case, expected, event),
                        location=SourceLocation("case", self.case),
                        evidence=(
                            "journaled: %s" % expected,
                            "replayed:  %s" % event,
                        ),
                    )
                )
            return  # already durably journaled before the crash
        if self._journal is not None:
            self._journal.event(event)

    # -- outcomes & held finishes --------------------------------------------

    def _resolve_outcome(self, guard: str) -> str:
        domain = self._program.outcome_domain(guard)
        value = self._outcome_map.get(guard, "T" if "T" in domain else domain[-1])
        if value not in domain:
            self._fail(
                self.now,
                DEADLOCK,
                "outcome %r not in domain %s of guard %r" % (value, domain, guard),
            )
            raise _ReplayMismatch(self.diagnostics[-1])
        return value

    def _finish_blocked(self, name: str) -> bool:
        masks = self._masks
        return masks.finish_blocked(
            masks.activities[masks.index[name]],
            self._done_m, self._running_m, self._skipped_m,
        )

    # -- transitions ---------------------------------------------------------

    def _push(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self._queue, (time, next(self._sequence), kind, payload))

    def _push_gate_alarm(self, time: float) -> None:
        # Constant -1 sequence: the alarm neither consumes the sequence
        # counter nor ties unpredictably with ordinary pushes, so heap
        # order is identical whether the barrier resolved before or after
        # this case first checked its gate.
        heapq.heappush(self._queue, (time, -1, "callback", "__objects__"))

    def _start(self, name: str, now: float) -> None:
        self._emit(name, START, now)
        self._start_time[name] = now
        masks = self._masks
        position = masks.index[name]
        bit = 1 << position
        self._pending_m &= ~bit
        self._running_m |= bit
        self._dirty |= masks.dependents[position]
        self._push(now + self._program.info[name].duration, "finish", name)

    def _finish(self, name: str, now: float) -> None:
        outcome: Optional[str] = None
        if self._program.info[name].is_guard:
            outcome = self._resolve_outcome(name)
        if self._objects is not None and not self._prefix:
            # Write-ahead: the obligation record must be durable before
            # the finish event that implies it.  During prefix replay the
            # contributions were already pre-applied from the journal.
            self._objects.contribute(name, "satisfy", now)
            self._objects.once(name, now)
        self._emit(name, FINISH, now, outcome=outcome)
        self._finish_time[name] = now
        masks = self._masks
        position = masks.index[name]
        bit = 1 << position
        self._pending_m &= ~bit
        self._running_m &= ~bit
        self._done_m |= bit
        if outcome is not None:
            self._outcomes[name] = outcome
            for value, value_mask in masks.activities[position].outcome_bits:
                if value == outcome:
                    self._val_m |= value_mask
                    break
        self._dirty |= masks.dependents[position]
        self._register_invocation(name, now)
        self._release_held_finishes(now)

    def _skip(self, name: str, now: float) -> None:
        if self._objects is not None and not self._prefix:
            self._objects.contribute(name, "cancel", now)
        self._emit(name, SKIP, now)
        masks = self._masks
        position = masks.index[name]
        self._pending_m &= ~(1 << position)
        self._skipped_m |= 1 << position
        self._dirty |= masks.dependents[position]
        self._release_held_finishes(now)

    def _release_held_finishes(self, now: float) -> None:
        for name in list(self._held_finishes):
            if not self._finish_blocked(name):
                del self._held_finishes[name]
                self._finish(name, now)

    # -- remote services with retry ------------------------------------------

    def _register_invocation(self, name: str, now: float) -> None:
        invokes = self._program.info[name].invokes
        if invokes is None:
            return
        service, port = invokes
        self._attempt_invocation(service, port, 1, now)

    def _attempt_invocation(
        self, service: str, port: str, attempt: int, now: float
    ) -> None:
        policy = self._policies.for_service(service)
        if policy.attempt_delivered(self._seed, self.case, service, port, attempt):
            try:
                callback = self._services.invoke(service, port, now)
            except ProtocolViolation as violation:
                self._fail(now, PROTOCOL_FAULT, str(violation))
                return
            if callback is not None:
                self._push(callback, "callback", service)
                if callback <= now:
                    # Zero-latency callback: a full scan would see the
                    # message this very round.
                    self._dirty |= self._masks.awaiters.get(service, 0)
                else:
                    heapq.heappush(self._callback_due, (callback, service))
            return
        if attempt < policy.max_attempts:
            self.retries += 1
            self._push(now + policy.timeout, "attempt", (service, port, attempt + 1))
        else:
            self._push(
                now + policy.timeout, "exhausted", (service, port, attempt)
            )

    # -- the ready-set fixpoint ----------------------------------------------

    def _evaluate(self, now: float) -> None:
        """Start or skip every pending activity that can move; repeats to a
        fixpoint because skips cascade instantly.

        ``ConstraintScheduler``'s pass is an ascending scan over *all*
        pending activities; here a pass is an ascending drain of the dirty
        set.  Equality of the emitted sequence follows from two invariants:
        every readiness/fate test is a pure function of state the
        ``dependents`` table tracks (so an activity that was checked and did
        not move cannot move until one of its inputs transitions), and a
        transition at position ``p`` routes the freshly dirtied bits above
        ``p`` into the *current* pass (the full scan would still reach them
        this pass) while bits at or below ``p`` wait for the next pass —
        exactly the visibility the full scan gives them.  Message readiness
        is the one time-dependent test; the ``_callback_due`` heap
        re-dirties awaiting activities as virtual time passes each pending
        callback.
        """
        masks = self._masks
        due = self._callback_due
        while due and due[0][0] <= now:
            self._dirty |= masks.awaiters.get(heapq.heappop(due)[1], 0)
        activities = masks.activities
        services = self._services
        gate_mask = self._gate_check_mask
        while self.status is CaseStatus.ACTIVE:
            current = self._dirty & self._pending_m
            self._dirty = 0
            if not current:
                break
            while current and self.status is CaseStatus.ACTIVE:
                low = current & -current
                current ^= low
                if not (low & self._pending_m):
                    continue  # resolved by an earlier cascade this pass
                act = activities[low.bit_length() - 1]
                fate = masks.fate(act, self._val_m, self._skipped_m)
                if fate is None:
                    continue
                if fate is False:
                    name = act.name
                    self._gate_waiting.discard(name)
                    self._gate_alarms.discard(name)
                    self._skip(name, now)
                else:
                    self.checks += act.in_degree
                    if act.pred_mask & ~(self._done_m | self._skipped_m):
                        continue
                    service = act.awaits_service
                    if service is not None and not services.message_available(
                        service, now
                    ):
                        continue
                    if act.exclusive_mask & self._running_m:
                        continue
                    if act.start_gates and masks.start_blocked(
                        act, self._done_m, self._running_m, self._skipped_m
                    ):
                        continue
                    if (act.bit & gate_mask) and self._gate_blocked(act.name, now):
                        continue
                    self._start(act.name, now)
                # A transition happened (and may have cascaded through held
                # finishes): route the dirt it produced.
                changed = self._dirty
                if changed:
                    below_eq = (low << 1) - 1
                    current |= changed & ~below_eq & self._pending_m
                    self._dirty = changed & below_eq

    def _gate_blocked(self, name: str, now: float) -> bool:
        """Cross-case barrier check for ``name``; the last readiness gate.

        Unresolved barrier -> record the activity as gate-waiting (the
        case parks in ``_settle``).  Resolved with a release time in the
        future -> schedule the start via a ``-1``-sequence alarm, so the
        activity starts at exactly ``max(first_ready, release)`` with a
        heap footprint independent of resolution timing.
        """
        if self._objects is None:
            return False
        mask = self._objects.gate(name)
        if not mask:
            return False
        if not self._objects.gate_open(mask):
            self._gate_waiting.add(name)
            return True
        self._gate_waiting.discard(name)
        release = self._objects.release_time(mask)
        if release > now:
            if name not in self._gate_alarms:
                self._gate_alarms.add(name)
                self._push_gate_alarm(release)
            return True
        self._gate_alarms.discard(name)
        return False
