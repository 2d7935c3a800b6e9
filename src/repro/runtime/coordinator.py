"""The multi-case coordination runtime.

:class:`Runtime` admits process instances (cases) against a single
compiled :class:`~repro.runtime.program.ConstraintProgram`, places them on
hash shards, and drives them in interleaved batches: each scheduling round
takes a batch of runnable cases per shard and advances every case by
exactly one discrete event.  Every lifecycle transition is written ahead
to the JSONL journal; :meth:`Runtime.recover` rebuilds a crashed runtime
from that journal — completed cases are never re-run, in-flight cases are
re-executed deterministically while their journaled prefix is verified
record-for-record (``RT003`` on divergence).

Object-centric serving (an :class:`~repro.objects.model.ObjectSpec` plus
per-case :class:`~repro.objects.model.ObjectBinding`\\ s) adds cross-case
barriers on top: cases co-shard by object key (``co_shard=False`` falls
back to case-id placement as the comparison baseline), a case whose
barrier is unresolved parks outside the run queues until a contribution —
possibly from another shard — releases it, and obligation transitions are
journaled write-ahead so recovery restores partially satisfied barriers
exactly.  When no object spec is given, every object code path is skipped
and the runtime behaves bit-for-bit as before.

The runtime never raises for a sick case: retry exhaustion (``RT001``),
admission rejection (``RT002``), recovery divergence (``RT003``),
deadlock (``RT004``), runtime protocol faults (``RT005``) and stranded
cross-case barriers (``RT006``) become
:class:`~repro.lint.diagnostics.Diagnostic` records on the
:class:`RuntimeReport`, so the text/JSON/SARIF renderers and ``--fail-on``
gating of :mod:`repro.lint` apply unchanged.  The only exception that
escapes :meth:`run` is :class:`~repro.runtime.journal.SimulatedCrash` —
the fault-injection hook proving the recovery path.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.conformance.events import FINISH, SKIP, START
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    SourceLocation,
)
from repro.obs import Observability
from repro.objects.model import ObjectBinding, ObjectSpec
from repro.objects.runtime import ObjectRuntime
from repro.runtime import rules as _rules  # noqa: F401  (registers RT00x rules)
from repro.runtime.admission import ADMIT, QUEUE, AdmissionController
from repro.runtime.instance import CaseInstance, CaseResult
from repro.runtime.journal import (
    COMPLETED,
    Journal,
    JournaledCase,
    JournalState,
    read_journal,
)
from repro.runtime.metrics import RuntimeMetrics, latency_quantiles
from repro.runtime.program import ConstraintProgram
from repro.runtime.retry import RetryPolicies
from repro.runtime.rules import ADMISSION_REJECTED, RT_CODES, TORN_TAIL
from repro.runtime.store import ShardedStore


@dataclass
class RuntimeReport:
    """Everything one serving run produced."""

    metrics: RuntimeMetrics
    results: Dict[str, CaseResult] = field(default_factory=dict)
    diagnostics: Tuple[Diagnostic, ...] = ()
    #: case -> program version the case was served under (all 1 when no
    #: hot swap ever ran; see :mod:`repro.deploy`).
    versions: Dict[str, int] = field(default_factory=dict)

    def completed_cases(self) -> Tuple[str, ...]:
        return tuple(
            sorted(c for c, r in self.results.items() if r.status == COMPLETED)
        )

    def failed_cases(self) -> Tuple[str, ...]:
        return tuple(
            sorted(c for c, r in self.results.items() if r.status != COMPLETED)
        )

    def final_states(self) -> Dict[str, Tuple]:
        """``case -> canonical final state`` for equivalence comparisons."""
        return {case: result.final_state() for case, result in self.results.items()}

    def to_lint_report(self) -> LintReport:
        return LintReport.from_diagnostics(list(self.diagnostics), rules_run=RT_CODES)

    def exit_code(self, fail_on: Severity = Severity.WARNING) -> int:
        return self.to_lint_report().exit_code(fail_on)

    def summary(self) -> str:
        return self.metrics.summary()


def result_from_journal(journaled: JournaledCase) -> CaseResult:
    """Rebuild a completed case's :class:`CaseResult` from its journal."""
    starts: Dict[str, float] = {}
    finishes: Dict[str, float] = {}
    outcomes: Dict[str, str] = {}
    skipped: List[str] = []
    for event in journaled.events:
        if event.lifecycle == START:
            starts[event.activity] = event.time
        elif event.lifecycle == FINISH:
            finishes[event.activity] = event.time
            if event.outcome is not None:
                outcomes[event.activity] = event.outcome
        elif event.lifecycle == SKIP:
            skipped.append(event.activity)
    executed = tuple(
        (name, starts[name], finish)
        for name, finish in sorted(finishes.items(), key=lambda kv: (kv[1], kv[0]))
    )
    makespan = max(finishes.values()) if finishes else 0.0
    return CaseResult(
        case=journaled.case,
        status=journaled.status or COMPLETED,
        makespan=journaled.completed_at if journaled.completed_at is not None else makespan,
        outcomes=tuple(sorted(outcomes.items())),
        executed=executed,
        skipped=tuple(sorted(skipped)),
        transitions=len(journaled.events),
        reason=journaled.reason,
    )


class Runtime:
    """Coordinates many concurrent cases over one constraint program.

    Every case runs on :class:`~repro.runtime.instance.CaseInstance`'s
    mask-compiled evaluator; there is no alternative evaluation mode.  The
    independent reference is the single-case ``ConstraintScheduler``,
    which each case's journaled event sequence equals.

    Parameters
    ----------
    program:
        The compiled constraint program all cases share.
    shards:
        Number of instance-store shards (``K``).
    batch:
        Cases advanced per shard per scheduling round.
    flush_every:
        Journal group-commit size: flush the write-ahead journal every N
        records instead of per record (see
        :class:`~repro.runtime.journal.Journal`).
    external_gates:
        This runtime is one shard worker of a multi-process pool (see
        :mod:`repro.runtime.workers`): cross-case obligation records are
        queued for shipping to sibling workers, and the driver uses
        :meth:`run_until_blocked` / :meth:`apply_foreign_gates` /
        :meth:`finalize_stranded` instead of :meth:`run`.
    max_in_flight / max_queue:
        Admission bounds (see :mod:`repro.runtime.admission`).
    journal_path:
        Enable the write-ahead journal at this path.
    crash_after:
        Fault injection: simulate a crash after N journal records.
    policies:
        Per-service retry-with-timeout policies.
    seed:
        Seed for the deterministic service-loss model.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  ``None``
        (the default) disables all instrumentation; the only residual
        cost on the scheduling loop is a ``None`` check, pinned at <5%
        by ``benchmarks/bench_obs_overhead.py``.
    """

    def __init__(
        self,
        program: ConstraintProgram,
        shards: int = 4,
        batch: int = 8,
        max_in_flight: Optional[int] = None,
        max_queue: Optional[int] = None,
        journal_path: Optional[str] = None,
        crash_after: Optional[int] = None,
        policies: Optional[RetryPolicies] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
        objects: Optional[ObjectSpec] = None,
        co_shard: bool = True,
        flush_every: int = 1,
        external_gates: bool = False,
        version: int = 1,
        programs: Optional[Mapping[int, ConstraintProgram]] = None,
    ) -> None:
        if batch < 1:
            raise ValueError("batch must be at least 1")
        self.program = program
        #: current program version — newly admitted cases run this version.
        self.version = version
        #: every version this runtime can serve (hot swaps add entries).
        self._programs: Dict[int, ConstraintProgram] = dict(programs or {})
        self._programs.setdefault(version, program)
        self._case_versions: Dict[str, int] = {}
        # Hot-swap migration counters (see repro.deploy.migrate).
        self.upgraded = 0
        self.drained = 0
        self.swap_rejected = 0
        self._batch = batch
        self._flush_every = flush_every
        self._seed = seed
        self._policies = policies or RetryPolicies()
        self._store = ShardedStore(shards)
        self._admission = AdmissionController(max_in_flight, max_queue)
        self._obs = obs
        if obs is not None:
            self._bind_instruments(obs)
        self._journal: Optional[Journal] = (
            Journal(
                journal_path,
                crash_after=crash_after,
                observe_flush=self._m_flush.observe if obs is not None else None,
                flush_every=flush_every,
            )
            if journal_path is not None
            else None
        )
        self._results: Dict[str, CaseResult] = {}
        self._recovered: Dict[str, CaseResult] = {}
        self._outcome_plans: Dict[str, Dict[str, str]] = {}
        self.diagnostics: List[Diagnostic] = []
        self._submitted = 0
        self._admitted = 0
        self._wall_seconds = 0.0
        self._co_shard = co_shard
        self._objects: Optional[ObjectRuntime] = (
            ObjectRuntime(objects) if objects is not None and objects else None
        )
        if self._objects is not None:
            self._objects.journal = self._journal
            self._objects.outbox_enabled = external_gates
        self._external_gates = external_gates
        #: declared bindings for cases not yet activated (admission queue).
        self._case_bindings: Dict[str, ObjectBinding] = {}
        #: parked cases: frozen on an unresolved cross-case barrier.
        self._parked: Dict[str, Tuple[CaseInstance, object]] = {}

    def _bind_instruments(self, obs: Observability) -> None:
        """Register runtime metrics once and cache the hot-path handles."""
        registry = obs.metrics
        self._m_cases = registry.counter(
            "repro_runtime_cases_total", "Cases finished, by final status.", ("status",)
        )
        self._m_admission = registry.counter(
            "repro_runtime_admission_total",
            "Admission verdicts for offered cases.",
            ("verdict",),
        )
        self._m_recovery = registry.counter(
            "repro_runtime_recovery_cases_total",
            "Cases rebuilt from the journal, by recovery kind.",
            ("kind",),
        )
        self._m_transitions = registry.counter(
            "repro_runtime_transitions_total", "Case lifecycle transitions executed."
        )
        self._m_checks = registry.counter(
            "repro_runtime_checks_total", "Constraint evaluations during serving."
        )
        self._m_retries = registry.counter(
            "repro_runtime_retries_total", "Service retry attempts."
        )
        self._m_batch = registry.histogram(
            "repro_runtime_batch_cases",
            "Cases advanced per shard scheduling batch.",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._m_makespan = registry.histogram(
            "repro_runtime_case_makespan_virtual",
            "Virtual (simulated-clock) makespan of finished cases.",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200),
        )
        self._m_flush = registry.histogram(
            "repro_runtime_journal_flush_seconds",
            "Wall-clock latency of one write-ahead journal record flush.",
        )

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal_path: str,
        program: ConstraintProgram,
        crash_after: Optional[int] = None,
        state: Optional[JournalState] = None,
        **kwargs,
    ) -> "Runtime":
        """Rebuild a runtime from a (possibly crashed) journal.

        Completed cases are adopted as-is; in-flight cases are re-admitted
        with their journaled event prefix armed for verification.  The
        journal is reopened in append mode, so the recovered run extends
        the same file, after a torn final write is cut back to the last
        complete record (``RT007``).  ``state`` passes an already-parsed
        journal (the multi-worker pool parses each shard journal once to
        gather cross-shard records); ``None`` reads ``journal_path``.
        """
        if state is None:
            state = read_journal(journal_path)
        runtime = cls(program, **kwargs)
        if "version" not in kwargs:
            # Adopt the journal's committed version: new admissions after a
            # recovered (possibly mid-swap) run continue on the version the
            # last committed deploy established.
            runtime.version = state.current_version()
            runtime._programs.setdefault(runtime.version, program)
        obs = runtime._obs
        span = (
            obs.tracer.span("runtime.recover", journal=journal_path)
            if obs is not None
            else None
        )
        if span is not None:
            span.__enter__()
        if state.torn_at is not None:
            # Cut the torn fragment first, or the next appended record would
            # be glued to it and the journal corrupted for good.
            with open(journal_path, "r+b") as handle:
                handle.truncate(state.torn_at)
            runtime.diagnostics.append(
                Diagnostic(
                    code=TORN_TAIL,
                    severity=Severity.WARNING,
                    message="dropped a torn final write of %d byte(s) after "
                    "record %d"
                    % (len(state.torn_fragment.encode("utf-8")), state.records),
                    location=SourceLocation("journal", journal_path),
                    evidence=("fragment: %s" % state.torn_fragment[:80],),
                )
            )
        runtime._journal = Journal(
            journal_path,
            resume=True,
            crash_after=crash_after,
            already_written=state.records,
            observe_flush=runtime._m_flush.observe if obs is not None else None,
            flush_every=runtime._flush_every,
        )
        if runtime._objects is not None:
            runtime._objects.journal = runtime._journal
            # Rebuild the wait index before any case resumes: bindings come
            # from admit records, partially satisfied barriers from the
            # idempotent obj records.  Completed cases are bound here;
            # in-flight ones re-bind through _activate below.
            for journaled in state.completed():
                if journaled.binding is not None:
                    runtime._objects.bind(
                        journaled.case, ObjectBinding.from_dict(journaled.binding)
                    )
            for journaled in state.in_flight():
                if journaled.binding is not None:
                    runtime._case_bindings[journaled.case] = ObjectBinding.from_dict(
                        journaled.binding
                    )
            for record in state.objects:
                runtime._objects.preapply(record)
        for journaled in state.completed():
            runtime._recovered[journaled.case] = result_from_journal(journaled)
            runtime._case_versions[journaled.case] = journaled.version
            if obs is not None:
                runtime._m_recovery.labels(kind="adopted").inc()
        for journaled in state.in_flight():
            if journaled.version not in runtime._programs:
                raise ValueError(
                    "journal assigns case %r to program version %d but no "
                    "program was supplied for that version (pass programs="
                    "{...} to recover)" % (journaled.case, journaled.version)
                )
            runtime._submitted += 1
            runtime._admission.force_admit()
            runtime._activate(
                journaled.case,
                journaled.outcomes,
                prefix=tuple(journaled.events),
                journal_admission=False,
                version=journaled.version,
            )
            if obs is not None:
                runtime._m_recovery.labels(kind="resumed").inc()
        if span is not None:
            span.set(
                adopted=len(state.completed()),
                resumed=len(state.in_flight()),
                records=state.records,
            )
            span.__exit__(None, None, None)
        return runtime

    # -- admission -----------------------------------------------------------

    @property
    def known_cases(self) -> Tuple[str, ...]:
        """Every case this runtime owns (any state), sorted."""
        known = set(self._results)
        known.update(self._recovered)
        known.update(self._store.active_cases())
        known.update(self._admission.waiting_cases())
        return tuple(sorted(known))

    def submit(
        self,
        case: str,
        outcomes: Optional[Mapping[str, str]] = None,
        binding: Optional[ObjectBinding] = None,
    ) -> bool:
        """Offer one case.  Returns False when admission rejected it.

        ``binding`` attaches the case to a business object; it is kept
        through admission queueing and applied when the case activates.
        """
        plan = dict(outcomes or {})
        if binding is not None:
            self._case_bindings[case] = binding
        self._submitted += 1
        verdict = self._admission.offer(case, plan)
        if self._obs is not None:
            self._m_admission.labels(verdict=verdict).inc()
        if verdict == ADMIT:
            self._activate(case, plan)
            return True
        if verdict == QUEUE:
            return True
        self.diagnostics.append(
            Diagnostic(
                code=ADMISSION_REJECTED,
                severity=Severity.WARNING,
                message="[%s] rejected: %d case(s) in flight and the waiting "
                "queue is full" % (case, self._admission.in_flight),
                location=SourceLocation("case", case),
                evidence=(
                    "max_in_flight: %s" % self._admission.max_in_flight,
                    "max_queue: %s" % self._admission.max_queue,
                ),
            )
        )
        return False

    def submit_batch(
        self,
        plans: Mapping[str, Mapping[str, str]],
        bindings: Optional[Mapping[str, ObjectBinding]] = None,
    ) -> Tuple[str, ...]:
        """Offer many cases; returns the rejected ones."""
        bindings = bindings or {}
        rejected = [
            case
            for case, outcomes in plans.items()
            if not self.submit(case, outcomes, binding=bindings.get(case))
        ]
        return tuple(rejected)

    def _activate(
        self,
        case: str,
        outcomes: Dict[str, str],
        prefix: Tuple = (),
        journal_admission: bool = True,
        version: Optional[int] = None,
    ) -> None:
        self._admitted += 1
        self._outcome_plans[case] = dict(outcomes)
        effective = self.version if version is None else version
        self._case_versions[case] = effective
        binding = self._case_bindings.pop(case, None)
        hook = None
        if self._objects is not None and binding is not None:
            # Bind before journaling so a spec violation surfaces before
            # the admit record exists; the binding itself travels on the
            # admit record so recovery can rebuild the wait index.
            hook = self._objects.bind(case, binding)
        if self._journal is not None and journal_admission:
            self._journal.admit(
                case,
                0.0,
                outcomes,
                binding=binding.to_dict() if binding is not None else None,
                version=effective,
            )
        instance = CaseInstance(
            case,
            self._programs.get(effective, self.program),
            outcomes=outcomes,
            seed=self._seed,
            policies=self._policies,
            journal=self._journal,
            replay_prefix=prefix,
            objects=hook,
        )
        placement_key = (
            binding.object_key
            if binding is not None and self._co_shard
            else None
        )
        self._store.add(instance, key=placement_key)

    # -- the scheduling loop -------------------------------------------------

    def run(self) -> RuntimeReport:
        """Drive every admitted case to completion and return the report.

        :class:`~repro.runtime.journal.SimulatedCrash` (fault injection)
        propagates to the caller; wall-clock time spent before the crash is
        still accounted, so a recovered run reports only its own time.
        """
        started = _time.perf_counter()
        obs = self._obs
        try:
            if obs is None:
                while True:
                    self._drain_wakes()
                    if not self._store.any_runnable():
                        if self._parked:
                            self._fail_stranded()
                            continue
                        break
                    for shard in self._store.shards:
                        self._advance_batch(shard, shard.take_batch(self._batch))
            else:
                with obs.tracer.span("runtime.run", admitted=self._admitted):
                    while True:
                        self._drain_wakes()
                        if not self._store.any_runnable():
                            if self._parked:
                                self._fail_stranded()
                                continue
                            break
                        for shard in self._store.shards:
                            batch = shard.take_batch(self._batch)
                            if not batch:
                                continue
                            self._m_batch.observe(len(batch))
                            with obs.tracer.span(
                                "runtime.batch",
                                shard=shard.index,
                                cases=len(batch),
                            ):
                                self._advance_batch(shard, batch)
        finally:
            self._wall_seconds += _time.perf_counter() - started
        return self.report()

    def run_until_blocked(self) -> bool:
        """Drive until no runnable work remains, leaving parked cases parked.

        The multi-worker scheduling round: where :meth:`run` fails parked
        cases as stranded once the store drains, a shard worker instead
        reports back to the pool — a contribution from *another worker*
        may still release the barrier.  Returns True while cases are
        parked (the worker is blocked on foreign gate traffic).
        """
        started = _time.perf_counter()
        try:
            while True:
                self._drain_wakes()
                if not self._store.any_runnable():
                    break
                for shard in self._store.shards:
                    self._advance_batch(shard, shard.take_batch(self._batch))
        finally:
            self._wall_seconds += _time.perf_counter() - started
        return bool(self._parked)

    def run_until_completed(self, target: int) -> bool:
        """Drive scheduling rounds until ``target`` cases have finished.

        The pause point for a mid-run hot swap (``serve --redeploy-after
        N``): the method returns *between* scheduling rounds, where every
        resident non-parked case sits in its shard queue exactly once —
        the invariant :meth:`swap_case` relies on.  Returns True while
        runnable work remains (the run is paused, not finished).
        """
        started = _time.perf_counter()
        try:
            while len(self._results) + len(self._recovered) < target:
                self._drain_wakes()
                if not self._store.any_runnable():
                    if self._parked:
                        self._fail_stranded()
                        continue
                    break
                for shard in self._store.shards:
                    self._advance_batch(shard, shard.take_batch(self._batch))
        finally:
            self._wall_seconds += _time.perf_counter() - started
        self._drain_wakes()
        return self._store.any_runnable() or bool(self._parked)

    # -- hot swap (driven by repro.deploy.migrate) ----------------------------

    @property
    def journal(self) -> Optional[Journal]:
        """The write-ahead journal (None when journaling is off)."""
        return self._journal

    @property
    def has_objects(self) -> bool:
        """True when an object spec is declared (hot swap is refused)."""
        return self._objects is not None

    def version_map(self) -> Dict[str, int]:
        """``case -> program version`` for every case this runtime owns."""
        return dict(self._case_versions)

    def register_program(self, version: int, program: ConstraintProgram) -> None:
        """Make ``program`` available as ``version`` for upgrades/admissions."""
        self._programs[version] = program

    def activate_version(self, version: int) -> None:
        """Route *new* admissions to ``version`` (must be registered)."""
        if version not in self._programs:
            raise KeyError("program version %d is not registered" % version)
        self.version = version
        self.program = self._programs[version]

    def resident_cases(self) -> Dict[str, CaseInstance]:
        """Every in-flight case instance currently resident on a shard."""
        resident: Dict[str, CaseInstance] = {}
        for shard in self._store.shards:
            resident.update(shard.cases)
        return resident

    def case_plan(self, case: str) -> Dict[str, str]:
        """The outcome plan ``case`` was admitted with."""
        return dict(self._outcome_plans.get(case, {}))

    def probe_case(self, case: str, program: ConstraintProgram, prefix: Tuple) -> CaseInstance:
        """Build an *unjournaled* replay probe of ``case`` under ``program``.

        Identical construction to :meth:`swap_case`'s replacement —
        same outcome plan, seed and policies — but
        with no journal attached, so the migration engine can drive the
        probe through its prefix without emitting anything.
        """
        return CaseInstance(
            case,
            program,
            outcomes=self._outcome_plans.get(case, {}),
            seed=self._seed,
            policies=self._policies,
            journal=None,
            replay_prefix=prefix,
        )

    def _shard_holding(self, case: str):
        for shard in self._store.shards:
            if case in shard.cases:
                return shard
        raise KeyError("case %r is not resident on any shard" % case)

    def swap_case(self, case: str, version: int, prefix: Tuple) -> None:
        """Hot-upgrade one resident case to ``version`` in place.

        The replacement instance re-derives the journaled ``prefix`` under
        the new program exactly like crash recovery does — verified record
        for record as the scheduler drives it.  Only the instance behind
        the case id changes; queue membership is untouched, so this is
        safe precisely at the between-rounds point
        :meth:`run_until_completed` pauses at.  The caller (the migration
        engine) has already probed that the replay succeeds.
        """
        shard = self._shard_holding(case)
        instance = CaseInstance(
            case,
            self._programs[version],
            outcomes=self._outcome_plans.get(case, {}),
            seed=self._seed,
            policies=self._policies,
            journal=self._journal,
            replay_prefix=prefix,
        )
        shard.cases[case] = instance
        self._case_versions[case] = version
        self.upgraded += 1

    def drain_case(self, case: str) -> None:
        """Leave ``case`` on its current version; count the decision."""
        self._shard_holding(case)  # raises for unknown cases
        self.drained += 1

    def reject_case(self, case: str, message: str, diagnostic: Diagnostic) -> None:
        """Fail a resident case rejected at the swap barrier (``DEP003``)."""
        shard = self._shard_holding(case)
        instance = shard.cases[case]
        try:
            shard.queue.remove(case)
        except ValueError:
            pass  # parked or mid-batch; resident but not queued
        instance.fail_migration(message, diagnostic)
        shard.retire(instance)
        self._on_case_done(instance)
        self.swap_rejected += 1

    def take_gate_outbox(self) -> List[Dict[str, object]]:
        """Drain obligation records destined for sibling workers.

        Flushes the journal first: a record must be durable on the shard
        that owns it *before* any other shard acts on it, otherwise a
        crash could strand effects recovery cannot re-derive.
        """
        if self._objects is None:
            return []
        if self._journal is not None:
            self._journal.flush()
        return self._objects.take_outbox()  # type: ignore[return-value]

    def apply_foreign_gates(self, records) -> None:
        """Apply obligation records shipped from sibling workers."""
        if self._objects is None:
            return
        for record in records:
            self._objects.apply_foreign(record)

    def seed_foreign_bindings(self, bindings: Mapping[str, ObjectBinding]) -> None:
        """Seed registrations/declarations for cases owned by other workers."""
        if self._objects is None:
            return
        for case in sorted(bindings):
            self._objects.seed_binding(case, bindings[case])

    def finalize_stranded(self) -> None:
        """Fail every parked case (``RT006``) — pool consensus says no
        worker can produce further gate traffic."""
        if self._parked:
            self._fail_stranded()

    def _advance_batch(self, shard, batch) -> None:
        """Advance each case in ``batch`` by one event; retire finished ones.

        A case that parked on a cross-case barrier is neither requeued nor
        retired: it stays resident on its shard but leaves the run queue
        until :meth:`_drain_wakes` puts it back.
        """
        for instance in batch:
            if instance.advance():
                shard.requeue(instance)
            elif instance.parked:
                self._parked[instance.case] = (instance, shard)
            else:
                shard.retire(instance)
                self._on_case_done(instance)

    def _drain_wakes(self) -> None:
        """Requeue parked cases whose barriers have released.

        Wakes are produced by contributions on *any* shard (the wait
        index is shared); draining at the top of each scheduling round is
        the cross-shard mailbox.
        """
        if self._objects is None:
            return
        for case in self._objects.take_wakes():
            entry = self._parked.pop(case, None)
            if entry is None:
                continue  # woke before parking was recorded; nothing to do
            instance, shard = entry
            instance.wake()
            shard.requeue(instance)

    def _fail_stranded(self) -> None:
        """Fail every parked case: no runnable work and no pending wakes
        means their barriers can never release (``RT006``)."""
        evidence: Tuple[str, ...] = ()
        if self._objects is not None:
            evidence = tuple(self._objects.stranded_evidence())
            self._objects.index.barriers_stranded = len(self._objects.index.pending())
        for case in sorted(self._parked):
            instance, shard = self._parked.pop(case)
            instance.fail_stranded(evidence)
            shard.retire(instance)
            self._on_case_done(instance)

    def _on_case_done(self, instance: CaseInstance) -> None:
        result = instance.result()
        self._results[instance.case] = result
        self.diagnostics.extend(instance.diagnostics)
        if self._obs is not None:
            self._m_cases.labels(status=result.status).inc()
            self._m_transitions.inc(result.transitions)
            self._m_checks.inc(result.checks)
            if result.retries:
                self._m_retries.inc(result.retries)
            self._m_makespan.observe(result.makespan)
        promoted = self._admission.complete()
        if promoted is not None:
            case, outcomes = promoted
            self._activate(case, outcomes)

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> RuntimeMetrics:
        completed = [r for r in self._results.values() if r.status == COMPLETED]
        failed = len(self._results) - len(completed)
        p50, p95 = latency_quantiles(tuple(r.makespan for r in completed))
        snapshot = RuntimeMetrics(
            shards=len(self._store.shards),
            submitted=self._submitted,
            admitted=self._admitted,
            completed=len(completed),
            failed=failed,
            rejected=self._admission.rejected,
            recovered=len(self._recovered),
            in_flight=self._admission.in_flight,
            queue_depth=self._admission.queue_depth,
            peak_in_flight=self._admission.peak_in_flight,
            peak_queue_depth=self._admission.peak_queue_depth,
            retries=sum(r.retries for r in self._results.values()),
            transitions=sum(r.transitions for r in self._results.values()),
            checks=sum(r.checks for r in self._results.values()),
            journal_records=(
                self._journal.records_written if self._journal is not None else 0
            ),
            wall_seconds=self._wall_seconds,
            latency_p50=p50,
            latency_p95=p95,
            shard_assigned=self._store.assigned_counts(),
            objects=(
                self._objects.index.objects() if self._objects is not None else 0
            ),
            barriers_released=(
                self._objects.index.barriers_released
                if self._objects is not None
                else 0
            ),
            barriers_stranded=(
                self._objects.index.barriers_stranded
                if self._objects is not None
                else 0
            ),
            upgraded=self.upgraded,
            drained=self.drained,
            swap_rejected=self.swap_rejected,
        )
        if self._obs is not None:
            snapshot.publish(self._obs.metrics)
        return snapshot

    def object_counters(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Per-object obligation counters (empty without an object spec).

        The crash-recovery tests compare this snapshot verbatim between
        crashed-and-recovered and uninterrupted runs.
        """
        if self._objects is None:
            return {}
        return self._objects.index.counters()

    def report(self) -> RuntimeReport:
        results = dict(self._recovered)
        results.update(self._results)
        return RuntimeReport(
            metrics=self.metrics(),
            results=results,
            diagnostics=tuple(self.diagnostics),
            versions=self.version_map(),
        )

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
