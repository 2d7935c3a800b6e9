"""Multi-process shard workers: scale-out serving over segmented journals.

A :class:`WorkerPool` splits one case load across ``N`` worker processes.
Each worker owns a disjoint partition of the cases (placed by the same
CRC-32 :func:`~repro.runtime.store.shard_index` hash the in-process store
uses, over the object key when co-sharding so an object's cases stay
together) and runs a full single-process
:class:`~repro.runtime.coordinator.Runtime` over them, writing its own
write-ahead journal segment::

    <journal_dir>/manifest.json      # worker count + segment names
    <journal_dir>/journal.0.jsonl    # worker 0's WAL (same record format)
    ...
    <journal_dir>/journal.N-1.jsonl

Cross-shard object barriers survive the process split through a
bulk-synchronous gate exchange: every worker runs until it has no
runnable work (parked cases stay parked instead of failing as stranded),
ships the obligation records it journaled since the last exchange to the
pool, and the pool broadcasts each worker's records to all siblings.
Barrier release times are running maxima over the declared child set
(see :mod:`repro.objects.waitindex`), so the merged index state — and
therefore every case's event sequence — is independent of which worker
applied a record first, of the worker count, and of exchange timing.
Only when a full exchange moves no new record while cases are still
parked does the pool broadcast *finalize*, and every worker fails its
parked cases (``RT006``) against the same converged index state the
single-process runtime would have seen.

Durability across the split: a worker flushes its journal segment before
shipping an outbox (see ``Runtime.take_gate_outbox``), so any record a
sibling acted on is durable on the shard that owns it.  Recovery reads
all segments (in parallel, one worker process per segment), re-executes
in-flight cases with prefix verification exactly like single-process
recovery, and pre-applies the union of all segments' obligation records
so partially satisfied barriers are restored globally.

``crash_after=N`` arms fault injection on *every* worker's journal (the
whole-box power-loss model); pass a mapping ``{worker: N}`` to crash a
subset.  The pool then stops the surviving workers at the next exchange
barrier — their segments end at a group-commit boundary — and re-raises
:class:`~repro.runtime.journal.SimulatedCrash`, mirroring the
single-process contract.

``processes=False`` runs the same bulk-synchronous protocol with all
workers in the calling process — the sequential-recovery baseline the
``BENCH_runtime`` recovery curves compare against, and the fallback
where ``fork`` is unavailable.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Collection, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.lint.diagnostics import Diagnostic
from repro.objects.model import ObjectBinding, ObjectSpec
from repro.runtime.coordinator import Runtime, RuntimeReport
from repro.runtime.journal import JournalState, SimulatedCrash, read_journal
from repro.runtime.metrics import RuntimeMetrics, latency_quantiles
from repro.runtime.program import ConstraintProgram
from repro.runtime.retry import RetryPolicies
from repro.runtime.store import shard_index

if TYPE_CHECKING:
    from repro.deploy.migrate import PoolSwap

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "dscweaver-worker-journal/1"


class WorkerPoolError(ReproError):
    """Pool misconfiguration or a broken segmented-journal directory."""


def segment_name(worker: int) -> str:
    return "journal.%d.jsonl" % worker


def worker_of(case: str, binding: Optional[ObjectBinding], workers: int,
              co_shard: bool = True) -> int:
    """The worker owning ``case`` — the store's placement hash, verbatim,
    so a case lands on the same worker across restarts and recovery."""
    key = (
        binding.object_key
        if binding is not None and co_shard
        else case
    )
    return shard_index(key, workers)


def write_manifest(journal_dir: str, workers: int, co_shard: bool,
                   flush_every: int) -> str:
    """Write ``manifest.json`` describing the segmented journal layout."""
    payload = {
        "format": MANIFEST_FORMAT,
        "workers": workers,
        "journals": [segment_name(i) for i in range(workers)],
        "co_shard": co_shard,
        "flush_every": flush_every,
    }
    path = os.path.join(journal_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_manifest(journal_dir: str) -> Dict[str, Any]:
    path = os.path.join(journal_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise WorkerPoolError("no %s in %r" % (MANIFEST_NAME, journal_dir))
    except ValueError as error:
        raise WorkerPoolError("malformed manifest in %r: %s" % (journal_dir, error))
    if payload.get("format") != MANIFEST_FORMAT:
        raise WorkerPoolError(
            "unsupported manifest format %r" % payload.get("format")
        )
    return payload


class _ShardWorker:
    """The per-worker state machine; identical in-process and forked.

    Commands (one reply each)::

        ("scan",)                      -> ("meta", bindings, records,
                                           cases, begun)
        ("start", plans, bindings,
         foreign_b, foreign_r,
         swap_now)                     -> ("round", blocked, outbox, paused)
        ("gates", records)             -> ("round", blocked, outbox, paused)
        ("finalize",)                  -> ("round", blocked, outbox, paused)
        ("swap",)                      -> ("round", blocked, outbox, paused)
        ("finish",)                    -> ("done", results, diagnostics,
                                           metrics, counters, versions)
        ("stop",)                      -> ("stopped",)

    ``paused`` is True while an armed hot swap has not been applied yet:
    the worker stopped at the scheduling barrier once its local pause
    target was reached and waits for the pool to broadcast ``("swap",)``,
    so all workers flip versions in the same exchange round.  A
    :class:`SimulatedCrash` during any run (including the swap itself)
    turns the reply into ``("crashed", records_written)``; the worker
    then only accepts ``("stop",)``.
    """

    def __init__(self, program: ConstraintProgram, runtime_kwargs: Dict[str, Any],
                 journal_path: Optional[str], crash_after: Optional[int],
                 deploy: Optional[PoolSwap], recovering: bool = False) -> None:
        self._program = program
        self._runtime_kwargs = runtime_kwargs
        self._journal_path = journal_path
        self._crash_after = crash_after
        #: armed hot swap, or None; set before any fork, so worker
        #: processes inherit the compiled old/new programs by memory.
        self._deploy = deploy
        self._recovering = recovering
        self._runtime: Optional[Runtime] = None
        self._state: Optional[JournalState] = None  # parsed in recover mode

    def handle(self, command: Tuple) -> Tuple:
        kind = command[0]
        if kind == "scan":
            return self._scan()
        if kind == "start":
            _, plans, bindings, foreign_bindings, foreign_records, swap_now = command
            return self._start(
                plans, bindings, foreign_bindings, foreign_records, swap_now
            )
        if kind == "gates":
            return self._run(apply_records=command[1])
        if kind == "finalize":
            return self._run(finalize=True)
        if kind == "swap":
            return self._swap()
        if kind == "finish":
            return self._finish()
        if kind == "stop":
            if self._runtime is not None:
                self._runtime.close()
            return ("stopped",)
        raise WorkerPoolError("unknown worker command %r" % (kind,))

    # -- recovery scan --------------------------------------------------------

    def _scan(self) -> Tuple:
        """Parse this worker's journal segment; report what other workers
        need — admit bindings (index seeding), obligation records and the
        journaled case ids (so the pool can resubmit only unknown cases)."""
        assert self._journal_path is not None
        self._state = read_journal(self._journal_path)
        bindings = {
            journaled.case: dict(journaled.binding)
            for journaled in self._state.cases.values()
            if journaled.binding is not None
        }
        deploy = self._deploy
        begun = self._state.pending_deploy() is not None or (
            deploy is not None
            and self._state.current_version() >= deploy.new.version
        )
        return (
            "meta",
            bindings,
            [dict(r) for r in self._state.objects],
            sorted(self._state.cases),
            begun,
        )

    # -- rounds ---------------------------------------------------------------

    def _build(self) -> Runtime:
        if self._recovering:
            # Recovery trusts the journal for this segment's serving version.
            assert self._journal_path is not None
            return Runtime.recover(
                self._journal_path,
                self._program,
                state=self._state,
                **self._runtime_kwargs,
            )
        kwargs = self._runtime_kwargs
        if self._deploy is not None:
            kwargs = dict(kwargs, version=self._deploy.old.version)
        return Runtime(
            self._program,
            journal_path=self._journal_path,
            crash_after=self._crash_after,
            **kwargs,
        )

    def _start(self, plans, bindings, foreign_bindings, foreign_records,
               swap_now: bool = False) -> Tuple:
        try:
            self._runtime = self._build()
            if self._recovering and self._deploy is not None:
                # Any sibling segment with a ``begin`` means the crashed run
                # was mid-swap, so every worker converges before any case
                # resumes (see PoolSwap.converge).
                assert self._state is not None
                self._deploy.converge(self._runtime, self._state, swap_now)
            self._runtime.seed_foreign_bindings(
                {
                    case: ObjectBinding.from_dict(payload)
                    for case, payload in foreign_bindings.items()
                }
            )
            self._runtime.apply_foreign_gates(foreign_records)
            if plans:
                self._runtime.submit_batch(
                    plans,
                    bindings={
                        case: ObjectBinding.from_dict(payload)
                        for case, payload in bindings.items()
                    },
                )
            return self._round()
        except SimulatedCrash as crash:
            return ("crashed", crash.records_written)

    def _run(self, apply_records=None, finalize: bool = False) -> Tuple:
        runtime = self._runtime
        assert runtime is not None
        try:
            if apply_records:
                runtime.apply_foreign_gates(apply_records)
            if finalize:
                runtime.finalize_stranded()
            return self._round()
        except SimulatedCrash as crash:
            return ("crashed", crash.records_written)

    def _swap(self) -> Tuple:
        """Apply the armed hot swap at the pool's exchange barrier."""
        deploy = self._deploy
        runtime = self._runtime
        assert deploy is not None and runtime is not None
        try:
            if deploy.armed(runtime):
                deploy.apply(runtime)
            return self._round()
        except SimulatedCrash as crash:
            return ("crashed", crash.records_written)

    def _round(self) -> Tuple:
        runtime = self._runtime
        assert runtime is not None
        deploy = self._deploy
        if deploy is not None and deploy.armed(runtime):
            # Pause at the scheduling barrier once the local target is
            # reached (or the store drains) and wait for the pool to
            # broadcast ("swap",).
            runtime.run_until_completed(deploy.after)
            return ("round", False, runtime.take_gate_outbox(), True)
        blocked = runtime.run_until_blocked()
        return ("round", blocked, runtime.take_gate_outbox(), False)

    # -- completion -----------------------------------------------------------

    def _finish(self) -> Tuple:
        runtime = self._runtime
        assert runtime is not None
        report = runtime.report()
        runtime.close()
        return (
            "done",
            report.results,
            list(report.diagnostics),
            report.metrics,
            runtime.object_counters(),
            runtime.version_map(),
        )


def _forked_main(conn, worker: _ShardWorker) -> None:
    """Child-process loop: serve commands over the pipe until told to stop."""
    try:
        while True:
            command = conn.recv()
            reply = worker.handle(command)
            conn.send(reply)
            if command[0] in ("finish", "stop"):
                break
    except EOFError:  # parent died; nothing sensible left to do
        pass
    finally:
        conn.close()


class _LocalHandle:
    """In-process worker with the same send/recv surface as a fork."""

    def __init__(self, worker: _ShardWorker) -> None:
        self._worker = worker
        self._reply: Optional[Tuple] = None

    def send(self, command: Tuple) -> None:
        self._reply = self._worker.handle(command)

    def recv(self) -> Tuple:
        reply = self._reply
        assert reply is not None, "recv before send"
        self._reply = None
        return reply

    def join(self) -> None:  # symmetry with _ForkedHandle
        pass


class _ForkedHandle:
    """One worker process plus the parent end of its pipe."""

    def __init__(self, context, worker: _ShardWorker) -> None:
        parent_conn, child_conn = context.Pipe()
        self._conn = parent_conn
        self._process = context.Process(
            target=_forked_main, args=(child_conn, worker), daemon=True
        )
        self._process.start()
        child_conn.close()

    def send(self, command: Tuple) -> None:
        self._conn.send(command)

    def recv(self) -> Tuple:
        return self._conn.recv()

    def join(self) -> None:
        self._process.join(timeout=60)
        self._conn.close()


class WorkerPool:
    """Serve (or recover) one case load across N shard worker processes.

    One-shot: :meth:`serve` (or the :meth:`recover` classmethod) drives
    the whole load to completion, merges the per-worker reports and shuts
    the workers down.  Admission bounds are unsupported across workers —
    the pool serves everything submitted.

    Parameters mirror :class:`~repro.runtime.coordinator.Runtime` where
    they share a name; ``workers`` is the process count, ``journal_dir``
    the segmented-journal directory (``None`` serves without a WAL) and
    ``processes=False`` keeps every worker in the calling process.
    """

    def __init__(
        self,
        program: ConstraintProgram,
        workers: int = 2,
        journal_dir: Optional[str] = None,
        objects: Optional[ObjectSpec] = None,
        co_shard: bool = True,
        flush_every: int = 1,
        crash_after: Optional[object] = None,
        shards_per_worker: int = 2,
        batch: int = 8,
        seed: int = 0,
        policies: Optional[RetryPolicies] = None,
        processes: bool = True,
        deploy: Optional[PoolSwap] = None,
    ) -> None:
        if workers < 1:
            raise WorkerPoolError("workers must be at least 1")
        if crash_after is not None and journal_dir is None:
            raise WorkerPoolError("crash_after requires journal_dir")
        if deploy is not None:
            if journal_dir is None:
                raise WorkerPoolError("hot swap requires journal_dir")
            if objects:
                raise WorkerPoolError(
                    "hot swap is not supported for object-centric runs"
                )
        self._program = program
        self._workers = workers
        self._journal_dir = journal_dir
        self._crash_after = crash_after
        self._processes = processes
        self._deploy = deploy
        #: keyword arguments of every worker's Runtime.
        self._runtime_kwargs: Dict[str, Any] = dict(
            shards=shards_per_worker,
            batch=batch,
            flush_every=flush_every,
            co_shard=co_shard,
            seed=seed,
            policies=policies,
            objects=objects,
            external_gates=True,
        )
        if deploy is not None:
            self._runtime_kwargs["programs"] = deploy.programs()

    # -- public one-shot entry points ----------------------------------------

    def serve(
        self,
        plans: Mapping[str, Mapping[str, str]],
        bindings: Optional[Mapping[str, ObjectBinding]] = None,
    ) -> RuntimeReport:
        """Partition ``plans`` over the workers and drive them to completion."""
        bindings = dict(bindings or {})
        if self._journal_dir is not None:
            os.makedirs(self._journal_dir, exist_ok=True)
            write_manifest(
                self._journal_dir,
                self._workers,
                self._runtime_kwargs["co_shard"],
                self._runtime_kwargs["flush_every"],
            )
        placed = self._place(plans, bindings)
        all_bindings = {
            case: binding.to_dict() for case, binding in bindings.items()
        }
        handles = self._spawn(recovering=False)
        starts = [
            (
                "start",
                worker_plans,
                worker_bindings,
                {
                    case: payload
                    for case, payload in all_bindings.items()
                    if case not in worker_bindings
                },
                [],
                False,
            )
            for worker_plans, worker_bindings in placed
        ]
        return self._drive(handles, starts)

    @classmethod
    def recover(
        cls,
        journal_dir: str,
        program: ConstraintProgram,
        objects: Optional[ObjectSpec] = None,
        processes: bool = True,
        plans: Optional[Mapping[str, Mapping[str, str]]] = None,
        bindings: Optional[Mapping[str, ObjectBinding]] = None,
        **kwargs,
    ) -> RuntimeReport:
        """Recover a crashed segmented-journal run and drive it to completion.

        Every worker parses its own segment (in parallel under
        ``processes=True``); the pool then broadcasts each segment's
        admit bindings and obligation records to the siblings before any
        case resumes, so the rebuilt wait indexes converge on the same
        global state single-process recovery would compute.  ``plans``
        optionally resubmits a case load: cases already in any journal
        segment are skipped, the rest are placed on their hash worker
        and served alongside the recovered ones.
        """
        manifest = read_manifest(journal_dir)
        pool = cls(
            program,
            workers=int(manifest["workers"]),
            journal_dir=journal_dir,
            objects=objects,
            co_shard=bool(manifest.get("co_shard", True)),
            flush_every=int(manifest.get("flush_every", 1)),
            processes=processes,
            **kwargs,
        )
        handles = pool._spawn(recovering=True)
        for handle in handles:
            handle.send(("scan",))
        metas = [handle.recv() for handle in handles]
        all_bindings: List[Dict[str, Dict[str, Any]]] = []
        all_records: List[List[Dict[str, Any]]] = []
        known: set = set()
        any_begun = False
        for reply in metas:
            if reply[0] != "meta":
                raise WorkerPoolError("unexpected scan reply %r" % (reply[0],))
            all_bindings.append(reply[1])
            all_records.append(reply[2])
            known.update(reply[3])
            any_begun = any_begun or bool(reply[4])
        placed = pool._place(plans or {}, bindings or {}, known)
        fresh_all: Dict[str, Dict[str, Any]] = {}
        for _plans, worker_bindings in placed:
            fresh_all.update(worker_bindings)
        starts = []
        for index, (worker_plans, worker_bindings) in enumerate(placed):
            foreign_bindings: Dict[str, Dict[str, Any]] = {}
            foreign_records: List[Dict[str, Any]] = []
            for other in range(pool._workers):
                if other == index:
                    continue
                foreign_bindings.update(all_bindings[other])
                foreign_records.extend(all_records[other])
            for case, payload in fresh_all.items():
                if case not in worker_bindings:
                    foreign_bindings[case] = payload
            starts.append(
                (
                    "start",
                    worker_plans,
                    worker_bindings,
                    foreign_bindings,
                    foreign_records,
                    # A crash mid-swap leaves some segments without their
                    # ``begin``: if any sibling begun, those workers swap
                    # at start so recovery converges on one version map.
                    any_begun,
                )
            )
        return pool._drive(handles, starts)

    # -- the bulk-synchronous exchange ----------------------------------------

    def _place(
        self,
        plans: Mapping[str, Mapping[str, str]],
        bindings: Mapping[str, ObjectBinding],
        known: Collection[str] = (),
    ) -> List[Tuple[Dict[str, Dict[str, str]], Dict[str, Dict[str, Any]]]]:
        """Per worker, the ``(plans, binding payloads)`` of the cases it owns;
        cases in ``known`` (already journaled) are skipped."""
        placed: List[Tuple[Dict[str, Dict[str, str]], Dict[str, Dict[str, Any]]]] = [
            ({}, {}) for _ in range(self._workers)
        ]
        for case, outcomes in plans.items():
            if case in known:
                continue
            binding = bindings.get(case)
            worker_plans, worker_bindings = placed[
                worker_of(case, binding, self._workers, self._runtime_kwargs["co_shard"])
            ]
            worker_plans[case] = dict(outcomes)
            if binding is not None:
                worker_bindings[case] = binding.to_dict()
        return placed

    def _spawn(self, recovering: bool) -> List:
        workers = [
            _ShardWorker(
                self._program,
                self._runtime_kwargs,
                (
                    os.path.join(self._journal_dir, segment_name(index))
                    if self._journal_dir is not None
                    else None
                ),
                self._crash_for(index, recovering),
                self._deploy,
                recovering=recovering,
            )
            for index in range(self._workers)
        ]
        if not self._processes:
            return [_LocalHandle(worker) for worker in workers]
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            return [_LocalHandle(worker) for worker in workers]
        return [_ForkedHandle(context, worker) for worker in workers]

    def _crash_for(self, index: int, recovering: bool) -> Optional[int]:
        if recovering or self._crash_after is None:
            return None
        if isinstance(self._crash_after, Mapping):
            value = self._crash_after.get(index)
            return int(value) if value is not None else None
        return int(self._crash_after)

    def _drive(self, handles: List, commands: List[Tuple]) -> RuntimeReport:
        """Run exchange rounds until quiescent, then merge worker reports."""
        import time as _time

        started = _time.perf_counter()
        finalized = False
        while True:
            for handle, command in zip(handles, commands):
                handle.send(command)
            replies = [handle.recv() for handle in handles]
            crashed = [reply for reply in replies if reply[0] == "crashed"]
            if crashed:
                self._abort(handles, replies)
                raise SimulatedCrash(max(reply[1] for reply in crashed))
            if any(len(reply) > 3 and reply[3] for reply in replies):
                # Every worker paused at the scheduling barrier with its
                # armed swap (hot swap excludes objects, so outboxes are
                # empty): flip all workers in this one exchange round.
                commands = [("swap",) for _ in handles]
                continue
            blocked = [index for index, reply in enumerate(replies) if reply[1]]
            outboxes = [reply[2] for reply in replies]
            if any(outboxes):
                # Records moved: broadcast each worker's records to every
                # sibling (index convergence), then run another round.
                finalized = False
                commands = []
                for index in range(len(handles)):
                    foreign: List[Dict[str, Any]] = []
                    for other, outbox in enumerate(outboxes):
                        if other != index:
                            foreign.extend(outbox)
                    commands.append(("gates", foreign))
                continue
            if blocked and not finalized:
                # Global quiescence with parked cases: no worker can make
                # gate progress, so the barriers are stranded everywhere.
                finalized = True
                commands = [("finalize",) for _ in handles]
                continue
            break
        for handle in handles:
            handle.send(("finish",))
        dones = [handle.recv() for handle in handles]
        for handle in handles:
            handle.join()
        wall = _time.perf_counter() - started
        return self._merge(dones, wall)

    def _abort(self, handles: List, replies: List[Tuple]) -> None:
        """A worker crashed: stop every worker at the exchange barrier.

        Survivors flush and close their journal segments (a consistent
        group-commit prefix); the crashed worker's journal is already
        closed, so its stop is a plain shutdown handshake.
        """
        for handle in handles:
            handle.send(("stop",))
        for handle in handles:
            handle.recv()
        for handle in handles:
            handle.join()

    def _merge(self, dones: List[Tuple], wall: float) -> RuntimeReport:
        results: Dict[str, Any] = {}
        diagnostics: List[Diagnostic] = []
        per_worker_metrics: List[RuntimeMetrics] = []
        self._counters: List[Dict] = []
        self._version_map: Dict[str, int] = {}
        for reply in dones:
            if reply[0] != "done":
                raise WorkerPoolError("unexpected finish reply %r" % (reply[0],))
            _, worker_results, worker_diags, worker_metrics, counters, versions = reply
            results.update(worker_results)
            diagnostics.extend(worker_diags)
            per_worker_metrics.append(worker_metrics)
            self._counters.append(counters)
            self._version_map.update(versions)
        from repro.runtime.journal import COMPLETED

        makespans = tuple(
            result.makespan
            for result in results.values()
            if result.status == COMPLETED
        )
        p50, p95 = latency_quantiles(makespans)
        shard_assigned: Tuple[int, ...] = ()
        for metrics in per_worker_metrics:
            shard_assigned += metrics.shard_assigned
        merged = RuntimeMetrics(
            shards=sum(m.shards for m in per_worker_metrics),
            submitted=sum(m.submitted for m in per_worker_metrics),
            admitted=sum(m.admitted for m in per_worker_metrics),
            completed=sum(m.completed for m in per_worker_metrics),
            failed=sum(m.failed for m in per_worker_metrics),
            rejected=sum(m.rejected for m in per_worker_metrics),
            recovered=sum(m.recovered for m in per_worker_metrics),
            in_flight=sum(m.in_flight for m in per_worker_metrics),
            queue_depth=sum(m.queue_depth for m in per_worker_metrics),
            peak_in_flight=sum(m.peak_in_flight for m in per_worker_metrics),
            peak_queue_depth=sum(m.peak_queue_depth for m in per_worker_metrics),
            retries=sum(m.retries for m in per_worker_metrics),
            transitions=sum(m.transitions for m in per_worker_metrics),
            checks=sum(m.checks for m in per_worker_metrics),
            journal_records=sum(m.journal_records for m in per_worker_metrics),
            wall_seconds=wall,
            latency_p50=p50,
            latency_p95=p95,
            shard_assigned=shard_assigned,
            # Indexes converge through the exchange, so these agree on
            # every worker that saw the whole run; max covers workers
            # that never parked (and so never counted stranded barriers).
            objects=max(m.objects for m in per_worker_metrics),
            barriers_released=max(m.barriers_released for m in per_worker_metrics),
            barriers_stranded=max(m.barriers_stranded for m in per_worker_metrics),
            workers=self._workers,
            upgraded=sum(m.upgraded for m in per_worker_metrics),
            drained=sum(m.drained for m in per_worker_metrics),
            swap_rejected=sum(m.swap_rejected for m in per_worker_metrics),
        )
        return RuntimeReport(
            metrics=merged,
            results=results,
            diagnostics=tuple(diagnostics),
            versions=dict(self._version_map),
        )

    def object_counters(self) -> Dict:
        """Converged per-object counters (worker 0's view) of the last run."""
        counters = getattr(self, "_counters", None)
        return counters[0] if counters else {}

    def version_map(self) -> Dict[str, int]:
        """Merged case → program-version assignments of the last run."""
        return dict(getattr(self, "_version_map", {}) or {})
