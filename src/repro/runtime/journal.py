"""Write-ahead journal for the multi-case runtime, with crash recovery.

The journal is JSON Lines.  Activity-lifecycle records reuse the
:class:`repro.conformance.events.Event` dictionary format verbatim — a
journal stripped of its control records *is* a conformance event log, so
``dscweaver monitor`` and :func:`repro.conformance.replay.replay` consume
it unchanged.  Two control record types frame each case::

    {"rt": "admit",    "case": "case-7", "time": 0.0, "outcomes": {"if_au": "T"}}
    {"case": "case-7", "activity": "recClient_po", "lifecycle": "start", "time": 0.0}
    ...
    {"rt": "complete", "case": "case-7", "time": 9.0, "status": "completed"}

Object-centric runs add two extensions (absent entirely when no object
constraints are declared, keeping plain journals byte-identical):

* admit records may carry an ``"object"`` binding
  (``{"key": "ord-0001", "role": "order", "children": 3}``);
* ``obj`` control records journal cross-case obligation transitions
  *before* the event record that causes them::

    {"rt": "obj", "kind": "satisfy", "case": "ord-0001-item-002",
     "object": "ord-0001", "sync": "all:item.pack_item->order.ship_order",
     "time": 4.0}

  ``kind`` is ``satisfy`` (child finished), ``cancel`` (child skipped) or
  ``once`` (exactly-once firing).  Application is idempotent per
  ``(object, sync, case)``, so recovery pre-applies every journaled
  record and re-execution of the surrounding prefix cannot double-count
  a partially satisfied barrier.

Hot constraint redeploys (:mod:`repro.deploy`) add ``dep`` control
records — again absent entirely from runs that never swap, keeping
plain journals byte-identical.  A swap is framed write-ahead as::

    {"rt": "dep", "kind": "begin",  "from": 1, "to": 2, "time": 4.0}
    {"rt": "dep", "kind": "assign", "case": "case-7", "version": 2,
     "action": "upgrade", "time": 4.0}
    ...one assign per in-flight case...
    {"rt": "dep", "kind": "commit", "version": 2, "time": 4.0}

and admissions after the swap carry the program version in a ``"v"``
field (omitted at version 1).  A ``begin`` without its ``commit`` marks
a crash mid-swap; recovery rolls the swap *forward* deterministically —
the migration decisions are pure functions of the journaled prefixes —
so a crashed-and-recovered run converges to the same version map as an
uninterrupted one.

Every record is flushed before the state transition it describes is
applied (write-ahead), so after a crash the journal is a faithful prefix
of the run.  :func:`read_journal` rebuilds the durable state: which cases
completed (never re-run) and which were in flight, together with each
in-flight case's event prefix and recorded guard outcomes, so the
coordinator can re-execute them deterministically and verify the replayed
prefix record-for-record (mismatches are ``RT003``).  A real crash can
also stop *inside* a record's append: a final line that lacks its newline
and does not parse is such a torn write, which :func:`read_journal` drops
and recovery cuts off the file before appending (``RT007``).

``crash_after=N`` is the fault-injection hook: the journal raises
:class:`SimulatedCrash` immediately after durably writing its N-th
record — the moral equivalent of ``kill -9`` at event N — which the
crash-recovery tests use to prove that an interrupted-then-recovered run
completes exactly the same set of cases as an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.conformance.events import Event
from repro.errors import ReproError

#: ``status`` values of a ``complete`` control record.
COMPLETED = "completed"
FAILED = "failed"


class SimulatedCrash(ReproError):
    """Raised by the fault-injection hook after the N-th journal record."""

    def __init__(self, records_written: int) -> None:
        self.records_written = records_written
        super().__init__(
            "simulated crash after journal record %d" % records_written
        )


class JournalError(ReproError):
    """The journal file is malformed or recovery found an inconsistency."""


class Journal:
    """Append-only JSONL write-ahead journal.

    ``resume=True`` appends to an existing journal (recovery), first ending
    a last line that lost its newline; the default truncates.
    ``crash_after`` arms the fault-injection hook.  ``observe_flush`` is
    the observability hook: when set, it is called with the wall-clock
    seconds each flushed batch took to serialize and flush (the
    coordinator feeds it a ``repro_runtime_journal_flush_seconds``
    histogram); ``None`` keeps the write path clock-free.

    ``flush_every=N`` enables group commit: records are serialized
    immediately but buffered, and the buffer is flushed once N records
    accumulate (plus on :meth:`flush`/:meth:`close`).  The write-ahead
    guarantee then holds at batch granularity — a real crash can lose at
    most the last ``N-1`` *applied-but-buffered* records, whose effects
    recovery re-derives by deterministic re-execution.  ``crash_after``
    stays exact under batching: the buffer is flushed before the simulated
    crash fires, so the journal always holds precisely N records.
    """

    def __init__(
        self,
        path: str,
        resume: bool = False,
        crash_after: Optional[int] = None,
        already_written: int = 0,
        observe_flush: Optional[Callable[[float], None]] = None,
        flush_every: int = 1,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be at least 1")
        self.path = path
        self.records_written = already_written
        self._crash_after = crash_after
        self._observe_flush = observe_flush
        self._flush_every = flush_every
        self._buffer: List[str] = []
        unterminated = False
        if resume and os.path.exists(path) and os.path.getsize(path):
            with open(path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                unterminated = handle.read(1) != b"\n"
        self._handle = open(path, "a" if resume else "w", encoding="utf-8")
        if unterminated:
            # A crash lost only the last record's newline: end that line
            # before appending, or the next record would be glued to it.
            self._handle.write("\n")

    def _write(self, payload: Dict[str, Any]) -> None:
        # Compact separators, no key sorting: every record type is built
        # with a fixed insertion order (Event.to_dict and the control-record
        # constructors below), so the output is still deterministic — just
        # without re-sorting every payload on the hot path.
        self._buffer.append(json.dumps(payload, separators=(",", ":")) + "\n")
        self.records_written += 1
        crash_now = (
            self._crash_after is not None
            and self.records_written >= self._crash_after
        )
        if crash_now or len(self._buffer) >= self._flush_every:
            self.flush()
        if crash_now:
            self.close()
            raise SimulatedCrash(self.records_written)

    def flush(self) -> None:
        """Flush buffered records to disk (group-commit boundary)."""
        if not self._buffer:
            return
        if self._observe_flush is not None:
            started = _time.perf_counter()
            self._handle.write("".join(self._buffer))
            self._buffer.clear()
            self._handle.flush()
            self._observe_flush(_time.perf_counter() - started)
        else:
            self._handle.write("".join(self._buffer))
            self._buffer.clear()
            self._handle.flush()

    def admit(
        self,
        case: str,
        time: float,
        outcomes: Dict[str, str],
        binding: Optional[Dict[str, Any]] = None,
        version: int = 1,
    ) -> None:
        payload: Dict[str, Any] = {
            "rt": "admit",
            "case": case,
            "time": time,
            "outcomes": dict(outcomes),
        }
        if binding is not None:
            payload["object"] = dict(binding)
        if version != 1:
            payload["v"] = version
        self._write(payload)

    def dep_begin(self, from_version: int, to_version: int, time: float) -> None:
        """Open a swap frame (write-ahead: before any migration applies)."""
        self._write(
            {
                "rt": "dep",
                "kind": "begin",
                "from": from_version,
                "to": to_version,
                "time": time,
            }
        )

    def dep_assign(self, case: str, version: int, action: str, time: float) -> None:
        """Journal one case's migration decision before applying it."""
        self._write(
            {
                "rt": "dep",
                "kind": "assign",
                "case": case,
                "version": version,
                "action": action,
                "time": time,
            }
        )

    def dep_commit(self, version: int, time: float) -> None:
        """Close the swap frame: every decision is journaled and applied."""
        self._write({"rt": "dep", "kind": "commit", "version": version, "time": time})

    def object_record(
        self, kind: str, case: str, object_key: str, sync: str, time: float
    ) -> None:
        """Journal one cross-case obligation transition (write-ahead)."""
        self._write(
            {
                "rt": "obj",
                "kind": kind,
                "case": case,
                "object": object_key,
                "sync": sync,
                "time": time,
            }
        )

    def event(self, event: Event) -> None:
        self._write(event.to_dict())

    def complete(
        self, case: str, time: float, status: str, reason: Optional[str] = None
    ) -> None:
        payload: Dict[str, Any] = {
            "rt": "complete",
            "case": case,
            "time": time,
            "status": status,
        }
        if reason:
            payload["reason"] = reason
        self._write(payload)

    def close(self) -> None:
        if not self._handle.closed:
            self.flush()
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


@dataclass
class JournaledCase:
    """Everything the journal knows about one admitted case."""

    case: str
    outcomes: Dict[str, str] = field(default_factory=dict)
    events: List[Event] = field(default_factory=list)
    status: Optional[str] = None  # None while in flight
    completed_at: Optional[float] = None
    reason: Optional[str] = None
    #: object binding payload of the admit record, when present.
    binding: Optional[Dict[str, Any]] = None
    #: program version the case runs under (admit ``"v"`` field, then
    #: overridden by any later ``dep``/``assign`` record).
    version: int = 1
    #: migration action of the last ``assign`` touching the case, if any.
    migration: Optional[str] = None

    @property
    def in_flight(self) -> bool:
        return self.status is None


@dataclass
class JournalState:
    """Parsed journal: admission order, per-case history, record count."""

    cases: Dict[str, JournaledCase] = field(default_factory=dict)
    #: activity events in journal (commit) order, control records stripped —
    #: exactly the multi-case conformance event log of the run so far.
    event_stream: List[Event] = field(default_factory=list)
    #: ``obj`` control records in journal order, for obligation pre-apply.
    objects: List[Dict[str, Any]] = field(default_factory=list)
    #: ``dep`` control records in journal order, for swap roll-forward.
    deploys: List[Dict[str, Any]] = field(default_factory=list)
    records: int = 0
    #: byte length of the complete records when the final line is a torn
    #: write (no trailing newline and unparsable); ``None`` otherwise.
    torn_at: Optional[int] = None
    #: the dropped fragment of a torn final write.
    torn_fragment: str = ""

    def in_flight(self) -> List[JournaledCase]:
        return [case for case in self.cases.values() if case.in_flight]

    def completed(self) -> List[JournaledCase]:
        return [case for case in self.cases.values() if not case.in_flight]

    def version_map(self) -> Dict[str, int]:
        """Program version of every journaled case (admit + assign records)."""
        return {case.case: case.version for case in self.cases.values()}

    def current_version(self) -> int:
        """The serving version: the last committed swap's target, else 1."""
        version = 1
        for record in self.deploys:
            if record.get("kind") == "commit":
                version = int(record["version"])
        return version

    def pending_deploy(self) -> Optional[Dict[str, Any]]:
        """The last ``begin`` record lacking its ``commit`` — a crashed swap."""
        pending: Optional[Dict[str, Any]] = None
        for record in self.deploys:
            kind = record.get("kind")
            if kind == "begin":
                pending = record
            elif kind == "commit":
                pending = None
        return pending


def read_journal(path: str, strict: bool = True) -> JournalState:
    """Parse a journal file back into a :class:`JournalState`.

    ``strict=True`` (the recovery path) treats any inconsistency — a
    case admitted twice, a completion or event for an unadmitted case,
    a repeated activity-lifecycle record — as a :class:`JournalError`,
    because the coordinator's write path can never produce one.

    ``strict=False`` is the *ingestion* path (``dscweaver discover`` /
    ``replay`` on a journal of unknown provenance): re-admissions keep
    the original case, records for unadmitted cases admit the case
    implicitly, and a duplicated ``(case, activity, lifecycle)`` event —
    the write-ahead artifact of a crash between journaling a record and
    applying it, then re-journaling after recovery — is dropped, first
    occurrence wins, so crash/recover journals replay and mine cleanly.

    In both modes a final line that lacks its newline and does not parse
    is a *torn write* — a crash in the middle of appending the record —
    and is dropped: ``state.torn_at`` gives the byte length of the
    complete records before it, which recovery truncates the file back
    to.  An unparsable line followed by further records is corruption,
    not a torn write, and raises :class:`JournalError`.
    """
    state = JournalState()
    seen_events = set()
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as error:
                if raw.endswith("\n"):
                    raise JournalError(
                        "record %d: invalid JSON (%s)" % (number, error)
                    )
                # Only the last line of a file can lack its newline.
                state.torn_fragment = raw
                size = os.fstat(handle.fileno()).st_size
                state.torn_at = size - len(raw.encode("utf-8"))
                break
            state.records += 1
            kind = payload.get("rt")
            if kind == "admit":
                case = str(payload["case"])
                if case in state.cases:
                    if strict:
                        raise JournalError(
                            "record %d: case %r admitted twice" % (number, case)
                        )
                    continue  # re-admission: the original case wins
                binding = payload.get("object")
                state.cases[case] = JournaledCase(
                    case=case,
                    outcomes=dict(payload.get("outcomes") or {}),
                    binding=dict(binding) if binding is not None else None,
                    version=int(payload.get("v", 1)),
                )
            elif kind == "complete":
                case = str(payload["case"])
                journaled = state.cases.get(case)
                if journaled is None:
                    if strict:
                        raise JournalError(
                            "record %d: completion of unknown case %r"
                            % (number, case)
                        )
                    journaled = state.cases[case] = JournaledCase(case=case)
                journaled.status = str(payload["status"])
                journaled.completed_at = float(payload["time"])
                journaled.reason = payload.get("reason")
            elif kind is None:
                try:
                    event = Event.from_dict(payload)
                except (KeyError, TypeError, ValueError) as error:
                    raise JournalError(
                        "record %d: invalid event (%s)" % (number, error)
                    )
                journaled = state.cases.get(event.case)
                if journaled is None:
                    if strict:
                        raise JournalError(
                            "record %d: event for unadmitted case %r"
                            % (number, event.case)
                        )
                    journaled = state.cases[event.case] = JournaledCase(
                        case=event.case
                    )
                key = (event.case, event.activity, event.lifecycle)
                if key in seen_events:
                    if strict:
                        raise JournalError(
                            "record %d: repeated %s of %r in case %r"
                            % (number, event.lifecycle, event.activity, event.case)
                        )
                    continue  # recovery-duplicated record; first wins
                seen_events.add(key)
                journaled.events.append(event)
                state.event_stream.append(event)
            elif kind == "obj":
                # Obligation records are pre-applied by object-aware
                # recovery and harmless to ingestion (application is
                # idempotent, so duplicates from the crash window are
                # fine to keep).
                state.objects.append(dict(payload))
            elif kind == "dep":
                dep_kind = payload.get("kind")
                if dep_kind not in ("begin", "assign", "commit"):
                    if strict:
                        raise JournalError(
                            "record %d: unknown dep record kind %r"
                            % (number, dep_kind)
                        )
                    continue
                if dep_kind == "assign":
                    case = str(payload["case"])
                    journaled = state.cases.get(case)
                    if journaled is None:
                        if strict:
                            raise JournalError(
                                "record %d: version assignment for unknown "
                                "case %r" % (number, case)
                            )
                        continue  # ingestion: stray assigns carry no events
                    journaled.version = int(payload["version"])
                    journaled.migration = payload.get("action")
                state.deploys.append(dict(payload))
            else:
                if strict:
                    raise JournalError(
                        "record %d: unknown control record %r" % (number, kind)
                    )
    return state
