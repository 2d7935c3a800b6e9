"""In-memory span tracing from outside the program.

The benchmark never edits ``src/``: it times a layer by wrapping the
public call into that layer (a module attribute or a class method) for
the duration of a traced request, and restores the original afterwards.

Per span name the :class:`Tracer` keeps a count, the total time and the
self time (duration minus the part covered by nested spans), keyed by
the benchmark phase that was active.  One request's raw spans can be
sampled and written as a Chrome trace.  Forked worker processes inherit
the patches; :meth:`Tracer.dump_child` writes a child's aggregates to a
file the parent folds back in with :meth:`Tracer.collect`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: raw spans kept for the Chrome trace sample.
SAMPLE_LIMIT = 50_000


class Tracer:
    def __init__(self, dump_dir: str) -> None:
        self.phase = "setup"
        #: ``(phase, name) -> [count, total_s, self_s]``
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.sample: Optional[List[Tuple[str, float, float, int]]] = None
        self._stack: List[List[float]] = []
        self._owner = os.getpid()
        self._dump_dir = dump_dir
        self._dumps = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.stats = {}
        self.sample = None
        self._stack.clear()

    def _record(self, name: str, start: float, end: float, child: float) -> None:
        duration = end - start
        entry = self.stats.get((self.phase, name))
        if entry is None:
            entry = self.stats[(self.phase, name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][0] += duration
        if self.sample is not None and len(self.sample) < SAMPLE_LIMIT:
            self.sample.append((name, start, end, len(self._stack)))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(name, start, end, frame[0])

    def wrap(self, name: str, function: Callable) -> Callable:
        stack = self._stack
        record = self._record
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(name, start, end, frame[0])

        return traced

    # -- queries ---------------------------------------------------------------

    def count(self, name: str, phase: Optional[str] = None) -> int:
        return int(self._sum(name, phase, 0))

    def total(self, name: str, phase: Optional[str] = None) -> float:
        return self._sum(name, phase, 1)

    def self_time(self, name: str, phase: Optional[str] = None) -> float:
        return self._sum(name, phase, 2)

    def _sum(self, name: str, phase: Optional[str], column: int) -> float:
        return sum(
            entry[column]
            for (entry_phase, entry_name), entry in self.stats.items()
            if entry_name == name and (phase is None or entry_phase == phase)
        )

    def table(self) -> Dict[str, Dict[str, float]]:
        """``"phase/name" -> {count, total_s, self_s}`` for the result file."""
        return {
            "%s/%s" % key: {"count": entry[0], "total_s": entry[1], "self_s": entry[2]}
            for key, entry in sorted(self.stats.items())
        }

    # -- forked workers ----------------------------------------------------------

    def dump_child(self) -> None:
        """Write a forked child's aggregates for the parent, then reset them."""
        if os.getpid() == self._owner or not self.stats:
            return
        self._dumps += 1
        path = os.path.join(self._dump_dir, "%d-%d.json" % (os.getpid(), self._dumps))
        rows = [[phase, name] + entry for (phase, name), entry in self.stats.items()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
        self.stats = {}

    def collect(self) -> None:
        """Fold every child dump into this (parent) tracer's aggregates."""
        for filename in sorted(os.listdir(self._dump_dir)):
            path = os.path.join(self._dump_dir, filename)
            with open(path, "r", encoding="utf-8") as handle:
                rows = json.load(handle)
            os.remove(path)
            for phase, name, count, total, self_s in rows:
                entry = self.stats.setdefault((phase, name), [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_s

    def write_chrome_trace(self, path: str) -> int:
        """Write the sampled spans in Chrome trace format; returns the count."""
        spans = self.sample or []
        origin = min((start for _, start, _, _ in spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": self._owner,
                "tid": 0,
                "args": {"depth": depth},
            }
            for name, start, end, depth in spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)


def layer_targets(tracer: Tracer):
    """``(owner, attribute, replacement)`` for every layer call a traced
    request wraps."""
    import repro.core.pipeline as pipeline
    import repro.runtime.coordinator as coordinator
    import repro.runtime.instance as instance
    import repro.runtime.journal as journal
    import repro.runtime.workers as workers

    Runtime = coordinator.Runtime
    Journal = journal.Journal
    wrapped = [
        (pipeline, "extract_all_dependencies", "deps.extract"),
        (pipeline, "compile_dependencies", "dscl.compile"),
        (pipeline, "translate_service_dependencies", "core.translate"),
        (pipeline, "minimize", "core.minimize"),
        (Runtime, "submit_batch", "runtime.submit"),
        (Runtime, "run", "runtime.run"),
        (Runtime, "run_until_blocked", "runtime.run"),
        (instance.CaseInstance, "advance", "runtime.advance"),
        (instance, "Event", "emit.event"),
        (Journal, "admit", "journal.write"),
        (Journal, "event", "journal.write"),
        (Journal, "complete", "journal.write"),
        (Journal, "object_record", "journal.write"),
        (Journal, "flush", "journal.flush"),
        (journal, "read_journal", "journal.read"),
        (coordinator, "read_journal", "journal.read"),
        (workers, "read_journal", "journal.read"),
    ]
    # Runtime.recover is a classmethod: wrap the underlying function and
    # re-bind it so ``Runtime.recover(...)`` keeps receiving the class.
    recover = Runtime.__dict__["recover"].__func__
    close = Runtime.__dict__["close"]

    def close_and_dump(self):
        close(self)
        tracer.dump_child()

    return [
        (owner, attribute, tracer.wrap(name, owner.__dict__[attribute]))
        for owner, attribute, name in wrapped
    ] + [
        (Runtime, "recover", classmethod(tracer.wrap("recover.rebuild", recover))),
        (Runtime, "close", close_and_dump),
    ]


@contextmanager
def traced_layers(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer call for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attribute, replacement in layer_targets(tracer):
            saved.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
