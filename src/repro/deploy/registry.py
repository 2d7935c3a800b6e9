"""Versioned constraint programs and incremental re-minimization.

A :class:`ProgramRegistry` owns the full compiled surface of every
deployed version of one process's synchronization constraints: the
declared (pre-minimization) set, the order-dependent minimal set, the
serving :class:`~repro.runtime.program.ConstraintProgram` and the
:class:`~repro.conformance.monitor.MonitorProgram` the migration engine
replays journaled prefixes against.

:meth:`ProgramRegistry.redeploy` turns an edit batch ``(added, removed)``
into the next version *without* minimizing from scratch: the registry
keeps the :class:`~repro.core.session.MinimizationSession` that produced
the current minimal set alive and calls
:meth:`~repro.core.session.MinimizationSession.rebase`, which replays the
previous pass's per-candidate decisions outside the edit's dependency
region and re-checks only inside it.  The result is bit-identical to a
cold ``minimize_fast`` on the edited declared set (pinned by a Hypothesis
differential in ``tests/test_session_rebase.py``) at a fraction of the
cost (``benchmarks/bench_deploy.py``).  Cyclic edited sets raise before
any state changes.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.closure import Semantics
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.session import MinimizationSession
from repro.model.process import BusinessProcess
from repro.obs import Observability
from repro.runtime.program import ConstraintProgram, compile_program


@dataclass(frozen=True)
class ProgramVersion:
    """One deployed version: the sets it was compiled from and the targets."""

    version: int
    declared: SynchronizationConstraintSet
    minimal: SynchronizationConstraintSet
    program: ConstraintProgram
    monitor: object  # MonitorProgram (kept untyped to avoid a hard import)


@dataclass(frozen=True)
class RedeployResult:
    """What one :meth:`ProgramRegistry.redeploy` produced."""

    version: ProgramVersion
    #: wall-clock seconds spent re-minimizing (the session rebase).
    minimize_seconds: float
    added: Tuple[Constraint, ...]
    removed: Tuple[Constraint, ...]


def load_edits(path: str) -> Tuple[Tuple[Constraint, ...], Tuple[Constraint, ...]]:
    """Parse an edits file: ``{"add": [{...}], "remove": [{...}]}``.

    Each entry is ``{"source": ..., "target": ..., "condition": ...}``
    with ``condition`` optional (unconditional edge when omitted).
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("edits file must hold a JSON object, got %s" % type(payload).__name__)

    def parse(entries: object, key: str) -> Tuple[Constraint, ...]:
        if not isinstance(entries, list):
            raise ValueError("edits file %r key must hold a list" % key)
        constraints = []
        for entry in entries:
            if not isinstance(entry, dict) or "source" not in entry or "target" not in entry:
                raise ValueError(
                    "each %r entry needs 'source' and 'target': %r" % (key, entry)
                )
            condition = entry.get("condition")
            constraints.append(
                Constraint(
                    str(entry["source"]),
                    str(entry["target"]),
                    None if condition is None else str(condition),
                )
            )
        return tuple(constraints)

    return parse(payload.get("add", []), "add"), parse(payload.get("remove", []), "remove")


class ProgramRegistry:
    """Version map ``vN -> ProgramVersion`` plus the live rebase session."""

    def __init__(
        self,
        process: BusinessProcess,
        declared: SynchronizationConstraintSet,
        semantics: Semantics = Semantics.GUARD_AWARE,
        fine_grained: Tuple = (),
        exclusives: Tuple = (),
        dependencies: object = None,
        bridged: Tuple = (),
        obs: Optional[Observability] = None,
    ) -> None:
        if not declared.is_activity_set:
            raise ValueError(
                "the registry deploys activity constraint sets; run service "
                "dependency translation first"
            )
        self.process = process
        self.semantics = semantics
        self._fine_grained = tuple(fine_grained)
        self._exclusives = tuple(exclusives)
        self._dependencies = dependencies
        self._bridged = tuple(bridged)
        self._obs = obs
        self._versions: Dict[int, ProgramVersion] = {}
        self.current_version = 0

        started = _time.perf_counter()
        self._session = MinimizationSession.minimized(declared, semantics)
        self._publish(declared, self._session.to_constraint_set())
        self.base_minimize_seconds = _time.perf_counter() - started

    @classmethod
    def from_weave(cls, result, obs: Optional[Observability] = None) -> "ProgramRegistry":
        """Seed a registry from a :class:`~repro.core.pipeline.WeaveResult`.

        Version 1 is the weave's translated declared set minimized under
        the weave's semantics — the same sets ``program_from_weave``
        compiles, so a registry-served v1 and a plain serve agree.
        """
        return cls(
            result.process,
            result.asc,
            semantics=result.semantics,
            fine_grained=tuple(result.fine_grained),
            exclusives=tuple(result.exclusives),
            dependencies=result.dependencies,
            bridged=tuple(result.translation.bridged),
            obs=obs,
        )

    # -- lookup ---------------------------------------------------------------

    @property
    def current(self) -> ProgramVersion:
        return self._versions[self.current_version]

    def version(self, number: int) -> ProgramVersion:
        try:
            return self._versions[number]
        except KeyError:
            raise KeyError(
                "no deployed version %d (have: %s)"
                % (number, ", ".join(str(v) for v in sorted(self._versions)))
            ) from None

    def versions(self) -> Tuple[int, ...]:
        return tuple(sorted(self._versions))

    def programs(self) -> Dict[int, ConstraintProgram]:
        """``version -> serving program`` (what ``Runtime(programs=...)`` takes)."""
        return {number: entry.program for number, entry in self._versions.items()}

    # -- redeploy -------------------------------------------------------------

    def redeploy(
        self,
        added: Tuple[Constraint, ...] = (),
        removed: Tuple[Constraint, ...] = (),
    ) -> RedeployResult:
        """Re-minimize the edited declared set and publish the next version.

        The live session's :meth:`rebase` does the re-minimization.
        Invalid edits (unknown activities, unknown removals, introduced
        cycles) raise ``ValueError`` before any registry or session state
        changes.
        """
        added = tuple(added)
        removed = tuple(removed)
        span = (
            self._obs.tracer.span(
                "deploy.redeploy",
                added=len(added),
                removed=len(removed),
            )
            if self._obs is not None
            else None
        )
        if span is not None:
            span.__enter__()
        started = _time.perf_counter()
        try:
            declared = self._edited_declared(added, removed)
            minimal = self._session.rebase(added=added, removed=removed)
        finally:
            elapsed = _time.perf_counter() - started
            if span is not None:
                span.set(seconds=elapsed)
                span.__exit__(None, None, None)
        entry = self._publish(declared, minimal)
        if self._obs is not None:
            self._obs.metrics.histogram(
                "repro_deploy_rebase_seconds",
                "Wall-clock cost of one redeploy re-minimization.",
            ).observe(elapsed)
            self._obs.metrics.counter(
                "repro_deploy_redeploys_total",
                "Published program versions beyond the base deployment.",
            ).inc()
        return RedeployResult(
            version=entry,
            minimize_seconds=elapsed,
            added=added,
            removed=removed,
        )

    # -- internals ------------------------------------------------------------

    def _edited_declared(
        self,
        added: Tuple[Constraint, ...],
        removed: Tuple[Constraint, ...],
    ) -> SynchronizationConstraintSet:
        """The edited declared set under rebase's exact edit semantics."""
        declared = self._versions[self.current_version].declared if self._versions else None
        if declared is None:
            raise RuntimeError("registry has no base version")
        removed_keys = {(c.source, c.target, c.condition) for c in removed}
        declared_keys = {
            (c.source, c.target, c.condition) for c in declared.constraints
        }
        unknown = removed_keys - declared_keys
        if unknown:
            raise ValueError(
                "cannot remove undeclared constraint(s): %s"
                % ", ".join(sorted("%s->%s" % (s, t) for s, t, _ in unknown))
            )
        known = set(declared.nodes)
        for constraint in added:
            if constraint.source not in known or constraint.target not in known:
                raise ValueError(
                    "added constraint %s -> %s references an unknown activity"
                    % (constraint.source, constraint.target)
                )
        survivors = [
            c
            for c in declared.constraints
            if (c.source, c.target, c.condition) not in removed_keys
        ]
        additions = []
        seen = set(removed_keys)
        surviving_keys = {(c.source, c.target, c.condition) for c in survivors}
        for constraint in added:
            key = (constraint.source, constraint.target, constraint.condition)
            if key in surviving_keys or key in {(
                c.source, c.target, c.condition) for c in additions}:
                continue
            additions.append(constraint)
        return declared.replace_constraints(survivors + additions)

    def _publish(
        self,
        declared: SynchronizationConstraintSet,
        minimal: SynchronizationConstraintSet,
    ) -> ProgramVersion:
        from repro.conformance.monitor import categorize_constraints, compile_monitor

        number = self.current_version + 1
        entry = ProgramVersion(
            version=number,
            declared=declared,
            minimal=minimal,
            program=compile_program(
                self.process,
                minimal,
                fine_grained=self._fine_grained,
                exclusives=self._exclusives,
            ),
            monitor=compile_monitor(
                minimal,
                fine_grained=self._fine_grained,
                exclusives=self._exclusives,
                categories=categorize_constraints(
                    minimal,
                    dependencies=self._dependencies,
                    bridged=self._bridged,
                ),
            ),
        )
        self._versions[number] = entry
        self.current_version = number
        return entry
