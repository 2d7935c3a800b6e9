"""The DSCWeaver pipeline: specification -> optimization -> validation.

This is the vertical flow of the paper: dependencies of all four dimensions
are merged into a uniform DSCL representation (Section 4.2), service
dependencies are translated onto internal activities (Section 4.3), the
result is minimized (Section 4.4), validated by Petri-net analysis, and
finally emitted as BPEL for execution.

:class:`DSCWeaver` exposes the whole flow; :class:`WeaveResult` retains
every intermediate artifact so each paper figure can be inspected:

* ``result.dependencies``  -> Table 1
* ``result.merged``        -> Figure 7
* ``result.translation``   -> Figure 8 (``.bridged`` = the bold edges)
* ``result.minimal``       -> Figure 9
* ``result.report``        -> Table 2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.analysis.graphs import find_cycle
from repro.core.closure import Semantics
from repro.obs.trace import NOOP_SPAN as _NOOP

if TYPE_CHECKING:
    from repro.obs import Observability
from repro.core.constraints import SynchronizationConstraintSet
from repro.core.kernel import KernelStats
from repro.core.minimize import minimize
from repro.core.report import ReductionReport
from repro.core.translation import (
    TranslationResult,
    invoke_bindings_from_process,
    translate_service_dependencies,
)
from repro.deps.controlflow import extract_control_dependencies
from repro.deps.dataflow import extract_data_dependencies
from repro.deps.registry import DependencySet
from repro.deps.servicedeps import extract_service_dependencies
from repro.deps.types import Dependency
from repro.dscl.ast import Exclusive, HappenBefore, Program
from repro.dscl.compiler import compile_dependencies, dependencies_to_program
from repro.errors import CycleError
from repro.model.process import BusinessProcess


def extract_all_dependencies(
    process: BusinessProcess,
    cooperation: Iterable[Dependency] = (),
    extra: Iterable[Dependency] = (),
) -> DependencySet:
    """Automatic extraction of data/control/service dependencies, merged with
    analyst-supplied cooperation dependencies (Section 3.3, Table 1)."""
    dependencies = DependencySet()
    dependencies.extend(extract_data_dependencies(process))
    dependencies.extend(extract_control_dependencies(process))
    dependencies.extend(cooperation)
    dependencies.extend(extract_service_dependencies(process))
    dependencies.extend(extra)
    return dependencies


@dataclass
class WeaveResult:
    """All artifacts of one weave run (see module docstring)."""

    process: BusinessProcess
    dependencies: DependencySet
    program: Program
    merged: SynchronizationConstraintSet
    translation: TranslationResult
    minimal: SynchronizationConstraintSet
    report: ReductionReport
    fine_grained: List[HappenBefore] = field(default_factory=list)
    exclusives: List[Exclusive] = field(default_factory=list)
    semantics: Semantics = Semantics.GUARD_AWARE

    @property
    def asc(self) -> SynchronizationConstraintSet:
        """The translated (pre-minimization) activity constraint set."""
        return self.translation.asc

    def to_bpel(self) -> str:
        """Emit the minimal set as BPEL-style XML (lazy import)."""
        from repro.bpel.emit import emit_bpel

        return emit_bpel(self.process, self.minimal)

    def to_petri_net(self):
        """Translate the minimal set to a workflow Petri net (lazy import)."""
        from repro.petri.from_constraints import constraint_set_to_petri_net

        return constraint_set_to_petri_net(self.minimal)


class DSCWeaver:
    """The weaving engine.

    A synchronization cycle in the merged set raises
    :class:`~repro.errors.CycleError` before optimization — the static
    detection of "infinite synchronization sequences" the paper attributes
    to the design stage.  Static analysis of a result is
    ``run_lint(LintContext.from_weave(result))`` (or ``dscweaver lint``).

    Parameters
    ----------
    semantics:
        Equivalence semantics for minimization (default guard-aware, the
        mode that reproduces the paper's Table 2).
    kernel:
        When true (default), minimization runs on the interned bitset
        kernel with a memoized session
        (:class:`~repro.core.session.MinimizationSession`) and its
        counters are attached to ``WeaveResult.report.kernel_stats``;
        ``False`` selects the reference frozenset path.
    obs:
        Optional :class:`~repro.obs.Observability` bundle: per-phase
        ``weave.*`` spans, per-candidate ``core.try_remove`` timing and
        the ``repro_core_*`` kernel counters.  ``None`` (default) keeps
        the pipeline uninstrumented.
    """

    def __init__(
        self,
        semantics: Semantics = Semantics.GUARD_AWARE,
        kernel: bool = True,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.semantics = semantics
        self.kernel = kernel
        self.obs = obs

    def weave(
        self,
        process: BusinessProcess,
        dependencies: Optional[DependencySet] = None,
        cooperation: Iterable[Dependency] = (),
    ) -> WeaveResult:
        """Run the full pipeline on ``process``.

        Either pass a pre-built ``dependencies`` set (it is validated
        against the process) or let the weaver extract data/control/service
        dependencies automatically and merge in ``cooperation``.
        """
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        if dependencies is None:
            with tracer.span("weave.extract") if tracer else _NOOP:
                dependencies = extract_all_dependencies(process, cooperation)
        with tracer.span("weave.compile") if tracer else _NOOP:
            compiled = compile_dependencies(process, dependencies)
        merged = compiled.sc

        cycle = find_cycle(merged.as_graph())
        if cycle is not None:
            raise CycleError([str(node) for node in cycle])

        with tracer.span("weave.translate") if tracer else _NOOP:
            translation = translate_service_dependencies(
                merged, invoke_bindings_from_process(process)
            )
        stats = KernelStats() if self.kernel else None
        with tracer.span("weave.minimize") if tracer else _NOOP:
            minimal = minimize(
                translation.asc,
                semantics=self.semantics,
                kernel=self.kernel,
                stats=stats,
                obs=obs,
            )
        report = ReductionReport.from_counts(
            dependencies,
            merged=len(merged),
            translated=len(translation.asc),
            minimal=len(minimal),
        )
        if stats is not None and stats.candidates:
            # candidates == 0 means the kernel never ran (cyclic fallback
            # or an empty set) — no counters to report.
            report = report.with_kernel_stats(stats.as_dict())
        return WeaveResult(
            process=process,
            dependencies=dependencies,
            program=dependencies_to_program(dependencies),
            merged=merged,
            translation=translation,
            minimal=minimal,
            report=report,
            fine_grained=compiled.fine_grained,
            exclusives=compiled.exclusives,
            semantics=self.semantics,
        )


def weave(
    process: BusinessProcess,
    dependencies: Optional[DependencySet] = None,
    cooperation: Iterable[Dependency] = (),
    semantics: Semantics = Semantics.GUARD_AWARE,
) -> WeaveResult:
    """Module-level convenience wrapper around :class:`DSCWeaver`."""
    return DSCWeaver(semantics=semantics).weave(process, dependencies, cooperation)
