"""The compiled per-activity constraint program shared across all cases.

A :class:`ConstraintProgram` is the runtime counterpart of
:class:`repro.conformance.monitor.MonitorProgram`: one immutable, indexed
compilation of a constraint set that *every* concurrent case executes
against.  Compiling once amortizes the indexing cost over thousands of
process instances.  :meth:`ConstraintProgram.masks` lowers it further into
a :class:`MaskProgram` — the dense bitmask form that
:class:`~repro.runtime.instance.CaseInstance` serves from and
:mod:`repro.verify` explores, so both evaluate one set of predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.conditions import Cond, ConditionDomains
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.dscl.ast import Exclusive, HappenBefore
from repro.errors import SchedulingError
from repro.model.activity import ActivityKind, ActivityState
from repro.model.process import BusinessProcess


@dataclass(frozen=True)
class ActivityInfo:
    """The static facts one case needs about one activity."""

    name: str
    duration: float = 0.0
    is_guard: bool = False
    #: ``(service, port)`` the activity invokes, for INVOKE activities.
    invokes: Optional[Tuple[str, str]] = None
    #: service whose callback the activity awaits, for bound RECEIVEs.
    awaits: Optional[str] = None


@dataclass
class ConstraintProgram:
    """One compiled constraint set, shared (read-only) by all cases.

    ``activities`` preserves the constraint set's scheduling order — the
    order the single-case :class:`~repro.scheduler.engine.ConstraintScheduler`
    evaluates pending activities in, which keeps multi-case execution
    bit-for-bit equivalent to single-case simulation.
    """

    process: BusinessProcess
    activities: Tuple[str, ...]
    constraints: Tuple[Constraint, ...]
    guards: Dict[str, FrozenSet[Cond]]
    domains: ConditionDomains
    fine_grained: Tuple[HappenBefore, ...]
    exclusives: Tuple[Exclusive, ...]
    #: derived indexes, built in ``__post_init__``
    info: Dict[str, ActivityInfo] = field(default_factory=dict)
    incoming: Dict[str, Tuple[Constraint, ...]] = field(default_factory=dict)
    fine_on_start: Dict[str, Tuple[HappenBefore, ...]] = field(default_factory=dict)
    fine_on_finish: Dict[str, Tuple[HappenBefore, ...]] = field(default_factory=dict)
    exclusive_partners: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        incoming: Dict[str, List[Constraint]] = {name: [] for name in self.activities}
        for constraint in self.constraints:
            incoming[constraint.target].append(constraint)
        self.incoming = {name: tuple(found) for name, found in incoming.items()}

        info: Dict[str, ActivityInfo] = {}
        for name in self.activities:
            if not self.process.has_activity(name):
                # Synthetic coordinators (HappenTogether desugaring) take no
                # time and talk to no service.
                info[name] = ActivityInfo(name=name)
                continue
            activity = self.process.activity(name)
            invokes = awaits = None
            if activity.kind is ActivityKind.INVOKE and activity.port is not None:
                invokes = (activity.port.service, activity.port.port)
            elif activity.kind is ActivityKind.RECEIVE and activity.port is not None:
                awaits = activity.port.service
            info[name] = ActivityInfo(
                name=name,
                duration=activity.duration,
                is_guard=activity.is_guard,
                invokes=invokes,
                awaits=awaits,
            )
        self.info = info

        on_start: Dict[str, List[HappenBefore]] = {}
        on_finish: Dict[str, List[HappenBefore]] = {}
        for hb in self.fine_grained:
            bucket = on_finish if hb.right.state is ActivityState.FINISH else on_start
            bucket.setdefault(hb.right.activity, []).append(hb)
        self.fine_on_start = {k: tuple(v) for k, v in on_start.items()}
        self.fine_on_finish = {k: tuple(v) for k, v in on_finish.items()}

        partners: Dict[str, List[str]] = {}
        for exclusive in self.exclusives:
            left, right = exclusive.left.activity, exclusive.right.activity
            partners.setdefault(left, []).append(right)
            partners.setdefault(right, []).append(left)
        self.exclusive_partners = {k: tuple(v) for k, v in partners.items()}

    @property
    def size(self) -> int:
        """Total number of compiled obligations."""
        return len(self.constraints) + len(self.fine_grained) + len(self.exclusives)

    def guard_names(self) -> Tuple[str, ...]:
        """Guard activities, in scheduling order (for outcome plans)."""
        return tuple(
            name for name in self.activities if self.info[name].is_guard
        )

    def outcome_domain(self, guard: str) -> List[str]:
        return sorted(self.domains.domain(guard))

    def masks(self) -> "MaskProgram":
        """The interned bitmask view of this program (built once, cached)."""
        view = getattr(self, "_mask_view", None)
        if view is None:
            view = MaskProgram(self)
            self._mask_view = view
        return view


def compile_program(
    process: BusinessProcess,
    sc: SynchronizationConstraintSet,
    fine_grained: Iterable[HappenBefore] = (),
    exclusives: Iterable[Exclusive] = (),
) -> ConstraintProgram:
    """Compile ``sc`` (an activity constraint set) for multi-case serving."""
    if not sc.is_activity_set:
        raise SchedulingError(
            "runtime requires an activity constraint set; run service "
            "dependency translation first"
        )
    for name in sc.activities:
        if not process.has_activity(name) and not name.startswith("__"):
            raise SchedulingError(
                "constraint set mentions activity %r unknown to process %r"
                % (name, process.name)
            )
    return ConstraintProgram(
        process=process,
        activities=tuple(sc.activities),
        constraints=tuple(sc),
        guards=dict(sc.guards),
        domains=sc.domains,
        fine_grained=tuple(fine_grained),
        exclusives=tuple(exclusives),
    )


@dataclass(frozen=True)
class MaskActivity:
    """Compiled bitmask facts for one activity.

    All masks live in the program's shared :class:`~repro.core.kernel.Interner`
    universe: activity bits are dense node ids, condition bits are interned
    ``Cond`` positions.  The runtime's readiness predicate for activity ``a``
    becomes ``pred_mask & ~resolved == 0`` and its fate test three mask
    intersections — the exact tests :mod:`repro.verify` explores symbolically.
    """

    name: str
    index: int
    bit: int
    is_guard: bool
    #: sources of incoming constraints (activity bits); conditionality is
    #: deliberately ignored here — it only matters through guard maps, the
    #: same asymmetry ``ConstraintScheduler`` implements.
    pred_mask: int
    #: number of incoming constraints: the constraints one readiness test
    #: inspects, the paper's unit of evaluation cost.
    in_degree: int
    #: condition bits that must all be present in the valuation to run.
    req_cond_mask: int
    #: valuation bits contradicting a required condition (sibling values).
    conflict_mask: int
    #: activity bits of the guards this activity's fate reads.
    guard_dep_mask: int
    #: for branching guards: ``(outcome, valuation bit mask)`` per domain value.
    outcome_bits: Tuple[Tuple[str, int], ...]
    #: mentioned by fine-grained / exclusive obligations: start and finish
    #: are distinct transitions (a ``running`` phase is observable).
    two_phase: bool
    #: activity bits whose RUNNING status blocks this activity's start.
    exclusive_mask: int
    #: fine-grained gates as ``(left bit, left-must-be-finished?)``; a gate
    #: whose left side is skipped is vacuous.  A left side outside the
    #: program gets bit 0: never started, finished or skipped, it blocks
    #: forever.
    start_gates: Tuple[Tuple[int, bool], ...]
    finish_gates: Tuple[Tuple[int, bool], ...]
    #: for bound RECEIVEs: one mask of invoker activities per request port.
    await_ports: Optional[Tuple[int, ...]]
    #: False when the awaited service can never call back (synchronous, or
    #: some request port has no invoking activity in the program).
    await_possible: bool
    #: name of the awaited service (``None`` when not a bound RECEIVE) —
    #: the runtime consults the live :class:`ServiceSimulator` clock
    #: through this, where the verifier abstracts time away.
    awaits_service: Optional[str] = None


class MaskProgram:
    """Dense bitmask compilation of a :class:`ConstraintProgram`.

    This is the *shared ready-set test*: the runtime's serving loop and the
    verifier's successor relation both evaluate these masks, and
    :meth:`why_blocked` words both ``RT004`` and ``VER001`` evidence, so
    the two reports name the same blocking constraints.
    """

    def __init__(self, program: ConstraintProgram) -> None:
        # Imported here (not at module top) to keep the runtime importable
        # without pulling the kernel into every case-serving process.
        from repro.core.kernel import Interner

        self.program = program
        self.interner = Interner()
        order = program.activities
        self.index: Dict[str, int] = {}
        for name in order:
            self.index[name] = self.interner.node_id(name)
        self.all_mask = (1 << len(order)) - 1 if order else 0

        # Intern every referenced condition plus the full declared domain of
        # each referenced guard, so "resolved to another value" is visible
        # to the fate test through sibling conflict masks.
        referenced = sorted({c for conds in program.guards.values() for c in conds})
        referenced_guards = sorted({c.guard for c in referenced})
        for cond in referenced:
            self.interner.cond_bit(cond)
        for guard in referenced_guards:
            for value in sorted(program.domains.domain(guard)):
                self.interner.cond_bit(Cond(guard, value))

        invoker_masks: Dict[Tuple[str, str], int] = {}
        for name in order:
            invokes = program.info[name].invokes
            if invokes is not None:
                invoker_masks[invokes] = invoker_masks.get(invokes, 0) | (
                    1 << self.index[name]
                )

        two_phase_names = set()
        for hb in program.fine_grained:
            two_phase_names.add(hb.left.activity)
            two_phase_names.add(hb.right.activity)
        two_phase_names.update(program.exclusive_partners)

        activities: List[MaskActivity] = []
        for position, name in enumerate(order):
            index = self.index[name]
            bit = 1 << index
            info = program.info[name]
            pred_mask = 0
            for constraint in program.incoming.get(name, ()):
                source_index = self.index.get(constraint.source)
                if source_index is not None:
                    pred_mask |= 1 << source_index
            req_cond_mask = 0
            conflict_mask = 0
            guard_dep_mask = 0
            for cond in program.guards.get(name, frozenset()):
                # A guard outside the program never resolves: its condition
                # bit stays required and unset, so the fate stays undecided.
                cond_mask = 1 << self.interner.cond_bit(cond)
                req_cond_mask |= cond_mask
                conflict_mask |= self.interner.conflict_of(cond_mask)
                guard_index = self.index.get(cond.guard)
                if guard_index is not None:
                    guard_dep_mask |= 1 << guard_index

            outcome_bits: Tuple[Tuple[str, int], ...] = ()
            if info.is_guard and name in {c.guard for c in referenced}:
                outcome_bits = tuple(
                    (value, 1 << self.interner.cond_bit(Cond(name, value)))
                    for value in program.outcome_domain(name)
                )

            exclusive_mask = 0
            for partner in program.exclusive_partners.get(name, ()):
                partner_index = self.index.get(partner)
                if partner_index is not None:
                    exclusive_mask |= 1 << partner_index

            start_gates = self._gates(program.fine_on_start.get(name, ()))
            finish_gates = self._gates(program.fine_on_finish.get(name, ()))

            await_ports: Optional[Tuple[int, ...]] = None
            await_possible = True
            if info.awaits is not None:
                service = program.process.service(info.awaits)
                await_ports = tuple(
                    invoker_masks.get((service.name, port.name), 0)
                    for port in service.request_ports
                )
                await_possible = service.asynchronous and all(await_ports)

            activities.append(
                MaskActivity(
                    awaits_service=info.awaits,
                    name=name,
                    index=index,
                    bit=bit,
                    is_guard=info.is_guard,
                    pred_mask=pred_mask,
                    in_degree=len(program.incoming.get(name, ())),
                    req_cond_mask=req_cond_mask,
                    conflict_mask=conflict_mask,
                    guard_dep_mask=guard_dep_mask,
                    outcome_bits=outcome_bits,
                    two_phase=name in two_phase_names,
                    exclusive_mask=exclusive_mask,
                    start_gates=start_gates,
                    finish_gates=finish_gates,
                    await_ports=await_ports,
                    await_possible=await_possible,
                )
            )
        self.activities: Tuple[MaskActivity, ...] = tuple(activities)

        # Reverse adjacency for the serving loop: ``dependents[i]`` is the
        # mask of activities whose readiness or fate tests read activity
        # ``i``'s status — the only ones worth re-checking after ``i``
        # transitions.  Over-approximating (re-checking a blocked activity)
        # is harmless; the dirty-set worklist only needs a superset of the
        # activities a full scan would actually move.
        dependents = [0] * len(self.activities)
        awaiters: Dict[str, int] = {}
        for act in self.activities:
            reads = act.pred_mask | act.guard_dep_mask | act.exclusive_mask
            for left_bit, _needs_finish in act.start_gates:
                reads |= left_bit
            remaining = reads
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                dependents[low.bit_length() - 1] |= act.bit
            if act.awaits_service is not None:
                awaiters[act.awaits_service] = (
                    awaiters.get(act.awaits_service, 0) | act.bit
                )
        self.dependents: Tuple[int, ...] = tuple(dependents)
        #: service name -> mask of activities awaiting its callback.
        self.awaiters: Dict[str, int] = awaiters

        # Projection table: a branching guard's valuation bits stop mattering
        # once every activity whose fate reads them is resolved.
        branch_guards: List[Tuple[int, int]] = []
        for act in self.activities:
            if not act.outcome_bits:
                continue
            dependents = 0
            for other in self.activities:
                if other.guard_dep_mask & act.bit:
                    dependents |= other.bit
            guard_value_bits = 0
            for _, value_mask in act.outcome_bits:
                guard_value_bits |= value_mask
            # Keep only this guard's bits (value_bits may span other guards).
            branch_guards.append((dependents, guard_value_bits))
        self.branch_guards: Tuple[Tuple[int, int], ...] = tuple(branch_guards)

    def _gates(self, gates: Iterable[HappenBefore]) -> Tuple[Tuple[int, bool], ...]:
        return tuple(
            (1 << self.index[hb.left.activity] if hb.left.activity in self.index else 0,
             hb.left.state is ActivityState.FINISH)
            for hb in gates
        )

    # -- the shared ready-set / fate tests -----------------------------------

    def fate(self, act: MaskActivity, valuation: int, skipped: int) -> Optional[bool]:
        """True = will run, False = must skip, None = undecided.

        Independent of the order the guard conditions are listed in: any
        skipped guard or any guard resolved to another value decides False,
        even while other guards are still undecided; otherwise any
        undecided guard gives None; otherwise True.
        """
        if valuation & act.conflict_mask:
            return False
        if skipped & act.guard_dep_mask:
            return False
        if act.req_cond_mask & ~valuation == 0:
            return True
        return None

    def ready(self, act: MaskActivity, resolved: int) -> bool:
        """The runtime's constraint readiness test: every incoming source
        DONE or SKIPPED."""
        return act.pred_mask & ~resolved == 0

    def unsatisfied(self, act: MaskActivity, resolved: int) -> int:
        """The blocking sources as a mask (for RT004/VER001 diagnostics)."""
        return act.pred_mask & ~resolved

    def blocking_constraints(self, name: str, resolved: int) -> List[Constraint]:
        """Unpack the unsatisfied mask back into the constraint objects."""
        act = self.activities[self._position(name)]
        blocked_bits = self.unsatisfied(act, resolved)
        blockers: List[Constraint] = []
        for constraint in self.program.incoming.get(name, ()):
            source_index = self.index.get(constraint.source)
            if source_index is not None and blocked_bits & (1 << source_index):
                blockers.append(constraint)
        return blockers

    def message_ready(self, act: MaskActivity, done: int) -> bool:
        if act.await_ports is None:
            return True
        if not act.await_possible:
            return False
        return all(mask & done for mask in act.await_ports)

    def start_blocked(self, act: MaskActivity, done: int, running: int,
                      skipped: int) -> bool:
        started = done | running
        for left_bit, needs_finish in act.start_gates:
            if skipped & left_bit:
                continue  # vacuous: the left side was skipped
            if needs_finish:
                if not done & left_bit:
                    return True
            elif not started & left_bit:
                return True
        return False

    def finish_blocked(self, act: MaskActivity, done: int, running: int,
                       skipped: int) -> bool:
        started = done | running
        for left_bit, needs_finish in act.finish_gates:
            if skipped & left_bit:
                continue
            if needs_finish:
                if not done & left_bit:
                    return True
            elif not started & left_bit:
                return True
        return False

    def why_blocked(self, act: MaskActivity, done: int, running: int,
                    skipped: int, valuation: int, message_ready: bool) -> str:
        """Why a stuck activity cannot move — one line of ``RT004`` or
        ``VER001`` evidence.  The caller decides message readiness: the
        runtime from its live service clock once its event queue has
        drained, the verifier from invoker bits."""
        name = act.name
        if running & act.bit:
            return "%s is RUNNING but its finish is gated" % name
        if self.fate(act, valuation, skipped) is None:
            waiting = sorted(
                cond.guard for cond in self.program.guards.get(name, frozenset())
            )
            return "%s waits on undecided guard(s) %s" % (name, ", ".join(waiting))
        blockers = self.blocking_constraints(name, done | skipped)
        if blockers:
            return "%s blocked by unsatisfied constraint(s): %s" % (
                name,
                ", ".join(str(c) for c in blockers),
            )
        if not message_ready:
            return "%s awaits a service callback that can never arrive" % name
        if running & act.exclusive_mask:
            return "%s blocked by a RUNNING exclusive partner" % name
        if self.start_blocked(act, done, running, skipped):
            return "%s start-gated by a fine-grained dependency" % name
        return "%s is blocked" % name

    def project_valuation(self, valuation: int, pending: int) -> int:
        """Drop valuation bits no pending activity's fate can still read."""
        for dependents, value_bits in self.branch_guards:
            if dependents & pending == 0:
                valuation &= ~value_bits
        return valuation

    # -- convenience ---------------------------------------------------------

    def _position(self, name: str) -> int:
        position = self.index.get(name)
        if position is None:
            raise SchedulingError("unknown activity %r" % name)
        return position

    def index_bit(self, name: str) -> int:
        return 1 << self._position(name)

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self._position(name)
        return mask

    def names_of(self, mask: int) -> List[str]:
        found = []
        while mask:
            low = mask & -mask
            mask ^= low
            found.append(self.interner.node_name(low.bit_length() - 1))
        return found


# The historical home of the runtime-compiling ``program_from_weave``; the
# canonical implementation (shared with repro.conformance) lives in
# :mod:`repro.programs`.  Runtime callers pass ``target="runtime"``.
from repro.programs import program_from_weave  # noqa: E402,F401
