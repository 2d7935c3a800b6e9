"""Symbolic state space of a compiled constraint program.

A state is four machine-int masks over the program's interned universe
(:class:`repro.runtime.program.MaskProgram`):

``(done, running, skipped, valuation)``

``done``/``running``/``skipped`` are activity bits; ``valuation`` holds the
interned ``Cond`` bits produced by the guard branches taken so far.  The
successor relation evaluates exactly the runtime's predicates — the same
:class:`MaskProgram` fate, readiness, exclusive and fine-grained gate tests
``CaseInstance`` serves with — except for message timing: the runtime asks
its live service clock whether a callback has arrived, the verifier only
whether every request port of the awaited service has an invoker DONE, so
it abstracts time away.  Deadlock evidence comes from the same
:meth:`MaskProgram.why_blocked` that words the runtime's ``RT004``.

Two mechanisms keep the space small:

*Persistent-set reduction.*  A transition that can neither disable nor be
disabled by any other enabled transition forms a singleton persistent set;
exploring only it preserves every terminal state (both deadlocks and
completions are terminal — they have no successors).  Coarse activity
firings and two-phase *finishes* are such transitions: their enabling
conditions are monotone (preds/fates/messages only ever become more
resolved) and their effects only ever enable others.  Only *starts* of
two-phase activities can block a peer (an exclusive partner entering
RUNNING), so interleaving choice is explored exactly there.  Guard firings
branch over the full outcome domain, so branch coverage is unaffected.

*Live-bit projection.*  Once every activity whose fate reads guard ``g``
is resolved, ``g``'s valuation bits can never influence another decision;
:meth:`MaskProgram.project_valuation` drops them from the state key, so
symmetric post-branch continuations collapse into one state.

``mode="deadlock"`` additionally consults a shared
:class:`repro.core.kernel.AntichainFrontier`: executed-set masks already
proven completable under a (valuation, skipped, running) context are
pruned by a subset test.  The pruning discards completion *evidence*
(which activities ran), so it is only used where the question is purely
"can this state strand?" — the ``serve --verify`` gate and
:func:`repro.verify.strand.would_strand` — never for VER002/003/004.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.kernel import AntichainFrontier
from repro.runtime.program import ConstraintProgram, MaskActivity, MaskProgram

#: (kind, activity, outcome) — kind is "fire", "start" or "finish".
Transition = Tuple[str, str, Optional[str]]

#: (done, running, skipped, projected valuation)
State = Tuple[int, int, int, int]

DEFAULT_STATE_LIMIT = 200_000


@dataclass(frozen=True)
class Terminal:
    """A state with no successors: a completion or a deadlock."""

    state: State
    done: int
    running: int
    skipped: int
    #: activity names stuck PENDING or RUNNING (empty for completions).
    stuck: Tuple[str, ...]
    #: human-readable reasons, one per stuck activity.
    blockers: Tuple[str, ...]

    @property
    def deadlocked(self) -> bool:
        return bool(self.stuck)


@dataclass
class SpaceStats:
    """Counters for one exploration (feed ``repro_verify_*`` metrics)."""

    states: int = 0
    transitions: int = 0
    terminals: int = 0
    deadlocks: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    truncated: bool = False

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


@dataclass
class Exploration:
    """The result of one :meth:`StateSpace.explore` run."""

    initial: State
    stats: SpaceStats
    terminals: List[Terminal] = field(default_factory=list)
    #: first deadlocked terminal found (BFS order → shortest reduced trace).
    deadlock: Optional[Terminal] = None
    #: activity bits that fired in some explored run.
    executed_ever: int = 0
    #: valuation bits produced by some explored guard branch.
    branch_bits_ever: int = 0
    #: parent pointers: state -> (parent state, transition).
    parents: Dict[State, Optional[Tuple[State, Transition]]] = field(
        default_factory=dict
    )

    def trace(self, state: State) -> List[Transition]:
        """The transition path from the initial state to ``state``."""
        steps: List[Transition] = []
        cursor: Optional[State] = state
        while cursor is not None:
            link = self.parents.get(cursor)
            if link is None:
                break
            cursor, transition = link
            steps.append(transition)
        steps.reverse()
        return steps

    def outcomes_along(self, state: State) -> Dict[str, str]:
        """Guard outcomes taken on the path to ``state`` (recovers the
        valuation that live-bit projection erased from the state key)."""
        outcomes: Dict[str, str] = {}
        for _, name, outcome in self.trace(state):
            if outcome is not None:
                outcomes[name] = outcome
        return outcomes


def format_transition(transition: Transition) -> str:
    kind, name, outcome = transition
    label = name if outcome is None else "%s=%s" % (name, outcome)
    return label if kind == "fire" else "%s %s" % (kind, label)


class StateSpace:
    """Explorer over the reachable states of one compiled program.

    One instance may serve many :meth:`explore` calls (the strand sweep
    re-queries it per prefix); the antichain memo persists across calls.
    """

    def __init__(
        self,
        program: Union[ConstraintProgram, MaskProgram],
        state_limit: int = DEFAULT_STATE_LIMIT,
    ) -> None:
        self.masks: MaskProgram = (
            program if isinstance(program, MaskProgram) else program.masks()
        )
        self.state_limit = state_limit
        self.frontier = AntichainFrontier()
        #: antichain pruning is only sound for programs with no two-phase
        #: activities (see module docstring) — and only in deadlock mode.
        self.memo_ok = not any(act.two_phase for act in self.masks.activities)

    # -- state construction --------------------------------------------------

    def initial_state(
        self,
        done: int = 0,
        running: int = 0,
        skipped: int = 0,
        valuation: int = 0,
    ) -> State:
        return self._settle(done, running, skipped, valuation)

    def _settle(
        self, done: int, running: int, skipped: int, valuation: int
    ) -> State:
        """Run the deterministic skip cascade to fixpoint, then project."""
        masks = self.masks
        changed = True
        while changed:
            changed = False
            pending = masks.all_mask & ~(done | running | skipped)
            probe = pending
            while probe:
                low = probe & -probe
                probe ^= low
                act = masks.activities[low.bit_length() - 1]
                if masks.fate(act, valuation, skipped) is False:
                    skipped |= low
                    changed = True
        pending = masks.all_mask & ~(done | running | skipped)
        return (done, running, skipped, masks.project_valuation(valuation, pending))

    # -- successor relation --------------------------------------------------

    def _branches(
        self, act: MaskActivity, kind: str, state: State
    ) -> List[Tuple[Transition, State]]:
        done, running, skipped, valuation = state
        bit = act.bit
        if kind == "start":
            return [(("start", act.name, None), (done, running | bit, skipped, valuation))]
        new_running = running & ~bit if kind == "finish" else running
        if act.outcome_bits:
            return [
                (
                    (kind, act.name, outcome),
                    (done | bit, new_running, skipped, valuation | value_bit),
                )
                for outcome, value_bit in act.outcome_bits
            ]
        return [((kind, act.name, None), (done | bit, new_running, skipped, valuation))]

    def successors(self, state: State) -> List[Tuple[Transition, State]]:
        """Enabled transitions, reduced to a persistent set when one exists."""
        masks = self.masks
        done, running, skipped, valuation = state
        resolved = done | skipped
        pending = masks.all_mask & ~(resolved | running)
        starts: List[Tuple[Transition, State]] = []
        for act in masks.activities:
            bit = act.bit
            if running & bit:
                if not masks.finish_blocked(act, done, running, skipped):
                    # Finishes never disable anything: singleton persistent set.
                    return self._branches(act, "finish", state)
                continue
            if not pending & bit:
                continue
            if masks.fate(act, valuation, skipped) is not True:
                continue
            if not masks.ready(act, resolved):
                continue
            if not masks.message_ready(act, done):
                continue
            if not act.two_phase:
                # Coarse firings are atomic and never disable anything.
                return self._branches(act, "fire", state)
            if running & act.exclusive_mask:
                continue
            if masks.start_blocked(act, done, running, skipped):
                continue
            starts.append(self._branches(act, "start", state)[0])
        # Only two-phase starts remain: these genuinely conflict (a start
        # can block an exclusive partner), so explore every interleaving.
        return starts

    # -- exploration ---------------------------------------------------------

    def explore(
        self,
        start: Optional[State] = None,
        mode: str = "full",
    ) -> Exploration:
        """Breadth-first exploration from ``start`` (default: empty case).

        ``mode="full"`` visits every reduced state and records terminals
        and liveness accumulators.  ``mode="deadlock"`` answers only "is a
        deadlock reachable?": it stops at the first deadlock, prunes via
        the antichain frontier, and feeds the frontier on success.
        """
        masks = self.masks
        if start is None:
            start = self.initial_state()
        stats = SpaceStats()
        result = Exploration(initial=start, stats=stats)
        deadlock_only = mode == "deadlock"
        use_memo = deadlock_only and self.memo_ok

        if use_memo and self.frontier.covers(self._memo_key(start), start[0]):
            stats.memo_hits = self.frontier.hits
            stats.memo_misses = self.frontier.misses
            stats.states = 0
            return result

        result.parents[start] = None
        queue = deque([start])
        visited_order: List[State] = []
        while queue:
            if stats.states >= self.state_limit:
                stats.truncated = True
                break
            state = queue.popleft()
            stats.states += 1
            visited_order.append(state)
            successors = self.successors(state)
            if not successors:
                terminal = self._terminal(state)
                result.terminals.append(terminal)
                stats.terminals += 1
                if terminal.deadlocked:
                    stats.deadlocks += 1
                    if result.deadlock is None:
                        result.deadlock = terminal
                    if deadlock_only:
                        break
                continue
            for transition, raw in successors:
                stats.transitions += 1
                if transition[0] != "start":
                    result.executed_ever |= masks.index_bit(transition[1])
                    if transition[2] is not None:
                        result.branch_bits_ever |= self._outcome_bit(transition)
                nxt = self._settle(*raw)
                if nxt in result.parents:
                    continue
                if use_memo and self.frontier.covers(self._memo_key(nxt), nxt[0]):
                    continue
                result.parents[nxt] = (state, transition)
                queue.append(nxt)

        stats.memo_hits = self.frontier.hits
        stats.memo_misses = self.frontier.misses
        if use_memo and result.deadlock is None and not stats.truncated:
            # Every visited state completed in every explored future: feed
            # the frontier so later queries collapse to a subset test.
            for state in visited_order:
                self.frontier.insert(self._memo_key(state), state[0])
        return result

    # -- terminal classification ---------------------------------------------

    def _terminal(self, state: State) -> Terminal:
        masks = self.masks
        done, running, skipped, valuation = state
        resolved = done | skipped
        pending = masks.all_mask & ~(resolved | running)
        stuck_mask = pending | running
        if not stuck_mask:
            return Terminal(state, done, running, skipped, (), ())
        stuck: List[str] = []
        blockers: List[str] = []
        probe = stuck_mask
        while probe:
            low = probe & -probe
            probe ^= low
            act = masks.activities[low.bit_length() - 1]
            stuck.append(act.name)
            blockers.append(
                masks.why_blocked(
                    act, done, running, skipped, valuation,
                    message_ready=masks.message_ready(act, done),
                )
            )
        return Terminal(state, done, running, skipped, tuple(stuck), tuple(blockers))

    # -- helpers -------------------------------------------------------------

    def _memo_key(self, state: State) -> Tuple[int, int, int]:
        _, running, skipped, valuation = state
        return (running, skipped, valuation)

    def _outcome_bit(self, transition: Transition) -> int:
        _, name, outcome = transition
        act = self.masks.activities[self.masks.index[name]]
        for value, value_bit in act.outcome_bits:
            if value == outcome:
                return value_bit
        return 0
