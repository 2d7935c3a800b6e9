"""Independent checks of every output the benchmark times.

* Serving: each case's final state equals what the single-case
  ``ConstraintScheduler`` computes for its outcome plan over the weave's
  full translated constraint set (computed once per distinct plan).
* Orders: every barrier is released and each object's obligation
  counters match its fan-out; line items match the scheduler, and each
  order completes with the scheduler's executed and skipped activities
  (its times wait on the barrier, so they are not compared).
* Recovery: recovered final states equal the uncrashed request's.
* Audit: conformance replay finds every case conformant.
* Weave: minimal and redeployed sets match ``fingerprints.json``.

Each check returns the number of failures it found, so a run can count
failed operations against attempted ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Mapping, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")


def fingerprint(constraint_set) -> Dict[str, object]:
    lines = sorted(str(constraint) for constraint in constraint_set.constraints)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return {"count": len(lines), "sha256": digest}


def load_fingerprints() -> Dict[str, dict]:
    with open(FINGERPRINTS, "r", encoding="utf-8") as handle:
        return json.load(handle)["processes"]


def choose_edit(registry) -> Tuple[object, object]:
    """One general-path redeploy edit: add a cooperation edge, drop a minimal edge.

    The added edge joins the first activity pair (in declaration order)
    that is not declared yet and whose reverse path does not exist, so
    the edit never closes a cycle.  The removed edge is the middle one of
    the minimal set in text order.
    """
    from repro.core.constraints import Constraint

    declared = registry.current.declared
    successors: Dict[str, List[str]] = {}
    for constraint in declared.constraints:
        successors.setdefault(constraint.source, []).append(constraint.target)
    declared_pairs = {(c.source, c.target) for c in declared.constraints}

    def reaches(start: str, goal: str) -> bool:
        seen, stack = {start}, [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in successors.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    names = list(declared.activities)
    added = next(
        Constraint(source, target)
        for index, source in enumerate(names)
        for target in names[index + 1:]
        if (source, target) not in declared_pairs and not reaches(target, source)
    )
    minimal = sorted(registry.current.minimal.constraints, key=str)
    return added, minimal[len(minimal) // 2]


# -- serving -----------------------------------------------------------------------


class ScheduleOracle:
    """Final states from ``ConstraintScheduler``, one run per distinct plan."""

    def __init__(self, result) -> None:
        self._result = result
        self._cache: Dict[Tuple, Tuple] = {}

    def expected(self, plan: Mapping[str, str]) -> Tuple:
        key = tuple(sorted(plan.items()))
        state = self._cache.get(key)
        if state is None:
            from repro.scheduler.engine import ConstraintScheduler

            result = self._result
            run = ConstraintScheduler(
                result.process,
                result.asc,
                fine_grained=result.fine_grained,
                exclusives=result.exclusives,
            ).run(outcomes=dict(plan))
            executed = tuple(
                sorted(
                    ((r.name, r.start, r.finish) for r in run.trace.executed()),
                    key=lambda row: (row[2], row[0]),
                )
            )
            state = self._cache[key] = (
                "completed",
                executed,
                tuple(sorted(run.trace.skipped())),
                tuple(sorted(run.outcomes.items())),
            )
        return state


def _untimed(state: Tuple) -> Tuple:
    status, executed, skipped, outcomes = state
    return status, tuple(sorted(name for name, _, _ in executed)), skipped, outcomes


def check_serving(report, plans: Mapping[str, Mapping[str, str]],
                  oracle: ScheduleOracle, untimed: Optional[set] = None) -> int:
    """Mismatching, missing, failed or rejected cases of one request.

    Cases in ``untimed`` are compared without their activity times.
    """
    failures = report.metrics.rejected + report.metrics.failed
    if set(report.results) != set(plans):
        failures += len(set(plans) ^ set(report.results))
    for case, result in report.results.items():
        if case not in plans:
            continue
        state, expected = result.final_state(), oracle.expected(plans[case])
        if untimed is not None and case in untimed:
            state, expected = _untimed(state), _untimed(expected)
        if state != expected:
            failures += 1
    return failures


def check_orders(report, counters, plans, bindings, oracle: ScheduleOracle) -> int:
    """Barriers released, counters matching the fan-out, cases per scheduler."""
    items = {case for case, binding in bindings.items() if binding.role == "item"}
    failures = check_serving(report, plans, oracle, untimed=set(plans) - items)
    parents = {
        binding.object_key: case
        for case, binding in bindings.items()
        if binding.role == "order"
    }
    if report.metrics.barriers_released != len(parents) or report.metrics.barriers_stranded:
        failures += 1
    for key, parent in parents.items():
        children = [c for c, b in bindings.items() if b.object_key == key and c in items]
        cancelled = sum(1 for c in children if plans[c].get("item_ok") == "F")
        syncs = counters.get(key, {})
        barrier = syncs.get("all:item.pack_item->order.ship_order", {})
        once = syncs.get("once:order.invoice_order", {})
        if (
            barrier.get("satisfied") != len(children) - cancelled
            or barrier.get("cancelled") != cancelled
            or once.get("fired_by") != parent
        ):
            failures += 1
    return failures


def check_same_states(recovered, expected) -> int:
    states = recovered.final_states()
    return sum(1 for case, state in expected.items() if states.get(case) != state) + len(
        set(states) - set(expected)
    )


def check_audit(replay_report, cases: int) -> int:
    return len(replay_report.violated_cases) + abs(replay_report.cases - cases)


# -- design time -------------------------------------------------------------------


def check_design(pinned: dict, minimal, verification, redeployed, reverted: bool) -> int:
    """Pinned minimal set, proven deadlock-freedom with the pinned state
    count, and the pinned redeployed set (the minimal one after a revert)."""
    failures = 0
    if fingerprint(minimal) != pinned["minimal"]:
        failures += 1
    if verification.deadlock_free is not True or verification.stats.states != pinned["verify_states"]:
        failures += 1
    if fingerprint(redeployed) != pinned["minimal" if reverted else "redeploy"]:
        failures += 1
    return failures
