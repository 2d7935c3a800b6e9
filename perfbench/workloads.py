"""Workload definitions: inputs, ready state and per-request case loads.

Every workload runs the same phases (design, serve, recover, audit) on
its own process set and serving configuration; what differs is which
layer dominates.  Inputs are pure functions of the workload and the
``--seed``: the seed names the cases (and so their shard and worker
placement) and picks where the guard-outcome cycle starts.  The design
set of each workload is fixed, because its minimal sets are pinned by
``fingerprints.json``.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: synthetic generator settings per process key: (activities, cooperation density, seed)
SYNTHETIC = {
    "syn160-s11": (160, 0.8, 11),
    "syn300-s1": (300, 0.5, 1),
    "syn300-s2": (300, 0.5, 2),
    "syn300-s3": (300, 0.5, 3),
    "syn300-s4": (300, 0.5, 4),
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: process keys woven, verified and redeployed in the design phase;
    #: the first one's minimal program is served.
    design: Tuple[str, ...]
    #: serve the closed loop through ``WorkerPool(workers=2)`` instead of
    #: an in-process ``Runtime(shards=8)``.
    pool: bool
    #: journal the closed-loop requests (probes and audit always journal).
    journal: bool
    #: cases per closed-loop request (orders per request when ``pool``).
    request: int
    #: cases (orders) per crash/recover probe request.
    probe: int
    #: cases (orders) in the audited journal.
    audit: int
    #: audit passes per run (fewer where mining a wide log makes each pass long).
    audit_passes: int
    #: passes over the design set per run.
    design_passes: int
    #: design steps (one process each) per scheduled operation.
    design_batch: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("wal-purchasing", ("purchasing",), pool=False,
                 journal=True, request=200, probe=300, audit=200, audit_passes=21,
                 design_passes=200, design_batch=5),
        Workload("wide-syn160", ("syn160-s11",), pool=False,
                 journal=False, request=30, probe=20, audit=4, audit_passes=21,
                 design_passes=6, design_batch=1),
        Workload("orders-2w", ("orders",), pool=True,
                 journal=True, request=6, probe=6, audit=2, audit_passes=21,
                 design_passes=200, design_batch=5),
        Workload("weave-syn300", ("syn300-s1", "syn300-s2", "syn300-s3", "syn300-s4"),
                 pool=False, journal=False, request=10, probe=10,
                 audit=1, audit_passes=15, design_passes=2, design_batch=1),
    )
}

#: orders fan-out per order and the item cancellation period, so both
#: ``item_ok`` branches run (every 4th item fails its quality check).
FAN_OUT = 40
CANCEL_EVERY = 4


def build_inputs(key: str):
    """``(process, dependency set)`` for one process key."""
    import repro.core.pipeline as pipeline

    if key == "purchasing":
        from repro.workloads.purchasing import (
            build_purchasing_process,
            purchasing_cooperation_dependencies,
        )

        process = build_purchasing_process()
        cooperation = purchasing_cooperation_dependencies(process)
    elif key == "orders":
        from repro.deps.cooperation import CooperationRegistry
        from repro.workloads.orders import build_orders_process

        process = build_orders_process()
        cooperation = CooperationRegistry(process).dependencies
    else:
        from repro.workloads.synthetic import SyntheticSpec, generate_dependency_set

        activities, density, seed = SYNTHETIC[key]
        return generate_dependency_set(
            SyntheticSpec(
                n_activities=activities, n_services=4, n_branches=2,
                coop_density=density, seed=seed,
            )
        )
    return process, pipeline.extract_all_dependencies(process, cooperation=cooperation)


@dataclass
class Ready:
    """Everything a run needs before the first timed call."""

    workload: Workload
    inputs: Dict[str, tuple]
    result: object  # WeaveResult of the served process
    program: object  # runtime ConstraintProgram
    spec: Optional[object]  # ObjectSpec for the orders workload


def build_ready(workload: Workload) -> Ready:
    """Generate inputs, then weave and compile the served program."""
    from repro.core.pipeline import DSCWeaver
    from repro.programs import program_from_weave

    inputs = {key: build_inputs(key) for key in workload.design}
    process, dependencies = inputs[workload.design[0]]
    result = DSCWeaver().weave(process, dependencies)
    program = program_from_weave(result, "minimal", target="runtime")
    spec = None
    if workload.pool:
        from repro.workloads.orders import orders_object_spec

        spec = orders_object_spec()
    return Ready(workload, inputs, result, program, spec)


# -- case loads ------------------------------------------------------------------


def guard_plans(program) -> List[Dict[str, str]]:
    """Every guard-outcome combination of ``program`` (mixed radix)."""
    guards = program.guard_names()
    domains = [program.outcome_domain(guard) for guard in guards]
    return [dict(zip(guards, values)) for values in itertools.product(*domains)]


def case_load(program, prefix: str, cases: int, seed: int) -> Dict[str, Dict[str, str]]:
    """``cases`` plans cycling every guard combination, named by ``prefix``."""
    combos = guard_plans(program)
    start = zlib.crc32(prefix.encode("utf-8")) + seed
    return {
        "%s-c%05d" % (prefix, index): dict(combos[(start + index) % len(combos)])
        for index in range(cases)
    }


def orders_load(prefix: str, orders: int):
    """Plans and object bindings for ``orders`` orders keyed by ``prefix``."""
    from repro.objects.model import ObjectBinding
    from repro.workloads.orders import orders_plans

    plans, bindings = orders_plans(orders, FAN_OUT, cancel_every=CANCEL_EVERY)
    rename = "%s-ord-" % prefix
    return (
        {case.replace("ord-", rename, 1): plan for case, plan in plans.items()},
        {
            case.replace("ord-", rename, 1): ObjectBinding(
                object_key=binding.object_key.replace("ord-", rename, 1),
                role=binding.role,
                children=binding.children,
            )
            for case, binding in bindings.items()
        },
    )
