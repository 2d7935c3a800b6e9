"""Regenerate ``fingerprints.json``, the design-phase oracle.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/make_fingerprints.py

For every process of every workload's design set this weaves with the
production kernel and with the reference frozenset path
(``DSCWeaver(kernel=False)``), applies the benchmark's redeploy edit and
minimizes the edited set on the reference path as well.  A production
set is pinned only if the reference equivalence check
(``transitive_equivalent(..., kernel=False)``) proves it equivalent to
the set it was minimized from; otherwise the script fails.  Where the
reference minimizer returns a different set, both fingerprints are kept
and ``reference_agrees`` records the disagreement.  The verified state
count of each minimal program is pinned too.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from oracle import FINGERPRINTS, choose_edit, fingerprint  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402


def pin(key: str) -> dict:
    from repro.core.equivalence import transitive_equivalent
    from repro.core.minimize import minimize
    from repro.core.pipeline import DSCWeaver
    from repro.deploy import ProgramRegistry
    from repro.programs import program_from_weave
    from repro.verify.engine import verify_program

    # The reference path runs on its own freshly built objects, so no
    # state the production kernel leaves behind can reach it.
    reference = DSCWeaver(kernel=False).weave(*build_inputs(key))
    result = DSCWeaver().weave(*build_inputs(key))
    semantics = result.semantics
    if not transitive_equivalent(result.minimal, reference.asc, semantics, kernel=False):
        raise SystemExit("%s: minimal set is not equivalent to its source" % key)
    verification = verify_program(program_from_weave(result, "minimal", target="runtime"))
    if verification.deadlock_free is not True:
        raise SystemExit("%s: minimal program is not deadlock-free" % key)
    registry = ProgramRegistry.from_weave(result)
    added, removed = choose_edit(registry)
    redeployed = registry.redeploy(added=(added,), removed=(removed,)).version
    edited = reference.asc.replace_constraints(
        [c for c in reference.asc.constraints if c != removed] + [added]
    )
    if not transitive_equivalent(redeployed.minimal, edited, semantics, kernel=False):
        raise SystemExit("%s: redeployed set is not equivalent to its source" % key)
    reference_redeploy = minimize(edited, semantics=semantics, kernel=False)
    entry = {
        "minimal": fingerprint(result.minimal),
        "redeploy": fingerprint(redeployed.minimal),
        "verify_states": verification.stats.states,
        "edit": {"added": str(added), "removed": str(removed)},
        "reference_minimal": fingerprint(reference.minimal),
        "reference_redeploy": fingerprint(reference_redeploy),
    }
    entry["reference_agrees"] = (
        entry["minimal"] == entry["reference_minimal"]
        and entry["redeploy"] == entry["reference_redeploy"]
    )
    if not entry["reference_agrees"]:
        only = sorted(
            str(c) for c in set(reference.minimal.constraints) - set(result.minimal.constraints)
        )
        entry["reference_only"] = only
    print("%-12s %s" % (key, json.dumps(entry, sort_keys=True)), flush=True)
    return entry


def main() -> int:
    keys = sorted({key for workload in WORKLOADS.values() for key in workload.design})
    payload = {
        "about": "Design-phase oracle; regenerate with perfbench/make_fingerprints.py.",
        "processes": {key: pin(key) for key in keys},
    }
    with open(FINGERPRINTS, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
