"""Weave and minimization results must not depend on the string-hash seed.

Two places used to iterate a ``set`` where the order decides the result:

* the reference complementary merge (``merge_complementary``): merges do
  not commute, so the first eligible merge picked from a set decided the
  outcome.  ``{T@g1∧T@g8, T@g1∧F@g8, F@g1∧T@g8}`` merged to
  ``{T@g8, F@g8∧T@g1}`` under most seeds and to ``{T@g1, F@g1∧T@g8}``
  under the rest;
* service-dependency translation, whose bridged edges (and so the
  translated set's order, the minimize candidate order and the kernel
  counters) followed a set of offspring names.

Each check runs the computation in child interpreters under several
``PYTHONHASHSEED`` values and asserts one answer.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def three_fact_merge() -> list:
    from repro.analysis.conditions import Cond, merge_complementary

    def facts(*conds):
        return ("t", frozenset(Cond(guard, value) for value, guard in conds))

    merged = merge_complementary(
        [
            facts(("T", "g1"), ("T", "g8")),
            facts(("T", "g1"), ("F", "g8")),
            facts(("F", "g1"), ("T", "g8")),
        ]
    )
    return sorted(sorted(str(cond) for cond in annotations) for _, annotations in merged)


def purchasing_weave() -> dict:
    from repro.core.pipeline import DSCWeaver, extract_all_dependencies
    from repro.workloads.purchasing import (
        build_purchasing_process,
        purchasing_cooperation_dependencies,
    )

    process = build_purchasing_process()
    dependencies = extract_all_dependencies(
        process, purchasing_cooperation_dependencies(process)
    )
    result = DSCWeaver().weave(process, dependencies)
    return {
        "asc": [str(c) for c in result.asc.constraints],
        "minimal": [str(c) for c in result.minimal.constraints],
        "kernel_stats": result.report.kernel_stats,
    }


def _in_child(seed: int, function: str):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    code = (
        "import json\n"
        "from tests.test_core_hashseed import %s\n"
        "print(json.dumps(%s()))\n" % (function, function)
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestReferenceMergeOrder:
    def test_three_fact_merge_is_seed_independent(self):
        results = {seed: _in_child(seed, "three_fact_merge") for seed in range(8)}
        assert len({json.dumps(result) for result in results.values()}) == 1, results
        # Sorted scan order: the pair differing in g1 merges first.
        assert results[0] == [["F@g8", "T@g1"], ["T@g8"]]


class TestTranslationOrder:
    def test_purchasing_weave_is_seed_independent(self):
        first = _in_child(0, "purchasing_weave")
        second = _in_child(7, "purchasing_weave")
        assert first["asc"] == second["asc"]
        assert first["minimal"] == second["minimal"]
        assert first["kernel_stats"] == second["kernel_stats"]
        assert len(first["minimal"]) == 17
