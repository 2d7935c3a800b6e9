"""Schedules must not depend on the interpreter's string-hash seed.

An activity guarded by two independent decisions must be skipped as soon
as *either* guard takes the other branch, whichever guard a frozenset
happens to list first.  The two-guard example: ``g1`` (5s) and ``g2``
(1s), activity ``a`` guarded by ``{g1=T, g2=T}``, then ``a -> b``.  With
``g2=F``, ``a`` is skipped when ``g2`` finishes at t=1, so ``b`` starts at
t=1 — under every ``PYTHONHASHSEED``.

The cross-process property: a journal crashed in a child under one hash
seed and recovered in a child under another re-derives its prefix with no
``RT003`` divergence and lands on the uncrashed final states.  The
scheduler oracle is checked in each child as well.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from repro.analysis.conditions import Cond, ConditionDomains
from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.model.builder import ProcessBuilder
from repro.runtime import Runtime, SimulatedCrash, compile_program
from repro.scheduler.engine import ConstraintScheduler

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: every case's plan; ``g2=F`` cases are the ones the seed used to move.
PLANS = {
    "case-%d" % index: {"g1": g1, "g2": g2}
    for index, (g1, g2) in enumerate(
        [("T", "F"), ("F", "F"), ("T", "T"), ("F", "T"), ("T", "F"), ("T", "F")]
    )
}
SEED_PAIRS = tuple((seed, (seed + 2) % 8) for seed in range(8))


def two_guard_set():
    process = (
        ProcessBuilder("two-guards")
        .guard("g1", outcomes=["F", "T"], duration=5.0)
        .guard("g2", outcomes=["F", "T"], duration=1.0)
        .compute("a", duration=1.0)
        .compute("b", duration=1.0)
        .build()
    )
    sc = SynchronizationConstraintSet(
        activities=["g1", "g2", "a", "b"],
        constraints=[
            Constraint("g1", "a", "T"),
            Constraint("g2", "a", "T"),
            Constraint("a", "b"),
        ],
        guards={"a": frozenset({Cond("g1", "T"), Cond("g2", "T")})},
        domains=ConditionDomains(),
    )
    return process, sc


def _states(report):
    return {case: list(map(list, state[1])) + [list(state[2]), state[0]]
            for case, state in sorted(report.final_states().items())}


def _serve_child(mode: str, path: str) -> dict:
    """Runs in a child interpreter; returns a JSON-able summary."""
    process, sc = two_guard_set()
    program = compile_program(process, sc)
    if mode == "crash":
        scheduler = ConstraintScheduler(process, sc)
        b_starts = sorted(
            {
                scheduler.run(outcomes=plan).trace.records["b"].start
                for plan in PLANS.values()
                if plan["g2"] == "F"
            }
        )
        clean = Runtime(program, shards=2)
        clean.submit_batch(PLANS)
        clean_report = clean.run()
        measured = Runtime(program, shards=2, journal_path=path + ".clean")
        measured.submit_batch(PLANS)
        records = measured.run().metrics.journal_records
        measured.close()
        crashing = Runtime(
            program, shards=2, journal_path=path, crash_after=records * 2 // 3
        )
        try:
            crashing.submit_batch(PLANS)
            crashing.run()
            raise AssertionError("the crash point lies beyond the journal")
        except SimulatedCrash:
            pass
        finally:
            crashing.close()
        return {"scheduler_b_starts": b_starts, "clean": _states(clean_report)}
    recovered = Runtime.recover(path, program, shards=2)
    for case, plan in PLANS.items():
        if case not in recovered.known_cases:
            recovered.submit(case, plan)
    report = recovered.run()
    recovered.close()
    return {
        "codes": sorted(d.code for d in report.diagnostics),
        "states": _states(report),
    }


def _in_child(seed: int, mode: str, path: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    code = (
        "import json, sys\n"
        "from tests.test_runtime_hashseed import _serve_child\n"
        "print(json.dumps(_serve_child(sys.argv[1], sys.argv[2])))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, mode, path],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestTwoGuardSchedule:
    def test_either_failed_guard_skips_at_once(self):
        process, sc = two_guard_set()
        program = compile_program(process, sc)
        runtime = Runtime(program)
        runtime.submit_batch(PLANS)
        report = runtime.run()
        for case, plan in PLANS.items():
            result = report.results[case]
            starts = {name: start for name, start, _ in result.executed}
            if plan == {"g1": "T", "g2": "T"}:
                assert starts["a"] == 5.0 and starts["b"] == 6.0
                continue
            assert "a" in result.skipped
            expected_b = 1.0 if plan["g2"] == "F" else 5.0
            assert starts["b"] == expected_b, case
            scheduled = ConstraintScheduler(process, sc).run(outcomes=plan)
            assert scheduled.trace.records["b"].start == expected_b
            assert scheduled.makespan == result.makespan

    def test_crash_and_recover_across_hash_seeds(self, tmp_path):
        process, sc = two_guard_set()
        runtime = Runtime(compile_program(process, sc), shards=2)
        runtime.submit_batch(PLANS)
        expected = _states(runtime.run())

        for crash_seed, recover_seed in SEED_PAIRS:
            path = str(tmp_path / ("wal-%d-%d.jsonl" % (crash_seed, recover_seed)))
            crashed = _in_child(crash_seed, "crash", path)
            assert crashed["scheduler_b_starts"] == [1.0], crash_seed
            assert crashed["clean"] == expected, crash_seed
            recovered = _in_child(recover_seed, "recover", path)
            assert "RT003" not in recovered["codes"], (crash_seed, recover_seed)
            assert recovered["codes"] == []
            assert recovered["states"] == expected, (crash_seed, recover_seed)
