"""S1 — minimization cost scaling: naive Definition-6 loop vs. the
ancestor-pruned fast algorithm (reference frozenset path) vs. the interned
bitset kernel, over synthetic processes of growing size.

All paths produce identical minimal sets (property-tested in
``tests/test_core_kernel.py`` and asserted again here at n=40); the fast
algorithm prunes the equivalence check to the removed edge's source and its
ancestors, and the kernel additionally memoizes closures per node with
incremental invalidation, which is what lets it complete the n=200 and
n=300 rows that are impractical on the reference path.

``test_emit_bench_core_json`` writes the machine-readable scaling record to
``BENCH_core.json`` at the repository root (also uploaded by the CI
``core-perf-smoke`` job).
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from benchmarks.stamp import environment
from repro.core.closure import Semantics
from repro.core.kernel import KernelStats
from repro.core.minimize import minimize_fast, minimize_naive
from repro.workloads.synthetic import SyntheticSpec, generate_dependency_set

#: Sizes the reference (frozenset) paths are timed at.
SIZES = [40, 80, 120]
#: Sizes the kernel path is timed at — the 200/300 rows exist to show the
#: kernel completes where the reference becomes impractical.
KERNEL_SIZES = [40, 80, 120, 200, 300]

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_core.json"


def _translated_asc(n_activities: int):
    from repro.core.translation import (
        invoke_bindings_from_process,
        translate_service_dependencies,
    )
    from repro.dscl.compiler import compile_dependencies

    process, dependencies = generate_dependency_set(
        SyntheticSpec(
            n_activities=n_activities,
            n_services=4,
            n_branches=2,
            coop_density=0.8,
            seed=42,
        )
    )
    merged = compile_dependencies(process, dependencies).sc
    return translate_service_dependencies(
        merged, invoke_bindings_from_process(process)
    ).asc


@pytest.fixture(scope="module")
def translated_sets():
    return {n: _translated_asc(n) for n in KERNEL_SIZES}


@pytest.mark.benchmark(min_rounds=3, max_time=1.0)
@pytest.mark.parametrize("n_activities", KERNEL_SIZES)
def test_scaling_minimize_kernel(
    benchmark, translated_sets, n_activities, artifact_sink
):
    asc = translated_sets[n_activities]
    minimal = benchmark(minimize_fast, asc, Semantics.GUARD_AWARE)
    assert len(minimal) <= len(asc)
    artifact_sink(
        "s1_scaling_kernel_%d" % n_activities,
        "S1 bitset-kernel minimizer, n=%d activities: %d -> %d constraints"
        % (n_activities, len(asc), len(minimal)),
    )


@pytest.mark.benchmark(min_rounds=3, max_time=1.0)
@pytest.mark.parametrize("n_activities", SIZES)
def test_scaling_minimize_fast_reference(
    benchmark, translated_sets, n_activities, artifact_sink
):
    asc = translated_sets[n_activities]
    minimal = benchmark(minimize_fast, asc, Semantics.GUARD_AWARE, kernel=False)
    assert len(minimal) <= len(asc)
    artifact_sink(
        "s1_scaling_fast_%d" % n_activities,
        "S1 fast minimizer (reference path), n=%d activities: "
        "%d -> %d constraints" % (n_activities, len(asc), len(minimal)),
    )


@pytest.mark.benchmark(min_rounds=3, max_time=1.0)
@pytest.mark.parametrize("n_activities", SIZES[:2])
def test_scaling_minimize_naive(
    benchmark, translated_sets, n_activities, artifact_sink
):
    asc = translated_sets[n_activities]
    minimal = benchmark(minimize_naive, asc, Semantics.GUARD_AWARE)
    fast = minimize_fast(asc, Semantics.GUARD_AWARE)
    assert set(minimal.constraints) == set(fast.constraints)
    artifact_sink(
        "s1_scaling_naive_%d" % n_activities,
        "S1 naive minimizer, n=%d activities: %d -> %d constraints "
        "(identical set to fast)" % (n_activities, len(asc), len(minimal)),
    )


def test_kernel_reference_identical_n40(translated_sets):
    """The CI smoke assertion: kernel and reference agree at n=40."""
    asc = translated_sets[40]
    for semantics in (
        Semantics.STRICT,
        Semantics.GUARD_AWARE,
        Semantics.REACHABILITY,
    ):
        kernel = minimize_fast(asc, semantics, kernel=True)
        reference = minimize_fast(asc, semantics, kernel=False)
        assert kernel.constraints == reference.constraints


def _best_of(repeats, fn, *args, **kwargs):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_emit_bench_core_json(translated_sets):
    """Machine-readable S1 scaling record (see module docstring)."""
    rows = []
    for n_activities in KERNEL_SIZES:
        asc = translated_sets[n_activities]
        stats = KernelStats()
        kernel_seconds, kernel_minimal = _best_of(
            3, minimize_fast, asc, Semantics.GUARD_AWARE, kernel=True, stats=stats
        )
        # KernelStats accumulates across the repeats; normalize to one run.
        runs = 3
        row = {
            "n_activities": n_activities,
            "constraints": len(asc),
            "minimal": len(kernel_minimal),
            "kernel_seconds": round(kernel_seconds, 6),
            "reference_seconds": None,
            "speedup": None,
            "identical_minimal_sets": None,
            "kernel_stats": {
                "closures_computed": stats.closures_computed // runs,
                "closure_cache_hits": stats.closure_cache_hits // runs,
                "closure_cache_hit_rate": round(stats.closure_cache_hit_rate, 4),
                "subsumption_tests": stats.subsumption_tests // runs,
                "candidates": stats.candidates // runs,
                "removed": stats.removed // runs,
            },
        }
        if n_activities <= max(SIZES):
            reference_seconds, reference_minimal = _best_of(
                1, minimize_fast, asc, Semantics.GUARD_AWARE, kernel=False
            )
            row["reference_seconds"] = round(reference_seconds, 6)
            row["speedup"] = round(reference_seconds / kernel_seconds, 2)
            row["identical_minimal_sets"] = (
                kernel_minimal.constraints == reference_minimal.constraints
            )
            assert row["identical_minimal_sets"]
        rows.append(row)

    timed = [r for r in rows if r["speedup"] is not None]
    payload = {
        "benchmark": "S1 minimization scaling (bitset kernel vs reference)",
        "workload": (
            "synthetic: n_services=4, n_branches=2, coop_density=0.8, seed=42"
        ),
        "semantics": Semantics.GUARD_AWARE.value,
        "generated_by": (
            "benchmarks/bench_scaling_minimize.py::test_emit_bench_core_json"
        ),
        "environment": environment(),
        "reference_timed_up_to": max(SIZES),
        "min_speedup_timed": min(r["speedup"] for r in timed),
        "sizes": rows,
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    # The tentpole acceptance bar: >= 5x over the reference at n=120.
    at_120 = next(r for r in rows if r["n_activities"] == 120)
    assert at_120["speedup"] >= 5.0
    # And the kernel completes the n=300 row.
    assert rows[-1]["n_activities"] == 300 and rows[-1]["minimal"] > 0
