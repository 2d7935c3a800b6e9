"""Tests for the coordinator: sharding, admission control, retries, metrics.

Covers the serving-side behaviors layered on top of per-case execution:
stable shard placement, bounded in-flight admission with queue promotion
and load shedding (``RT002``), deterministic lossy channels with retry
exhaustion (``RT001``), and the metrics snapshot.
"""

from __future__ import annotations

import pytest

from repro.runtime import (
    ADMIT,
    QUEUE,
    REJECT,
    AdmissionController,
    RetryPolicies,
    RetryPolicy,
    Runtime,
    ShardedStore,
    program_from_weave,
)


@pytest.fixture(scope="module")
def program(purchasing_weave):
    return program_from_weave(purchasing_weave, "minimal", target="runtime")


def plans(count):
    return {
        "case-%03d" % index: {"if_au": "T" if index % 2 == 0 else "F"}
        for index in range(count)
    }


class TestSharding:
    def test_placement_is_stable_across_stores(self):
        first = ShardedStore(8)
        second = ShardedStore(8)
        for case in ("case-%03d" % i for i in range(50)):
            assert first.shard_of(case).index == second.shard_of(case).index

    def test_all_shards_get_work(self, program):
        runtime = Runtime(program, shards=4)
        runtime.submit_batch(plans(64))
        report = runtime.run()
        assert all(count > 0 for count in report.metrics.shard_assigned)
        assert sum(report.metrics.shard_assigned) == 64

    def test_single_shard_is_allowed(self, program):
        runtime = Runtime(program, shards=1)
        runtime.submit_batch(plans(5))
        assert runtime.run().metrics.completed == 5

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedStore(0)


class TestInterleavedScheduling:
    def test_batched_run_matches_sequential_results(self, program):
        load = plans(20)
        batched = Runtime(program, shards=4, batch=2)
        batched.submit_batch(load)
        wide = Runtime(program, shards=1, batch=1000)
        wide.submit_batch(load)
        assert batched.run().final_states() == wide.run().final_states()

    def test_minimal_and_full_serve_identical_states(self, purchasing_weave):
        load = plans(32)
        by_set = {}
        for which in ("minimal", "full"):
            runtime = Runtime(program_from_weave(purchasing_weave, which, target="runtime"), shards=4)
            runtime.submit_batch(load)
            by_set[which] = runtime.run()
        assert (
            by_set["minimal"].final_states() == by_set["full"].final_states()
        )
        assert by_set["minimal"].metrics.checks < by_set["full"].metrics.checks


class TestAdmissionController:
    def test_verdict_progression(self):
        control = AdmissionController(max_in_flight=1, max_queue=1)
        assert control.offer("a", {}) == ADMIT
        assert control.offer("b", {}) == QUEUE
        assert control.offer("c", {}) == REJECT
        assert control.rejected == 1
        promoted = control.complete()
        assert promoted == ("b", {})
        assert control.in_flight == 1

    def test_unbounded_by_default(self):
        control = AdmissionController()
        assert all(control.offer("c%d" % i, {}) == ADMIT for i in range(100))

    def test_runtime_respects_bounds(self, program):
        runtime = Runtime(program, shards=2, max_in_flight=5, max_queue=10)
        admitted = [runtime.submit("bp-%02d" % i) for i in range(20)]
        assert admitted.count(False) == 5
        report = runtime.run()
        assert report.metrics.peak_in_flight == 5
        assert report.metrics.peak_queue_depth == 10
        assert report.metrics.rejected == 5
        assert report.metrics.completed == 15
        rejections = [d for d in report.diagnostics if d.code == "RT002"]
        assert len(rejections) == 5
        # RT002 is backpressure, not failure: warning severity
        assert all(d.severity.name == "WARNING" for d in rejections)

    def test_queued_cases_complete_via_promotion(self, program):
        runtime = Runtime(program, shards=2, max_in_flight=2)
        load = plans(12)
        assert runtime.submit_batch(load) == ()
        report = runtime.run()
        assert report.completed_cases() == tuple(sorted(load))
        assert report.metrics.peak_in_flight == 2


class TestRetryPolicies:
    def test_delivery_is_deterministic(self):
        policy = RetryPolicy(failure_rate=0.5)
        draws = [
            policy.attempt_delivered(7, "case", "svc", "port", attempt)
            for attempt in range(1, 20)
        ]
        again = [
            policy.attempt_delivered(7, "case", "svc", "port", attempt)
            for attempt in range(1, 20)
        ]
        assert draws == again
        assert True in draws and False in draws

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(failure_rate=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_per_service_lookup(self):
        special = RetryPolicy(max_attempts=9)
        policies = RetryPolicies(per_service={"bank": special})
        assert policies.for_service("bank") is special
        assert policies.for_service("other") is policies.default

    def test_lossy_channel_recovers_with_retries(self, program):
        policies = RetryPolicies(
            default=RetryPolicy(failure_rate=0.3, timeout=1.0, max_attempts=6)
        )
        runtime = Runtime(program, policies=policies, seed=7)
        runtime.submit_batch(plans(40))
        report = runtime.run()
        assert report.metrics.completed == 40
        assert report.metrics.retries > 0

    def test_retries_delay_but_preserve_work(self, program):
        lossless = Runtime(program)
        lossless.submit("c", {"if_au": "T"})
        clean = lossless.run().results["c"]

        policies = RetryPolicies(
            default=RetryPolicy(failure_rate=0.4, timeout=3.0, max_attempts=8)
        )
        lossy_runtime = Runtime(program, policies=policies, seed=3)
        lossy_runtime.submit("c", {"if_au": "T"})
        lossy = lossy_runtime.run().results["c"]
        assert lossy.status == "completed"
        # same work done, same branch decisions -- only timing differs
        assert [name for name, _s, _f in lossy.executed] != []
        assert sorted(n for n, _s, _f in lossy.executed) == sorted(
            n for n, _s, _f in clean.executed
        )
        assert lossy.outcomes == clean.outcomes

    def test_exhaustion_fails_case_with_rt001(self, program):
        policies = RetryPolicies(
            default=RetryPolicy(failure_rate=1.0, timeout=1.0, max_attempts=2)
        )
        runtime = Runtime(program, policies=policies)
        runtime.submit("doomed")
        report = runtime.run()
        assert report.metrics.failed == 1
        assert [d.code for d in report.diagnostics] == ["RT001"]
        assert report.results["doomed"].status == "failed"
        assert "unreachable" in (report.results["doomed"].reason or "")
        assert report.exit_code() == 1

    def test_unaffected_cases_still_complete(self, program):
        # Purchase is only invoked on the approved branch; declined cases
        # never touch the dead service and must keep completing.
        policies = RetryPolicies(
            per_service={
                "Purchase": RetryPolicy(failure_rate=1.0, timeout=1.0, max_attempts=1)
            }
        )
        runtime = Runtime(program, policies=policies)
        runtime.submit("hit", {"if_au": "T"})
        runtime.submit("missed", {"if_au": "F"})
        report = runtime.run()
        by_status = {c: r.status for c, r in report.results.items()}
        assert by_status == {"hit": "failed", "missed": "completed"}


class TestMetrics:
    def test_snapshot_shape(self, program):
        runtime = Runtime(program, shards=3)
        runtime.submit_batch(plans(9))
        metrics = runtime.run().metrics
        assert metrics.submitted == metrics.admitted == metrics.completed == 9
        assert metrics.shards == 3
        assert len(metrics.shard_assigned) == 3
        assert metrics.wall_seconds > 0
        assert metrics.cases_per_second > 0
        assert metrics.latency_p50 > 0
        assert metrics.latency_p95 >= metrics.latency_p50
        assert metrics.checks_per_transition > 0

    def test_summary_is_operator_readable(self, program):
        runtime = Runtime(program)
        runtime.submit_batch(plans(4))
        text = runtime.run().summary()
        assert "cases/sec" in text
        assert "per transition" in text
        assert "p50" in text and "p95" in text

    def test_lint_report_integration(self, program):
        runtime = Runtime(program)
        runtime.submit_batch(plans(3))
        report = runtime.run()
        lint = report.to_lint_report()
        assert lint.rules_run == (
            "RT001",
            "RT002",
            "RT003",
            "RT004",
            "RT005",
            "RT006",
            "RT007",
        )
        assert report.exit_code() == 0
