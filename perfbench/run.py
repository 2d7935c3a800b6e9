"""The repository benchmark: one entry point, four workloads, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wal-purchasing --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Each run goes through the same phases on its workload's own processes:

1. *setup* -- three fresh interpreters each import ``repro.cli`` and build
   the ready state (inputs, weave, compile); ``setup_s`` is their median;
2. *design* -- weave, compile, verify and redeploy every process of the
   design set, a fixed number of passes;
3. *serve* -- a closed loop with one client for ``--seconds``: each
   request serves a fresh case load and waits for the report;
4. *recover* -- crash a journaled request at half its records, then time
   ``recover`` plus the run to completion;
5. *audit* -- ingest a journal, replay it for conformance, then gather
   discovery statistics and mine them.

In an untraced run the set-up probes, design steps, recovery probes and
audit passes are spread evenly between the closed-loop requests.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run of fixed work that wraps each layer's public calls (see
``tracing.py``) and prints the per-layer metrics.  Every output is
checked by ``oracle.py``; a failed check or an exception counts as a
failed operation.  The last stdout line is the JSON result; the full
record (environment stamp, percentiles, span table) goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from typing import NamedTuple, Optional

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 3
RECOVERY_PROBES = 21
#: minimum samples beyond the reported tail percentile.
TAIL_BEYOND = 10
#: nominal duration of ``reference_op`` on the reference host (2-vCPU, Python 3.11).
REFERENCE_SECONDS = 0.0070
#: a call inside an operation that runs longer gets reference timings of its own.
LONG_CALL = 0.02
#: untraced/traced request pairs per 10 s of ``--seconds`` in a traced run.
TRACE_PAIRS = 12
SHARDS = 8
WORKERS = 2


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and insist it is used."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program sources at %s" % SRC)
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from %s, not %s" % (repro.__file__, SRC))


#: every CPU this process may use, taken before any pinning.
ALL_CPUS = sorted(os.sched_getaffinity(0))


@contextmanager
def all_cpus():
    """Let the block (and processes it forks) use every CPU again."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def reference_op() -> int:
    """A fixed piece of pure-Python work that uses no program code.

    Timed around every operation, it measures how fast the host runs
    Python at that moment; see ``summarize`` for how it is used.  It
    makes only integers and strings, which the garbage collector does
    not track, and ``timed_reference`` keeps the collector off while it
    runs, so the program's heap and garbage cannot change its time.
    """
    total = 0
    for i in range(20000):
        total += len(str(i * 7919)) + (i ^ (i >> 3)) % 17
    return total


def timed_reference(cpus) -> float:
    """Mean ``reference_op`` time over ``cpus``, pinned to each in turn."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            reference_op()
            total += time.perf_counter() - started
        return total / len(cpus)
    finally:
        if enabled:
            gc.enable()


class Tally:
    """Attempted and failed operations; a failure is a failed check or an exception.

    Each operation runs pinned to the next CPU in turn.  On a machine
    whose CPUs run at different speeds (shared hosts), a process left
    where the scheduler first put it would measure one CPU for a whole
    run; rotating makes every run sample all of them alike.  Right
    before and right after each operation, ``reference_op`` is timed on
    the CPUs it runs on (on every CPU for an operation that runs on all
    of them); see ``call`` and ``factor``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: ``(start, end, cpus, seconds)`` of every reference timing, in order.
        self.reference: list = []
        #: the CPUs of the current operation.
        self.cpus: tuple = ()
        #: ``(start, end, cpus)`` of the last operation.
        self.last: Optional[tuple] = None

    def _reference(self) -> None:
        started = time.perf_counter()
        seconds = timed_reference(self.cpus)
        self.reference.append((started, started + seconds, self.cpus, seconds))

    def run(self, operation, *args, cpus=None):
        """Run one operation returning ``(value, failures)``; None on exception.

        ``cpus`` are the CPUs the operation runs on; by default the next
        one in turn.
        """
        self.attempted += 1
        self.cpus = tuple(cpus or (ALL_CPUS[self.attempted % len(ALL_CPUS)],))
        self._reference()
        started = time.perf_counter()
        try:
            value, failures = operation(*args)
        except Exception:  # an operation failing must not stop the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            self.last = (started, time.perf_counter(), self.cpus)
            self._reference()
        if failures:
            name = getattr(operation, "func", operation).__name__
            print("perfbench: %s failed %d check(s)" % (name, failures), file=sys.stderr)
            self.failed += 1
        return value

    def call(self, function, *args, **kwargs):
        """Time one call inside an operation; returns ``(value, span)``.

        A call that starts more than ``LONG_CALL`` after the last
        reference timing, or lasts longer than that, gets a reference
        timing right before or right after it, so ``factor`` brackets it
        closely.
        """
        if time.perf_counter() - self.reference[-1][1] > LONG_CALL:
            self._reference()
        started = time.perf_counter()
        value = function(*args, **kwargs)
        ended = time.perf_counter()
        if ended - started > LONG_CALL:
            self._reference()
        return value, (started, ended, self.cpus)

    def factor(self, span: tuple) -> float:
        """Host-speed factor during ``span`` (an operation's or a call's).

        Nominal ``reference_op`` time over the mean of the two reference
        timings on the same CPUs that bracket the span most closely.
        """
        start, end, cpus = span
        timings = [timing for timing in self.reference if timing[2] == cpus]
        before = max((t for t in timings if t[1] <= start), key=lambda t: t[1])
        after = min((t for t in timings if t[0] >= end), key=lambda t: t[0])
        return 2 * REFERENCE_SECONDS / (before[3] + after[3])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Context:
    def __init__(self, args, ready, work: str, tracer=None) -> None:
        from oracle import ScheduleOracle

        self.workload = ready.workload
        self.ready = ready
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = work
        self.tracer = tracer
        self.tally = Tally()
        self.oracle = ScheduleOracle(ready.result)
        #: process key -> [registry, (added, removed) edit, redeploys done]
        self.registries: dict = {}
        self.details: dict = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def phase(self, name: str):
        """Enter a benchmark phase; in a traced run, wrap every layer call."""
        if self.tracer is None:
            return nullcontext()
        from tracing import traced_layers

        self.tracer.phase = name
        return traced_layers(self.tracer)

    def collect_children(self) -> None:
        if self.tracer is not None:
            self.tracer.collect()


# -- design --------------------------------------------------------------------------


def design_step(ctx: Context, pinned: dict, key: str):
    """Weave, compile, verify and redeploy one process of the design set.

    Each process keeps one registry for the run, built from its first
    weave (untimed).  Its redeploys alternate between applying the edit
    and reverting it, so every pass times one general-path redeploy and
    lands on a pinned set.
    """
    from oracle import check_design, choose_edit
    from repro.core.pipeline import DSCWeaver
    from repro.deploy import ProgramRegistry
    from repro.programs import program_from_weave
    from repro.verify.engine import verify_program

    def timed(name, function, *args, **kwargs):
        def spanned():
            with ctx.span(name):
                return function(*args, **kwargs)

        return ctx.tally.call(spanned)

    process, dependencies = ctx.ready.inputs[key]
    result, weave = timed("weave", DSCWeaver().weave, process, dependencies)
    with ctx.span("runtime.compile"):
        program = program_from_weave(result, "minimal", target="runtime")
    verification, verify = timed("verify", verify_program, program)
    if key not in ctx.registries:
        with ctx.span("deploy.base"):
            registry = ProgramRegistry.from_weave(result)
        ctx.registries[key] = [registry, choose_edit(registry), 0]
    entry = ctx.registries[key]
    registry, (added, removed), done = entry
    revert = done % 2 == 1
    if revert:
        added, removed = removed, added
    redeployed, redeploy = timed("deploy.redeploy", registry.redeploy,
                                 added=(added,), removed=(removed,))
    entry[2] += 1
    step = {
        "key": key,
        "revert": revert,
        # (start, end, cpus) of each timed call; see Tally.factor
        "spans": {"weave_s": weave, "verify_s": verify, "redeploy_s": redeploy},
        "states": verification.stats.states,
        "kernel": result.report.kernel_stats or {},
    }
    return step, check_design(pinned[key], result.minimal, verification,
                              redeployed.version.minimal, revert)


def design_order(ctx: Context):
    order = list(ctx.workload.design)
    random.Random(ctx.seed).shuffle(order)
    return order


def design_steps(ctx: Context, pinned: dict, keys):
    """Several design steps as one scheduled operation."""
    steps, failures = [], 0
    for key in keys:
        step, failed = design_step(ctx, pinned, key)
        steps.append(step)
        failures += failed
    return steps, failures


# -- serving -------------------------------------------------------------------------


class Served(NamedTuple):
    seconds: float
    cases: int
    report: object
    plans: dict
    bindings: Optional[dict]
    counters: Optional[dict]


def serve_request(ctx: Context, name: str, size: int, journal: bool,
                  crash_after=None, load: Optional[str] = None) -> Served:
    """One closed-loop request: serve a fresh case load, wait for its report.

    ``size`` is cases (orders for the pool workload), named after
    ``load`` (default ``name``); the journal, if any, goes to
    ``<work>/<name>``.  A crash injected through ``crash_after``
    propagates.
    """
    from repro.runtime import Runtime, WorkerPool

    prefix = "s%d-%s" % (ctx.seed, load or name)
    ready = ctx.ready
    path = os.path.join(ctx.work, name) if journal else None
    clock = time.perf_counter
    if ctx.workload.pool:
        from workloads import orders_load

        plans, bindings = orders_load(prefix, size)
        started = clock()
        pool = WorkerPool(ready.program, workers=WORKERS, journal_dir=path,
                          objects=ready.spec, crash_after=crash_after)
        with ctx.span("workers.serve"), all_cpus():
            report = pool.serve(plans, bindings)
        seconds = clock() - started
        ctx.collect_children()
        return Served(seconds, len(plans), report, plans, bindings, pool.object_counters())
    from workloads import case_load

    plans = case_load(ready.program, prefix, size, ctx.seed)
    started = clock()
    runtime = Runtime(ready.program, shards=SHARDS, journal_path=path, crash_after=crash_after)
    runtime.submit_batch(plans)
    with ctx.span("workers.serve"):
        report = runtime.run()
    runtime.close()
    seconds = clock() - started
    return Served(seconds, len(plans), report, plans, None, None)


def check_request(ctx: Context, served: Served) -> int:
    from oracle import check_orders, check_serving

    if served.bindings is not None:
        return check_orders(served.report, served.counters, served.plans,
                            served.bindings, ctx.oracle)
    return check_serving(served.report, served.plans, ctx.oracle)


def checked_request(ctx: Context, index: int):
    name = "req-%d" % index
    served = serve_request(ctx, name, ctx.workload.request, ctx.workload.journal)
    _remove(os.path.join(ctx.work, name))
    return served, check_request(ctx, served)


def traced_serve_phase(ctx: Context):
    """Alternate untraced and traced requests; the first traced one is sampled."""
    from tracing import traced_layers

    tracer = ctx.tracer
    pairs = max(3, round(TRACE_PAIRS * ctx.seconds / 10))
    plain, traced, reports = [], [], []
    tracer.phase = "serve"
    ctx.tally.run(checked_request, ctx, 0)  # warm-up
    for pair in range(pairs):
        served = ctx.tally.run(checked_request, ctx, 2 * pair + 1)
        if served is not None:
            plain.append(served.seconds)
        if pair == 0:
            tracer.sample = []
        with traced_layers(tracer):
            served = ctx.tally.run(checked_request, ctx, 2 * pair + 2)
        if pair == 0:
            ctx.details["sample"], tracer.sample = tracer.sample, None
        if served is not None:
            traced.append(served.seconds)
            reports.append(served)
    return plain, traced, reports


# -- recovery ------------------------------------------------------------------------


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _crash_point(path: str) -> int:
    """Half the records of a journal, past every admit record."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    admits = sum(1 for line in lines if '"rt":"admit"' in line)
    return max(admits + 1, len(lines) // 2)


def _segments(journal_dir: str):
    return sorted(
        os.path.join(journal_dir, name)
        for name in os.listdir(journal_dir)
        if name.startswith("journal.")
    )


def _journal_paths(ctx: Context, name: str):
    path = os.path.join(ctx.work, name)
    return _segments(path) if ctx.workload.pool else [path]


def recovery_setup(ctx: Context):
    """Serve the probe request uncrashed, then crashed at half its records.

    Returns the expected final states, the crashed journal (kept as a
    template each probe recovers a fresh copy of) and the journaled
    prefix length of its in-flight cases.
    """
    from repro.runtime import SimulatedCrash, read_journal

    served = serve_request(ctx, "probe-base", ctx.workload.probe, journal=True,
                           load="probe")
    points = [_crash_point(path) for path in _journal_paths(ctx, "probe-base")]
    crash = dict(enumerate(points)) if ctx.workload.pool else points[0]
    _remove(os.path.join(ctx.work, "probe-base"))
    try:
        serve_request(ctx, "probe-crashed", ctx.workload.probe, journal=True,
                      crash_after=crash, load="probe")
        return None, 1  # the injected crash did not fire
    except SimulatedCrash:
        ctx.collect_children()
    prefix = sum(
        len(case.events)
        for path in _journal_paths(ctx, "probe-crashed")
        for case in read_journal(path).in_flight()
    )
    template = os.path.join(ctx.work, "probe-crashed")
    return (served.report.final_states(), template, prefix), check_request(ctx, served)


def recovery_probe(ctx: Context, expected, template: str, prefix: int):
    """Recover a fresh copy of the crashed journal; time recover + run to completion."""
    from oracle import check_same_states
    from repro.runtime import Runtime, WorkerPool

    path = os.path.join(ctx.work, "probe")
    if ctx.workload.pool:
        shutil.copytree(template, path)
    else:
        shutil.copyfile(template, path)
    phase = None
    if ctx.tracer is not None:
        phase, ctx.tracer.phase = ctx.tracer.phase, "recover"
    started = time.perf_counter()
    if ctx.workload.pool:
        with all_cpus():
            report = WorkerPool.recover(path, ctx.ready.program, objects=ctx.ready.spec)
    else:
        runtime = Runtime.recover(path, ctx.ready.program, shards=SHARDS)
        report = runtime.run()
        runtime.close()
    seconds = time.perf_counter() - started
    if ctx.tracer is not None:
        ctx.collect_children()
        ctx.tracer.phase = phase
    _remove(path)
    return (seconds, prefix), check_same_states(report, expected)


def recovery_phase(ctx: Context):
    """Traced run: the baseline request, then every probe in a row."""
    probes = []
    with ctx.phase("recover-prep"):
        baseline = ctx.tally.run(recovery_setup, ctx)
        for _ in range(RECOVERY_PROBES if baseline is not None else 0):
            value = ctx.tally.run(recovery_probe, ctx, *baseline)
            if value is not None:
                probes.append(value)
    return probes


# -- audit -----------------------------------------------------------------------------


def audit_pass(ctx: Context, paths, cases: int, monitor):
    from oracle import check_audit
    from repro.conformance import EventLog, replay
    from repro.discover.ingest import log_from_journal
    from repro.discover.mine import mine
    from repro.discover.stats import LogStatistics

    clock = time.perf_counter
    started = clock()
    with ctx.span("discover.ingest"):
        log = EventLog(event for path in paths for event in log_from_journal(path).events)
    with ctx.span("conformance.replay"):
        report = replay(log, monitor)
    with ctx.span("discover.stats"):
        stats = LogStatistics.from_log(log)
    with ctx.span("discover.mine"):
        discovered = mine(stats)
    seconds = clock() - started
    summary = {
        "events": len(log.events),
        "seconds": seconds,
        "checks": report.checks,
        "candidates": len(discovered.candidates),
    }
    return summary, check_audit(report, cases)


def audit_journal(ctx: Context):
    served = serve_request(ctx, "audit", ctx.workload.audit, journal=True)
    return (_journal_paths(ctx, "audit"), served.cases), check_request(ctx, served)


def audit_monitor(ctx: Context):
    from repro.programs import program_from_weave

    return program_from_weave(ctx.ready.result, "minimal")


def audit_phase(ctx: Context):
    """Traced run: build the journal, then every audit pass in a row."""
    with ctx.phase("audit-prep"):
        journal = ctx.tally.run(audit_journal, ctx)
    passes = []
    monitor = audit_monitor(ctx)
    with ctx.phase("audit"):
        for _ in range(ctx.workload.audit_passes if journal is not None else 0):
            summary = ctx.tally.run(audit_pass, ctx, *journal, monitor)
            if summary is not None:
                passes.append(summary)
    return passes


# -- setup -----------------------------------------------------------------------------


def setup_probe(workload: str):
    """Time one fresh-interpreter set-up (see ``setup_probe.py``)."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"], 0


# -- metrics -------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.mean(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), 100.0, count
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count, count


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


DESIGN_TIMES = ("weave_s", "verify_s", "redeploy_s")


def summarize(results: dict, factor=None) -> dict:
    """The end-to-end metrics from the operations of an untraced run.

    Every sample is ``(value, span)``, ``span`` being the operation's
    ``Tally.last``; a design step carries the span of each timed call.
    On a shared host the speed at which Python runs swings by half and
    more within a second, and drifts between runs of identical work;
    with ``factor`` (``Tally.factor``), each operation's (or design
    call's) time is therefore multiplied by the host-speed factor during
    it, which reports it at the reference host speed.  Without it the
    values are as measured.

    ``cases_per_s`` is a ratio of sums over every request of the run;
    latencies are medians and the tail percentile; the audit rate is
    the median pass's.  A design time is each process's median call,
    summed over the design set; for ``redeploy_s``, the mean of the
    median in the passes that apply the edit and in those that revert
    it, which take different times.
    """

    def at(seconds, span):
        return seconds * factor(span) if factor else seconds

    serve = [(at(seconds, span), cases) for (seconds, cases), span in results["serve"]]
    times = [seconds for seconds, _ in serve]
    design: dict = {name: {} for name in DESIGN_TIMES}
    for step, _ in results["design"]:
        for name, span in step["spans"].items():
            group = (step["key"], name == "redeploy_s" and step["revert"])
            design[name].setdefault(group, []).append(at(span[1] - span[0], span))
    audits = [audit["events"] / at(audit["seconds"], span) for audit, span in results["audit"]]
    metrics = {
        "setup_s": (_median([at(seconds, span) for seconds, span in results["setup"]]), "s"),
        "cases_per_s": (sum(cases for _, cases in serve) / sum(times) if times else 0.0,
                        "cases/s"),
        "request_p50_ms": (_median(times) * 1e3, "ms"),
        "request_tail_ms": (tail(times)[0] * 1e3, "ms"),
        "recover_p50_ms": (
            _median([at(seconds, span) for (seconds, _), span in results["recover"]]) * 1e3,
            "ms"),
        "audit_events_per_s": (_median(audits), "events/s"),
    }
    for name in DESIGN_TIMES:
        medians: dict = {}
        for (key, _), values in design[name].items():
            medians.setdefault(key, []).append(_median(values))
        metrics[name] = (sum(_mean(values) for values in medians.values()), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def end_to_end(ctx: Context, results: dict):
    """Scaled end-to-end metrics; the raw values go to the result file."""
    raw = summarize(results)
    _, percentile, count = tail([seconds for (seconds, _), _ in results["serve"]])
    ctx.details.update(
        request_tail={"percentile": percentile, "samples": count},
        setup_s_samples=[seconds for seconds, _ in results["setup"]],
        design_steps=len(results["design"]),
        recovery_probes=len(results["recover"]),
        audit_passes=len(results["audit"]),
        host_slowdown=_median([timing[3] for timing in ctx.tally.reference])
        / REFERENCE_SECONDS,
        reference_samples=len(ctx.tally.reference),
        raw_metrics={name: value for name, (value, _) in raw.items()},
    )
    return summarize(results, ctx.tally.factor)


def interleaved_run(args, ctx: Context) -> dict:
    """Untraced run: every operation spread evenly over ``--seconds``.

    Closed-loop requests run back to back; after each one, the next
    other operation (set-up probe, design step, recovery probe, audit
    pass) runs if its due time has come.  Spreading every kind over the
    whole run keeps slow drifts of the machine from landing on one
    metric.
    """
    from functools import partial

    from oracle import load_fingerprints

    tally = ctx.tally
    # A pool request or recovery runs on every CPU; so is its reference timed.
    pool_cpus = ALL_CPUS if ctx.workload.pool else None
    pinned = load_fingerprints()
    baseline = tally.run(recovery_setup, ctx)
    journal = tally.run(audit_journal, ctx)
    monitor = audit_monitor(ctx)
    tally.run(checked_request, ctx, 0)  # warm-up
    keys = design_order(ctx) * ctx.workload.design_passes
    batch = ctx.workload.design_batch
    kinds = {
        "setup": [partial(setup_probe, args.workload)] * SETUP_PROBES,
        "design": [
            partial(design_steps, ctx, pinned, keys[start:start + batch])
            for start in range(0, len(keys), batch)
        ],
        "recover": [partial(recovery_probe, ctx, *baseline)] * RECOVERY_PROBES
        if baseline is not None else [],
        "audit": [partial(audit_pass, ctx, *journal, monitor)] * ctx.workload.audit_passes
        if journal is not None else [],
    }
    pending = sorted(
        ((index + 0.5) / len(calls), kind, call)
        for kind, calls in kinds.items()
        for index, call in enumerate(calls)
    )
    results: dict = {kind: [] for kind in ("serve", *kinds)}
    started = time.perf_counter()
    index = 1
    while pending or time.perf_counter() - started < args.seconds:
        served = tally.run(checked_request, ctx, index, cpus=pool_cpus)
        index += 1
        if served is not None:
            results["serve"].append(((served.seconds, served.cases), tally.last))
        if pending and pending[0][0] * args.seconds <= time.perf_counter() - started:
            _, kind, call = pending.pop(0)
            value = tally.run(call, cpus=pool_cpus if kind == "recover" else None)
            if value is not None:
                samples = value if kind == "design" else [value]
                results[kind].extend((sample, tally.last) for sample in samples)
    return results


def per_layer(ctx: Context, design, plain, traced, reports, probes, audits):
    from repro.runtime import worker_of

    tracer = ctx.tracer
    total = tracer.total
    kernel: dict = {}
    for step in design:
        for name, value in step["kernel"].items():
            kernel[name] = kernel.get(name, 0) + value
    computed = kernel.get("closures_computed", 0)
    hits = kernel.get("closure_cache_hits", 0)
    verify_s = total("verify", "design")
    states = sum(p["states"] for p in design)
    transitions = sum(served.report.metrics.transitions for served in reports)
    checks = sum(served.report.metrics.checks for served in reports)
    audit_events = sum(a["events"] for a in audits)

    def skew(counts):
        return max(counts) / statistics.mean(counts) if counts and sum(counts) else 0.0

    def partition(served):
        counts = [0] * WORKERS
        for case in served.report.results:
            counts[worker_of(case, served.bindings.get(case), WORKERS)] += 1
        return counts

    # Skews are per request (the slowest part sets each request's time),
    # averaged over the traced requests.
    shard_skew = _mean([skew(s.report.metrics.shard_assigned) for s in reports])
    worker_skew = _mean([skew(partition(s)) for s in reports if s.bindings is not None])

    return {
        "deps.extract_s": (total("deps.extract"), "s"),
        "dscl.compile_s": (total("dscl.compile"), "s"),
        "core.translate_s": (total("core.translate"), "s"),
        "core.minimize_s": (total("core.minimize"), "s"),
        "core.candidates": (kernel.get("candidates", 0), "count"),
        "core.removed": (kernel.get("removed", 0), "count"),
        "core.closures_computed": (computed, "count"),
        "core.closure_cache_hit_rate": (hits / (hits + computed) if hits + computed else 0.0, "ratio"),
        "core.subsumption_tests": (kernel.get("subsumption_tests", 0), "count"),
        "deploy.redeploy_s": (total("deploy.redeploy"), "s"),
        "verify.s": (verify_s, "s"),
        "verify.states": (states, "count"),
        "verify.states_per_s": (states / verify_s if verify_s else 0.0, "states/s"),
        "runtime.compile_s": (total("runtime.compile"), "s"),
        "runtime.submit_s": (total("runtime.submit"), "s"),
        "runtime.admitted": (sum(s.report.metrics.admitted for s in reports), "count"),
        "runtime.rejected": (sum(s.report.metrics.rejected for s in reports), "count"),
        "runtime.advance_calls": (tracer.count("runtime.advance"), "count"),
        "runtime.advance_self_s": (tracer.self_time("runtime.advance"), "s"),
        "runtime.transitions": (transitions, "count"),
        "runtime.checks": (checks, "count"),
        "runtime.checks_per_transition": (checks / transitions if transitions else 0.0, "ratio"),
        "emit.events_built": (tracer.count("emit.event"), "count"),
        "emit.s": (total("emit.event"), "s"),
        "journal.records": (tracer.count("journal.write"), "count"),
        "journal.write_s": (total("journal.write"), "s"),
        "journal.flushes": (tracer.count("journal.flush"), "count"),
        "journal.flush_s": (total("journal.flush"), "s"),
        "journal.read_s": (total("journal.read", "recover"), "s"),
        "recover.rebuild_s": (total("recover.rebuild", "recover"), "s"),
        "recover.resume_s": (total("runtime.run", "recover"), "s"),
        "recover.prefix_records": (sum(prefix for _, prefix in probes), "count"),
        "store.shard_skew": (shard_skew, "ratio"),
        "workers.partition_skew": (worker_skew if ctx.workload.pool else 1.0, "ratio"),
        "workers.serve_s": (total("workers.serve", "serve"), "s"),
        "objects.barriers_released": (
            sum(s.report.metrics.barriers_released for s in reports), "count"),
        "discover.ingest_s": (total("discover.ingest"), "s"),
        "conformance.replay_s": (total("conformance.replay"), "s"),
        "conformance.checks_per_event": (
            sum(a["checks"] for a in audits) / audit_events if audit_events else 0.0, "ratio"),
        "discover.stats_s": (total("discover.stats"), "s"),
        "discover.mine_s": (total("discover.mine"), "s"),
        "discover.candidates": (audits[0]["candidates"] if audits else 0, "count"),
        "trace.overhead_pct": (
            (_median(traced) / _median(plain) - 1.0) * 100.0 if plain and traced else 0.0, "%"),
    }


# -- environment and output ----------------------------------------------------------


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def emit(args, ctx: Context, metrics: dict, extra: dict) -> None:
    tally = ctx.tally
    for name, (value, unit) in metrics.items():
        print("%-32s %16.6f %s" % (name, value, unit))
    print("%-32s %16.6f ratio (%d failed / %d attempted)"
          % ("error_rate", tally.error_rate, tally.failed, tally.attempted))
    record = {
        "environment": environment(args),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "details": {k: v for k, v in ctx.details.items() if k != "sample"},
    }
    record.update(extra)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("environment: %s" % json.dumps(record["environment"], sort_keys=True))
    print("result file: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def measure(args, work: str) -> None:
    from workloads import build_ready

    workload = WORKLOADS[args.workload]
    if not args.trace:
        ctx = Context(args, build_ready(workload), work)
        emit(args, ctx, end_to_end(ctx, interleaved_run(args, ctx)), {})
        return
    from oracle import load_fingerprints
    from tracing import Tracer, traced_layers

    dumps = os.path.join(work, "spans")
    os.makedirs(dumps)
    tracer = Tracer(dumps)
    with traced_layers(tracer):
        ready = build_ready(workload)
    ctx = Context(args, ready, work, tracer)
    pinned = load_fingerprints()
    with ctx.phase("design"):
        design = [
            step
            for step in (ctx.tally.run(design_step, ctx, pinned, key)
                         for key in design_order(ctx))
            if step is not None
        ]
    plain, traced, reports = traced_serve_phase(ctx)
    probes = recovery_phase(ctx)
    audits = audit_phase(ctx)
    metrics = per_layer(ctx, design, plain, traced, reports, probes, audits)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, "%s-s%d.trace.json" % (args.workload, args.seed))
    tracer.sample = ctx.details.pop("sample", None)
    spans = tracer.write_chrome_trace(trace_path)
    emit(args, ctx, metrics, {
        "spans": tracer.table(),
        "chrome_trace": {"path": os.path.relpath(trace_path, ROOT), "spans": spans},
    })


def self_check() -> int:
    """Inject one wrong final state and confirm the oracle counts it."""
    from oracle import ScheduleOracle, check_serving
    from repro.runtime import Runtime
    from workloads import WORKLOADS, build_ready, case_load

    ready = build_ready(WORKLOADS["wal-purchasing"])
    oracle = ScheduleOracle(ready.result)
    plans = case_load(ready.program, "self-check", 20, 0)
    runtime = Runtime(ready.program, shards=SHARDS)
    runtime.submit_batch(plans)
    report = runtime.run()
    clean, wrong = Tally(), Tally()
    clean.run(lambda: (None, check_serving(report, plans, oracle)))
    case = sorted(report.results)[0]
    result = report.results[case]
    report.results[case] = dataclasses.replace(result, executed=result.executed[:-1])
    wrong.run(lambda: (None, check_serving(report, plans, oracle)))
    print("clean error_rate %.3f, with one wrong final state %.3f"
          % (clean.error_rate, wrong.error_rate))
    ok = clean.error_rate == 0.0 and wrong.error_rate > 0.0
    print("self-check %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    _import_program()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work)
    try:
        measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
