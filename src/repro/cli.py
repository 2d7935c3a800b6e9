"""Command-line interface: ``dscweaver`` / ``python -m repro``.

Subcommands::

    dscweaver table1   --workload purchasing      # Table 1 dependency listing
    dscweaver weave    --workload purchasing      # Table 2 reduction report
    dscweaver minimal  --workload purchasing      # Figure 9 edge list
    dscweaver minimize --workload purchasing --stats   # Definition 6 + kernel counters
    dscweaver bpel     --workload purchasing      # emit BPEL to stdout/file
    dscweaver dscl     --workload purchasing      # emit the DSCL program
    dscweaver validate --workload purchasing      # conflicts + Petri soundness
    dscweaver simulate --workload purchasing --outcome if_au=F
    dscweaver simulate --record run.jsonl         # write a replayable event log
    dscweaver simulate --cases 200 --record runs.jsonl   # discovery-grade log
    dscweaver simulate --cases 200 --record n.jsonl --perturb swap --perturb-rate 0.1
    dscweaver discover --log runs.jsonl --reference purchasing   # mine + score
    dscweaver lint purchasing --format sarif      # static analysis (repro.lint)
    dscweaver replay purchasing --log run.jsonl   # conformance replay
    dscweaver monitor purchasing < stream.jsonl   # online conformance
    dscweaver serve purchasing --cases 1000 --shards 8   # multi-case runtime
    dscweaver serve purchasing --journal wal.jsonl --crash-after 500
    dscweaver serve purchasing --journal wal.jsonl --recover
    dscweaver serve purchasing --trace-out t.json --metrics-out m.prom
    dscweaver serve orders --objects --fan-out 50 --journal wal.jsonl
    dscweaver monitor orders --objects --log wal.jsonl   # object-aware replay
    dscweaver trace t.json --top 10               # flame summary of a trace

``minimize``, ``simulate``, ``replay`` and ``serve`` accept ``--trace-out``
(Chrome ``trace_event`` JSON, loadable in Perfetto) and ``--metrics-out``
(Prometheus text, or JSON for ``*.json`` paths); ``serve`` and ``replay``
also take ``--format json`` for a machine-readable run summary.

Workloads: purchasing, deployment, loan, travel, insurance, orders.  The
``orders`` workload additionally declares cross-case object constraints
(``repro.objects``): ``serve orders --objects`` fans each order out into
line-item cases co-sharded by object key, and ``monitor orders
--objects`` replays the journal with per-object obligation tracking
(``OBJ00x`` findings).

Exit codes: ``validate`` returns 1 when the specification has conflicts
(cycles, unsatisfiable guards) or the Petri net is unsound; ``lint``
returns 1 when any finding is at or above ``--fail-on`` (default
``error``); ``replay``/``monitor``/``serve``/``discover`` return 1 when
any finding is at or above ``--fail-on`` (default ``warning``); ``serve``
returns 3 on a simulated crash (``--crash-after``); all return 2 on usage
errors and 0 on a clean specification/log/run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import DSCWeaver, WeaveResult, extract_all_dependencies
from repro.deps.registry import DependencySet
from repro.model.process import BusinessProcess


#: The bundled workloads every command accepts.
WORKLOADS = ("purchasing", "deployment", "loan", "travel", "insurance", "orders")


def _load_workload(name: str) -> Tuple[BusinessProcess, DependencySet]:
    if name == "purchasing":
        from repro.workloads.purchasing import (
            build_purchasing_process,
            purchasing_cooperation_dependencies,
        )

        process = build_purchasing_process()
        cooperation = purchasing_cooperation_dependencies(process)
    elif name == "deployment":
        from repro.workloads.deployment import (
            build_deployment_process,
            deployment_cooperation,
        )

        process = build_deployment_process()
        cooperation = deployment_cooperation(process).dependencies
    elif name == "loan":
        from repro.workloads.loan import build_loan_process, loan_cooperation

        process = build_loan_process()
        cooperation = loan_cooperation(process).dependencies
    elif name == "travel":
        from repro.workloads.travel import build_travel_process, travel_cooperation

        process = build_travel_process()
        cooperation = travel_cooperation(process).dependencies
    elif name == "insurance":
        from repro.workloads.insurance import (
            build_insurance_process,
            insurance_cooperation,
        )

        process = build_insurance_process()
        cooperation = insurance_cooperation(process).dependencies
    elif name == "orders":
        from repro.deps.cooperation import CooperationRegistry
        from repro.workloads.orders import build_orders_process

        process = build_orders_process()
        cooperation = CooperationRegistry(process).dependencies
    else:
        raise SystemExit("unknown workload %r" % name)
    return process, extract_all_dependencies(process, cooperation=cooperation)


def _weave(name: str) -> Tuple[BusinessProcess, WeaveResult]:
    process, dependencies = _load_workload(name)
    return process, DSCWeaver().weave(process, dependencies)


def _split_codes(values: List[str]) -> List[str]:
    codes: List[str] = []
    for value in values:
        codes.extend(code for code in value.split(",") if code.strip())
    return codes


def _weave_checked(name: str) -> Optional[Tuple[BusinessProcess, WeaveResult]]:
    """:func:`_weave`, reporting a cyclic specification as ``SYNC003``
    (the caller exits 1 on ``None``)."""
    from repro.errors import CycleError

    try:
        return _weave(name)
    except CycleError as error:
        print("error SYNC003 [process:%s] %s" % (name, error), file=sys.stderr)
        return None


def _rule_config(arguments):
    """The ``LintConfig`` of the ``--select/--ignore/--fail-on/--baseline``
    group, or ``None`` after reporting an unreadable baseline (exit 2)."""
    from repro.lint import Baseline, LintConfig

    baseline = None
    if arguments.baseline:
        try:
            baseline = Baseline.load(arguments.baseline)
        except (OSError, ValueError) as error:
            print("cannot load baseline: %s" % error, file=sys.stderr)
            return None
    return LintConfig.from_codes(
        select=_split_codes(arguments.select) or arguments.default_select,
        ignore=_split_codes(arguments.ignore),
        fail_on=arguments.fail_on,
        baseline=baseline,
    )


def _run_lint_command(arguments) -> int:
    from repro.lint import Baseline, LintContext, render, run_lint

    woven = _weave_checked(arguments.workload)
    if woven is None:
        return 1
    _process, result = woven

    construct = None
    if arguments.constructs:
        if arguments.workload != "purchasing":
            print(
                "--constructs: no construct tree available for workload %r"
                % arguments.workload,
                file=sys.stderr,
            )
            return 2
        from repro.workloads.purchasing_constructs import build_purchasing_constructs

        construct = build_purchasing_constructs()

    config = _rule_config(arguments)
    if config is None:
        return 2
    context = LintContext.from_weave(result, construct=construct)
    report = run_lint(context, config)

    if arguments.write_baseline:
        merged = Baseline.from_diagnostics(
            list(report.findings) + list(report.suppressed)
        )
        merged.save(arguments.write_baseline)
        print(
            "wrote %s (%d suppression(s))" % (arguments.write_baseline, len(merged))
        )
        return 0

    print(render(report, arguments.format, title=arguments.workload), end="")
    return report.exit_code(config.fail_on)


#: Mirror of :data:`repro.conformance.perturb.PERTURBATION_KINDS`, inlined
#: so building the argument parser never imports the conformance package
#: (pinned equal by ``tests/test_discover_cli.py``).
_PERTURBATION_KINDS = (
    "swap",
    "drop_finish",
    "duplicate",
    "orphan_finish",
    "alien",
    "dead_branch",
    "truncate",
)


def _conformance_program(arguments):
    """``(weave result, monitor program)`` for the replay/monitor commands."""
    from repro.conformance import program_from_weave

    _process, result = _weave(arguments.workload)
    return result, program_from_weave(result, which=arguments.set)


def _make_obs(arguments):
    """An :class:`repro.obs.Observability` when ``--trace-out`` or
    ``--metrics-out`` was given, else ``None`` (the zero-cost path)."""
    if getattr(arguments, "trace_out", None) or getattr(
        arguments, "metrics_out", None
    ):
        from repro.obs import Observability

        return Observability()
    return None


def _flush_obs(obs, arguments) -> None:
    """Write the collected trace/metrics to the requested files.

    Notices go to stderr so ``--format json`` keeps stdout machine-readable.
    """
    if obs is None:
        return
    from repro.obs import write_metrics, write_trace

    if getattr(arguments, "trace_out", None):
        write_trace(obs.tracer, arguments.trace_out)
        print("wrote trace to %s" % arguments.trace_out, file=sys.stderr)
    if getattr(arguments, "metrics_out", None):
        write_metrics(obs.metrics, arguments.metrics_out)
        print("wrote metrics to %s" % arguments.metrics_out, file=sys.stderr)


def _emit_summary(fmt: str, payload, text: str) -> None:
    """Shared ``--format text|json`` switch for run summaries.

    ``text`` is printed verbatim (no trailing newline added beyond what it
    carries) so textual output stays byte-identical to the historical form;
    ``payload`` is the machine-readable equivalent.
    """
    import json as json_module

    if fmt == "json":
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text, end="")


def _print_replay_report(report, arguments) -> int:
    from repro.lint import Severity, render

    lint_report = report.to_lint_report()
    title = "%s (%s set)" % (arguments.workload, arguments.set)
    if arguments.format == "json":
        from repro.lint.formats import report_dict

        payload = {
            "summary": {
                "cases": report.cases,
                "events": report.events,
                "checks": report.checks,
                "program_size": report.program_size,
                "fitness": report.fitness,
                "checks_per_event": report.checks_per_event,
                "violated_cases": list(report.violated_cases),
                "violations_by_code": {
                    code: count
                    for code, count in report.counts_by_code().items()
                    if count
                },
                "violations_by_category": dict(report.violations_by_category),
                "verdicts": {
                    verdict.value: count
                    for verdict, count in report.verdict_counts.items()
                },
            },
            "findings": report_dict(lint_report, title=title),
        }
        _emit_summary("json", payload, "")
    elif arguments.format == "text":
        print(render(lint_report, "text", title=title), end="")
        print(report.summary())
    else:
        print(render(lint_report, arguments.format, title=title), end="")
    return lint_report.exit_code(Severity.from_name(arguments.fail_on))


def _run_replay_command(arguments) -> int:
    from repro.conformance import program_from_weave, replay, verdicts_agree
    from repro.discover.ingest import load_log

    try:
        # Sniffs the format; WAL journals ingest duplicate-tolerantly.
        log = load_log(arguments.log, arguments.log_format)
    except (OSError, ValueError) as error:
        print("cannot load log: %s" % error, file=sys.stderr)
        return 2
    result, program = _conformance_program(arguments)
    obs = _make_obs(arguments)
    report = replay(log, program, obs=obs)
    _flush_obs(obs, arguments)
    if arguments.compare:
        other_which = "full" if arguments.set == "minimal" else "minimal"
        other = replay(log, program_from_weave(result, which=other_which))
        agree = verdicts_agree(report, other)
        print(
            "verdicts vs %s set: %s | checks: %s=%d %s=%d"
            % (
                other_which,
                "identical" if agree else "DIFFERENT",
                arguments.set,
                report.checks,
                other_which,
                other.checks,
            )
        )
        if not agree:
            print("minimization changed replay verdicts!", file=sys.stderr)
            return 1
    return _print_replay_report(report, arguments)


def _run_monitor_command(arguments) -> int:
    from repro.conformance import ConformanceMonitor, Event
    from repro.lint import Severity

    import json as json_module

    _result, program = _conformance_program(arguments)
    monitor = ConformanceMonitor(program)
    objmon = None
    if arguments.objects:
        if arguments.workload != "orders":
            print("--objects requires the orders workload", file=sys.stderr)
            return 2
        from repro.objects import ObjectMonitor
        from repro.workloads.orders import orders_object_spec

        objmon = ObjectMonitor(orders_object_spec())
    if arguments.log:
        handle = open(arguments.log, "r", encoding="utf-8")
    else:
        handle = sys.stdin
    printed_obj = 0
    try:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json_module.loads(line)
            except ValueError as error:
                print("line %d: bad event (%s)" % (number, error), file=sys.stderr)
                return 2
            if isinstance(payload, dict) and payload.get("rt") is not None:
                # Runtime journal control record, not a lifecycle event.
                # Admit records carry the declared fan-out the object
                # monitor needs; everything else is skipped so a WAL
                # journal monitors as-is.
                if (
                    objmon is not None
                    and payload.get("rt") == "admit"
                    and payload.get("object")
                ):
                    from repro.objects import ObjectBinding

                    objmon.bind(
                        str(payload["case"]),
                        ObjectBinding.from_dict(payload["object"]),
                    )
                continue
            try:
                event = Event.from_dict(payload)
            except (KeyError, TypeError, ValueError) as error:
                print("line %d: bad event (%s)" % (number, error), file=sys.stderr)
                return 2
            for diagnostic in monitor.feed(event):
                print(diagnostic.render())
            if objmon is not None:
                objmon.feed(event)
                for diagnostic in objmon.diagnostics[printed_obj:]:
                    print(diagnostic.render())
                printed_obj = len(objmon.diagnostics)
    finally:
        if arguments.log:
            handle.close()
    for diagnostic in monitor.finish():
        print(diagnostic.render())
    obj_report = None
    if objmon is not None:
        obj_report = objmon.finish()
        for diagnostic in obj_report.diagnostics[printed_obj:]:
            print(diagnostic.render())
    threshold = Severity.from_name(arguments.fail_on)
    diagnostics = list(monitor.diagnostics)
    if obj_report is not None:
        diagnostics.extend(obj_report.diagnostics)
    gating = sum(1 for d in diagnostics if d.severity.at_least(threshold))
    print(
        "monitored %d event(s), %d finding(s), %d gating"
        % (monitor.events_fed, len(diagnostics), gating)
    )
    if obj_report is not None:
        print(obj_report.summary())
    return 1 if gating else 0


def _package_version() -> str:
    """The installed package version, falling back to the source tree's.

    The fallback matters because the repository is routinely run straight
    off ``PYTHONPATH=src`` without being pip-installed, in which case
    ``importlib.metadata`` has no distribution to consult.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - Python < 3.8
        PackageNotFoundError = Exception  # type: ignore[assignment]
        version = None  # type: ignore[assignment]
    if version is not None:
        for distribution in ("repro", "dscweaver"):
            try:
                return version(distribution)
            except PackageNotFoundError:
                continue
    import repro

    return repro.__version__


def _case_plans(program, count: int) -> Dict[str, Dict[str, str]]:
    """``count`` case outcome plans enumerating guard-domain combinations.

    The case index is read as a mixed-radix number over the guards' outcome
    domains, so consecutive cases exercise every branch combination before
    repeating — the synthetic workload behind ``dscweaver serve``.
    """
    guards = program.guard_names()
    domains = {guard: program.outcome_domain(guard) for guard in guards}
    plans: Dict[str, Dict[str, str]] = {}
    for index in range(count):
        plan: Dict[str, str] = {}
        shift = index
        for guard in guards:
            domain = domains[guard]
            plan[guard] = domain[shift % len(domain)]
            shift //= len(domain)
        plans["case-%05d" % index] = plan
    return plans


def _run_verify_command(arguments) -> int:
    from repro.lint import LintContext, render, run_lint
    from repro.programs import program_from_weave
    from repro.verify import verify_program

    woven = _weave_checked(arguments.workload)
    if woven is None:
        return 1
    _process, result = woven
    config = _rule_config(arguments)
    if config is None:
        return 2

    program = program_from_weave(result, which=arguments.set, target="runtime")
    obs = _make_obs(arguments)
    report = verify_program(
        program, state_limit=arguments.state_limit, obs=obs
    )
    _flush_obs(obs, arguments)

    context = LintContext.from_weave(result)
    context.verification = report
    lint_report = run_lint(context, config)
    if arguments.format == "text":
        for line in report.summary_lines():
            print(line)
        print()
    print(
        render(lint_report, arguments.format, title=arguments.workload), end=""
    )
    return lint_report.exit_code(config.fail_on)


def _run_petri_command(arguments) -> int:
    import json as json_module

    from repro.errors import PetriNetError
    from repro.petri.from_constraints import constraint_set_to_petri_net
    from repro.petri.reachability import build_reachability_graph
    from repro.petri.soundness import check_soundness, workflow_places
    from repro.programs import select_constraint_set
    from repro.verify import petri_cross_check

    _process, result = _weave(arguments.workload)
    sc = select_constraint_set(result, arguments.set)
    try:
        net, initial = constraint_set_to_petri_net(sc)
    except PetriNetError as error:
        print("petri translation failed: %s" % error, file=sys.stderr)
        return 2

    graph = build_reachability_graph(
        net, initial, state_limit=arguments.state_limit
    )
    soundness = check_soundness(net, state_limit=arguments.state_limit)
    cross = petri_cross_check(sc, state_limit=arguments.state_limit)

    _source, sink = workflow_places(net)
    terminals = []
    for index, marking in enumerate(graph.markings):
        if net.enabled_transitions(marking):
            continue
        kind = (
            "final"
            if sink is not None and marking.count(sink) >= 1
            else "deadlock"
        )
        terminals.append(
            {
                "kind": kind,
                "marking": str(marking),
                "witness": graph.witness_path(index),
            }
        )

    payload = {
        "workload": arguments.workload,
        "set": arguments.set,
        "places": len(net.places),
        "transitions": len(net.transitions),
        "reachable_markings": len(graph),
        "truncated": graph.truncated,
        "sound": soundness.is_sound,
        "problems": list(soundness.problems),
        "dead_transitions": list(soundness.dead_transitions),
        "stuck_witness": list(soundness.stuck_witness),
        "terminal_markings": terminals,
        "verifier_predicts_sound": cross.predicted_sound,
        "verifier_agrees": cross.agrees,
    }
    if arguments.format == "json":
        print(json_module.dumps(payload, indent=2))
    else:
        print(
            "petri net for %s (%s set): %d places, %d transitions"
            % (arguments.workload, arguments.set, payload["places"],
               payload["transitions"])
        )
        print(
            "reachable markings: %d%s"
            % (len(graph), " (truncated)" if graph.truncated else "")
        )
        print("sound: %s" % ("yes" if soundness.is_sound else "no"))
        for problem in soundness.problems:
            print("  problem: %s" % problem)
        for terminal in terminals:
            print(
                "  %s marking %s via: %s"
                % (
                    terminal["kind"],
                    terminal["marking"],
                    " -> ".join(terminal["witness"]) or "<initial>",
                )
            )
        print(
            "verifier cross-check: predicts sound=%s, agrees=%s"
            % (cross.predicted_sound, cross.agrees)
        )
    if cross.agrees is False:
        return 1
    return 0 if soundness.is_sound else 1


def _recover_hint(arguments) -> str:
    """The ``serve`` command line that recovers a crashed run."""
    hint = "dscweaver serve %s --cases %d --set %s --journal %s --recover" % (
        arguments.workload,
        arguments.cases,
        arguments.set,
        arguments.journal,
    )
    if arguments.workers > 1:
        hint += " --workers %d" % arguments.workers
    if arguments.objects:
        hint += " --objects --fan-out %d" % arguments.fan_out
        if arguments.cancel_every:
            hint += " --cancel-every %d" % arguments.cancel_every
        if arguments.withhold:
            hint += " --withhold %d" % arguments.withhold
        if arguments.random_shard:
            hint += " --random-shard"
    if arguments.redeploy_after is not None:
        hint += " --redeploy-after %d --to %s --strategy %s" % (
            arguments.redeploy_after,
            arguments.to,
            arguments.strategy,
        )
    return hint


def _run_serve_command(arguments) -> int:
    from repro.lint import Severity, render
    from repro.runtime import (
        RetryPolicies,
        RetryPolicy,
        Runtime,
        SimulatedCrash,
        program_from_weave,
    )

    if arguments.recover and not arguments.journal:
        print("--recover requires --journal", file=sys.stderr)
        return 2
    if arguments.crash_after is not None and not arguments.journal:
        print("--crash-after requires --journal", file=sys.stderr)
        return 2
    if arguments.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    if arguments.workers > 1 and (
        arguments.max_in_flight is not None or arguments.max_queue is not None
    ):
        print(
            "--max-in-flight/--max-queue are per-runtime admission bounds "
            "and are not supported with --workers",
            file=sys.stderr,
        )
        return 2
    if arguments.redeploy_after is not None:
        if not arguments.to:
            print("--redeploy-after requires --to EDITS.json", file=sys.stderr)
            return 2
        if not arguments.journal:
            print("--redeploy-after requires --journal", file=sys.stderr)
            return 2
        if arguments.objects:
            print(
                "--redeploy-after is not supported with --objects: cross-case "
                "barriers couple case states across versions",
                file=sys.stderr,
            )
            return 2
        if arguments.set != "minimal":
            print(
                "--redeploy-after serves the registry's minimized programs; "
                "drop --set full",
                file=sys.stderr,
            )
            return 2
    elif arguments.to:
        print("--to requires --redeploy-after", file=sys.stderr)
        return 2

    _process, result = _weave(arguments.workload)
    program = program_from_weave(result, which=arguments.set, target="runtime")

    deploy_spec = None
    redeploy_result = None
    if arguments.redeploy_after is not None:
        from repro.deploy import PoolSwap, ProgramRegistry, load_edits

        registry = ProgramRegistry.from_weave(result)
        try:
            added, removed = load_edits(arguments.to)
            redeploy_result = registry.redeploy(added=added, removed=removed)
        except (OSError, ValueError) as error:
            print("cannot redeploy: %s" % error, file=sys.stderr)
            return 2
        deploy_spec = PoolSwap(
            old=registry.version(registry.current_version - 1),
            new=registry.current,
            strategy=arguments.strategy,
            after=arguments.redeploy_after,
        )
        # Serve v1 from the registry so old/new share one compiled surface.
        program = deploy_spec.old.program
        if arguments.format == "text":
            print(
                "redeploy armed: v%d -> v%d after %d completion(s)%s "
                "(re-minimized in %.4fs)"
                % (
                    deploy_spec.old.version,
                    deploy_spec.new.version,
                    deploy_spec.after,
                    " per worker" if arguments.workers > 1 else "",
                    redeploy_result.minimize_seconds,
                )
            )

    if arguments.verify:
        from repro.verify import verify_program

        preflight = verify_program(program)
        if preflight.deadlock_free is False:
            print(
                "verify: REFUTED — the %s constraint set can deadlock; "
                "refusing to serve" % arguments.set,
                file=sys.stderr,
            )
            for line in preflight.summary_lines():
                print("  " + line, file=sys.stderr)
            return 2
        if arguments.format == "text":
            verdict = (
                "PROVEN deadlock-free"
                if preflight.deadlock_free
                else "UNKNOWN (state limit)"
            )
            print(
                "verify: %s (%d states, %.3fs)"
                % (verdict, preflight.stats.states, preflight.elapsed_seconds)
            )

    policies = RetryPolicies(
        default=RetryPolicy(
            failure_rate=arguments.failure_rate,
            timeout=arguments.retry_timeout,
            max_attempts=arguments.max_attempts,
        )
    )
    obs = _make_obs(arguments)
    if obs is not None and arguments.workers > 1:
        print(
            "note: --trace-out/--metrics-out instrument the in-process "
            "runtime; ignored with --workers",
            file=sys.stderr,
        )
        obs = None

    bindings = None
    objects = None
    objects_info = None
    co_shard = True
    if arguments.objects:
        if arguments.workload != "orders":
            print("--objects requires the orders workload", file=sys.stderr)
            return 2
        from repro.workloads.orders import orders_object_spec, orders_plans

        order_count = max(1, arguments.cases // (arguments.fan_out + 1))
        try:
            plans, bindings = orders_plans(
                order_count,
                arguments.fan_out,
                cancel_every=arguments.cancel_every,
                withhold=arguments.withhold,
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        objects = orders_object_spec()
        co_shard = not arguments.random_shard
        objects_info = {
            "orders": order_count,
            "fan_out": arguments.fan_out,
            "cancel_every": arguments.cancel_every,
            "withhold": arguments.withhold,
            "co_shard": not arguments.random_shard,
        }
        if arguments.format == "text":
            print(
                "objects: %d order(s) x fan-out %d -> %d case(s) "
                "(%s-sharded%s)"
                % (
                    order_count,
                    arguments.fan_out,
                    len(plans),
                    "co" if not arguments.random_shard else "random",
                    ", withholding %d child(ren) per order" % arguments.withhold
                    if arguments.withhold
                    else "",
                )
            )
    else:
        plans = _case_plans(program, arguments.cases)

    recovery = None
    try:
        if arguments.workers > 1:
            from repro.runtime.workers import WorkerPool, read_manifest

            pool_options = dict(
                objects=objects,
                shards_per_worker=max(1, arguments.shards // arguments.workers),
                batch=arguments.batch,
                seed=arguments.seed,
                policies=policies,
                deploy=deploy_spec,
            )
            if arguments.recover:
                manifest = read_manifest(arguments.journal)
                report = WorkerPool.recover(
                    arguments.journal,
                    program,
                    plans=plans,
                    bindings=bindings,
                    **pool_options,
                )
                recovery = {
                    "journal": arguments.journal,
                    "workers": int(manifest["workers"]),
                    "adopted": report.metrics.recovered,
                }
                if arguments.format == "text":
                    print(
                        "recovered %d-worker journal %s: %d completed "
                        "case(s) adopted"
                        % (
                            recovery["workers"],
                            arguments.journal,
                            report.metrics.recovered,
                        )
                    )
            else:
                report = WorkerPool(
                    program,
                    workers=arguments.workers,
                    journal_dir=arguments.journal,
                    co_shard=co_shard,
                    flush_every=arguments.flush_every,
                    crash_after=arguments.crash_after,
                    **pool_options,
                ).serve(plans, bindings)
        else:
            options = dict(
                shards=arguments.shards,
                batch=arguments.batch,
                flush_every=arguments.flush_every,
                max_in_flight=arguments.max_in_flight,
                max_queue=arguments.max_queue,
                policies=policies,
                seed=arguments.seed,
                obs=obs,
                objects=objects,
                co_shard=co_shard,
            )
            if deploy_spec is not None:
                options["programs"] = deploy_spec.programs()
            if arguments.recover:
                from repro.runtime import read_journal

                state = read_journal(arguments.journal)
                runtime = Runtime.recover(
                    arguments.journal,
                    program,
                    crash_after=arguments.crash_after,
                    state=state,
                    **options,
                )
                known = set(runtime.known_cases)
                plans = {c: p for c, p in plans.items() if c not in known}
                recovery = {
                    "journal": arguments.journal,
                    "adopted_or_resumed": len(known),
                    "resubmitted": len(plans),
                }
                if arguments.format == "text":
                    print(
                        "recovered journal %s: %d case(s) adopted or resumed, "
                        "%d resubmitted" % (arguments.journal, len(known), len(plans))
                    )
            else:
                runtime = Runtime(
                    program,
                    journal_path=arguments.journal,
                    crash_after=arguments.crash_after,
                    **options,
                )
            try:
                if deploy_spec is not None and arguments.recover:
                    deploy_spec.converge(runtime, state)
                # the crash point may land on an admit record, not just mid-run
                runtime.submit_batch(plans, bindings=bindings)
                if deploy_spec is not None and deploy_spec.armed(runtime):
                    runtime.run_until_completed(deploy_spec.after)
                    deploy_spec.apply(runtime)
                report = runtime.run()
            finally:
                runtime.close()
                _flush_obs(obs, arguments)
    except SimulatedCrash as crash:
        print(
            "simulated crash after journal record %d; recover with: %s"
            % (crash.records_written, _recover_hint(arguments))
        )
        return 3

    import dataclasses

    from repro.lint.formats import report_dict

    lint_report = report.to_lint_report()
    text = report.summary() + "\n"
    if report.diagnostics:
        text += render(lint_report, "text", title=arguments.workload)
    payload = {
        "workload": arguments.workload,
        "set": arguments.set,
        "metrics": dataclasses.asdict(report.metrics),
        "findings": report_dict(lint_report, title=arguments.workload),
    }
    if recovery is not None:
        payload["recovery"] = recovery
    if objects_info is not None:
        payload["objects"] = objects_info
    if deploy_spec is not None:
        payload["deploy"] = {
            "from_version": deploy_spec.old.version,
            "to_version": deploy_spec.new.version,
            "strategy": deploy_spec.strategy,
            "after": deploy_spec.after,
            "minimize_seconds": redeploy_result.minimize_seconds,
            "upgraded": report.metrics.upgraded,
            "drained": report.metrics.drained,
            "rejected": report.metrics.swap_rejected,
            "versions": dict(report.versions),
        }
    _emit_summary(arguments.format, payload, text)
    return report.exit_code(Severity.from_name(arguments.fail_on))


def _run_deploy_command(arguments) -> int:
    """Plan (and optionally apply) a constraint hot swap.

    Without ``--from`` this is a pure pre-flight: re-minimize the edited
    set (session rebase), sweep the strand gate (DEP005) and report.  With
    ``--from JOURNAL`` the journal's in-flight cases are additionally
    classified into a migration plan; unless ``--dry-run``, the swap is
    applied (or, when the journal holds a crashed swap, rolled forward)
    and the run is driven to completion on the new version.  ``--dry-run``
    refuses a journal with a crashed swap: rolling it forward writes.
    """
    from repro.deploy import (
        PoolSwap,
        ProgramRegistry,
        load_edits,
        plan_swap,
        preflight,
    )
    from repro.lint import Severity, render
    from repro.lint.diagnostics import LintReport
    from repro.lint.formats import report_dict

    _process, result = _weave(arguments.workload)
    obs = _make_obs(arguments)
    registry = ProgramRegistry.from_weave(result, obs=obs)
    old = registry.current
    try:
        added, removed = load_edits(arguments.to)
    except (OSError, ValueError) as error:
        print("cannot load edits: %s" % error, file=sys.stderr)
        return 2
    try:
        redeploy = registry.redeploy(added=added, removed=removed)
    except ValueError as error:
        print("invalid edit batch: %s" % error, file=sys.stderr)
        return 2
    new = redeploy.version
    strand_report, gate_findings = preflight(
        old, new, state_limit=arguments.state_limit
    )
    diagnostics = list(gate_findings)
    payload = {
        "workload": arguments.workload,
        "from_version": old.version,
        "to_version": new.version,
        "strategy": arguments.strategy,
        "added": len(redeploy.added),
        "removed": len(redeploy.removed),
        "minimal_size": len(new.minimal.constraints),
        "minimize_seconds": redeploy.minimize_seconds,
        "preflight": {
            "prefixes_checked": strand_report.prefixes_checked,
            "stranded": len(strand_report.stranded),
            "truncated": strand_report.truncated,
            "safe": strand_report.safe,
        },
    }
    lines = [
        "deploy %s: v%d -> v%d (%+d/-%d edit(s), minimal %d -> %d, "
        "re-minimized in %.4fs)"
        % (
            arguments.workload,
            old.version,
            new.version,
            len(redeploy.added),
            len(redeploy.removed),
            len(old.minimal.constraints),
            len(new.minimal.constraints),
            redeploy.minimize_seconds,
        ),
        "preflight strand gate: %d prefix(es) checked, %d stranded%s"
        % (
            strand_report.prefixes_checked,
            len(strand_report.stranded),
            " (truncated)" if strand_report.truncated else "",
        ),
    ]

    plan = None
    if arguments.journal is not None:
        from repro.runtime import Runtime, read_journal

        try:
            state = read_journal(arguments.journal)
        except (OSError, ValueError) as error:
            print("cannot read journal: %s" % error, file=sys.stderr)
            return 2
        pending = state.pending_deploy()
        if arguments.dry_run and pending is not None:
            print(
                "--dry-run: %s holds a pending v%d -> v%d swap (a begin "
                "without its commit); recovering it writes the journal, so "
                "run without --dry-run"
                % (arguments.journal, int(pending["from"]), int(pending["to"])),
                file=sys.stderr,
            )
            return 2
        swap = PoolSwap(
            old, new, strategy=arguments.strategy, state_limit=arguments.state_limit
        )
        runtime = Runtime.recover(
            arguments.journal, old.program, programs=swap.programs(), state=state
        )
        try:
            if arguments.dry_run:
                plan = plan_swap(runtime, swap.engine(), swap.strategy, state=state)
            else:
                plan = swap.converge(runtime, state, swap_now=True)
                if plan is not None:
                    runtime.run()
        finally:
            runtime.close()
        if plan is not None:
            diagnostics.extend(plan.diagnostics)
            payload["plan"] = plan.to_dict()
            lines.append(
                "migration plan (%s%s): %d upgrade, %d drain, %d reject "
                "across %d in-flight case(s)"
                % (
                    plan.strategy,
                    ", dry-run" if not plan.applied else
                    (", recovered" if plan.recovered else ""),
                    plan.upgraded,
                    plan.drained,
                    plan.rejected,
                    len(plan.decisions),
                )
            )

    lint_report = LintReport.from_diagnostics(diagnostics, [])
    payload["findings"] = report_dict(lint_report, title=arguments.workload)
    text = "\n".join(lines) + "\n"
    if lint_report.findings:
        text += render(lint_report, "text", title=arguments.workload)
    _emit_summary(arguments.format, payload, text)
    _flush_obs(obs, arguments)
    return lint_report.exit_code(Severity.from_name(arguments.fail_on))


def _run_minimize_command(arguments) -> int:
    import time

    from repro.core.closure import Semantics
    from repro.core.pipeline import DSCWeaver

    semantics = Semantics(arguments.semantics)
    process, dependencies = _load_workload(arguments.workload)
    obs = _make_obs(arguments)
    weaver = DSCWeaver(semantics=semantics, obs=obs)
    started = time.perf_counter()
    result = weaver.weave(process, dependencies)
    elapsed = time.perf_counter() - started
    _flush_obs(obs, arguments)
    for constraint in sorted(result.minimal.constraints):
        print(constraint)
    if arguments.stats:
        report = result.report
        print(
            "minimized %d -> %d constraint(s) (%d removed) | "
            "semantics=%s | %.1f ms"
            % (
                report.translated,
                report.minimal,
                report.removed_by_minimization,
                semantics.value,
                elapsed * 1000.0,
            )
        )
        if report.kernel_stats is not None:
            for key, value in report.kernel_stats.items():
                if isinstance(value, float):
                    print("  %-24s %.3f" % (key, value))
                else:
                    print("  %-24s %s" % (key, value))
    return 0


def _run_trace_command(arguments) -> int:
    from repro.obs import flame_summary, load_trace, render_flame

    try:
        payload = load_trace(arguments.file)
    except (OSError, ValueError) as error:
        print("cannot load trace: %s" % error, file=sys.stderr)
        return 2
    events = [
        event
        for event in payload.get("traceEvents", [])
        if isinstance(event, dict) and event.get("ph") == "X"
    ]
    rows = flame_summary(payload, top=arguments.top)
    print(render_flame(rows, total_events=len(events)))
    return 0


def _maybe_perturb(log, arguments, result):
    """Apply ``--perturb KIND --perturb-rate R --seed S`` to a recorded log."""
    if not getattr(arguments, "perturb", None):
        return log
    from repro.discover.evaluate import perturb_log

    perturbed, applied = perturb_log(
        log,
        arguments.perturb_rate,
        seed=arguments.seed,
        constraints=list(result.minimal),
        guards=result.minimal.guards,
        kinds=[arguments.perturb],
    )
    for perturbation in applied:
        print(
            "perturbed %s (%s): %s"
            % (perturbation.case, perturbation.kind, perturbation.description)
        )
    if not applied:
        print(
            "no injection site for --perturb %s in this log" % arguments.perturb,
            file=sys.stderr,
        )
    return perturbed


def _run_discover_command(arguments) -> int:
    """``dscweaver discover``: mine dependencies from an event log.

    Exit contract: 0 clean, 1 findings at/above ``--fail-on`` (including
    DIS005 divergence from ``--reference``), 2 unreadable/invalid input.
    """
    from repro.discover.ingest import load_log
    from repro.discover.mine import MinerConfig, mine
    from repro.discover.stats import LogStatistics
    from repro.lint import LintContext, render, run_lint

    obs = _make_obs(arguments)
    try:
        log = load_log(arguments.log, arguments.format, obs=obs)
    except (OSError, ValueError) as error:
        print("cannot load log: %s" % error, file=sys.stderr)
        return 2
    try:
        config = MinerConfig(
            min_support=arguments.min_support,
            min_confidence=arguments.min_confidence,
            noise=arguments.noise,
        )
        config.validate()
    except ValueError as error:
        print("invalid thresholds: %s" % error, file=sys.stderr)
        return 2
    lint_config = _rule_config(arguments)
    if lint_config is None:
        return 2

    stats = LogStatistics.from_log(log, obs=obs)
    discovery = mine(stats, config=config, obs=obs)

    summary_lines = discovery.summary_lines()
    process = None
    if arguments.reference:
        from repro.discover.evaluate import round_trip

        process, reference = _weave(arguments.reference)
        trip = round_trip(
            discovery, process, reference, verify=not arguments.no_verify, obs=obs
        )
        summary_lines.extend(trip.summary_lines())

    if arguments.emit_dscl:
        from repro.dscl.compiler import dependencies_to_program
        from repro.dscl.printer import to_text

        text = to_text(dependencies_to_program(discovery.dependency_set()))
        with open(arguments.emit_dscl, "w", encoding="utf-8") as handle:
            handle.write(text)
        summary_lines.append("wrote mined DSCL program to %s" % arguments.emit_dscl)

    _flush_obs(obs, arguments)

    context = LintContext.from_constraints(
        discovery.constraint_set(), process=process
    )
    context.discovery = discovery
    report = run_lint(context, lint_config)
    if arguments.report_format == "text":
        for line in summary_lines:
            print(line)
        if arguments.show_candidates:
            for candidate in discovery.candidates:
                print("  %s" % candidate)
        print()
    print(render(report, arguments.report_format, title=arguments.log), end="")
    return report.exit_code(lint_config.fail_on)


def _parse_outcomes(pairs: List[str]) -> Dict[str, str]:
    outcomes: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit("--outcome expects guard=value, got %r" % pair)
        guard, value = pair.split("=", 1)
        outcomes[guard] = value
    return outcomes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dscweaver",
        description="Dependency categorization and optimization for business "
        "processes (ICDE 2007 reproduction).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version="%(prog)s " + _package_version(),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--workload",
            default="purchasing",
            choices=WORKLOADS,
        )
        return sub

    def add_workload(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "workload", nargs="?", default="purchasing", choices=WORKLOADS
        )

    def add_rule_flags(
        sub: argparse.ArgumentParser, fail_on: str, select: Tuple[str, ...] = ()
    ) -> None:
        """The ``--select/--ignore/--fail-on/--baseline`` group read by
        :func:`_rule_config`; ``select`` is the default rule selection."""
        sub.set_defaults(default_select=list(select))
        sub.add_argument(
            "--select",
            action="append",
            default=[],
            metavar="CODES",
            help="only report these rule codes or prefixes, comma-separated "
            "(repeatable; default %s)" % (",".join(select) or "every rule"),
        )
        sub.add_argument(
            "--ignore",
            action="append",
            default=[],
            metavar="CODES",
            help="skip these rule codes or prefixes (repeatable)",
        )
        sub.add_argument(
            "--fail-on",
            default=fail_on,
            choices=["info", "warning", "error"],
            help="exit 1 when any finding is at or above this severity",
        )
        sub.add_argument(
            "--baseline",
            default=None,
            metavar="PATH",
            help="suppress findings recorded in this baseline file",
        )

    def add_obs_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help="write collected spans as Chrome trace_event JSON "
            "(loadable in Perfetto / chrome://tracing)",
        )
        sub.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write metrics to PATH: Prometheus text exposition, "
            "or JSON when PATH ends in .json",
        )

    add("table1", "print the categorized dependency set (Table 1)")
    add("weave", "run the pipeline and print the reduction report (Table 2)")
    add("minimal", "print the minimal constraint set (Figure 9)")
    minimize_cmd = add(
        "minimize", "run Definition 6 minimization and print the minimal set"
    )
    minimize_cmd.add_argument(
        "--stats",
        action="store_true",
        help="print reduction counts and bitset-kernel counters",
    )
    minimize_cmd.add_argument(
        "--semantics",
        default="guard-aware",
        choices=["strict", "guard-aware", "reachability"],
    )
    add_obs_flags(minimize_cmd)
    add("dscl", "print the merged DSCL program")
    bpel = add("bpel", "emit BPEL XML for the minimal set")
    bpel.add_argument("--output", default=None, help="file path (default stdout)")
    bpel.add_argument(
        "--structured",
        action="store_true",
        help="recover nested sequence/flow/switch structure instead of the "
        "flat flow/link form",
    )
    add("validate", "translate to a Petri net and check soundness")
    simulate = add("simulate", "execute the minimal schedule in the simulator")
    simulate.add_argument(
        "--outcome",
        action="append",
        default=[],
        metavar="GUARD=VALUE",
        help="fix a guard outcome (repeatable)",
    )
    simulate.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="also write the run as a replayable JSONL event log",
    )
    simulate.add_argument(
        "--case",
        default=None,
        metavar="NAME",
        help="case id used in the recorded log (default: the workload name)",
    )
    simulate.add_argument(
        "--cases",
        type=int,
        default=1,
        metavar="N",
        help="simulate N cases enumerating every guard-outcome combination; "
        "with N > 1 durations and latencies are jittered per case "
        "(straggler profile), producing a log dense enough for "
        "dependency discovery",
    )
    simulate.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="random seed for jitter and perturbation (default 0)",
    )
    simulate.add_argument(
        "--perturb",
        default=None,
        metavar="KIND",
        choices=sorted(_PERTURBATION_KINDS),
        help="inject one defect of this kind into a --perturb-rate "
        "fraction of recorded cases (see dscweaver replay)",
    )
    simulate.add_argument(
        "--perturb-rate",
        type=float,
        default=0.1,
        metavar="R",
        help="fraction of cases to perturb when --perturb is given "
        "(default 0.1)",
    )
    add_obs_flags(simulate)
    dot = add("dot", "export a graph as Graphviz DOT")
    dot.add_argument(
        "--what",
        default="minimal",
        choices=["dependencies", "merged", "translated", "minimal", "petri", "races"],
    )
    dot.add_argument("--output", default=None, help="file path (default stdout)")
    uml = subparsers.add_parser(
        "uml", help="extract dependencies from a UML activity diagram XML file"
    )
    uml.add_argument("file", help="path to the activity-diagram XML")

    lint = subparsers.add_parser(
        "lint", help="run the static analyzer (races, protocol, redundancy)"
    )
    add_workload(lint)
    lint.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"]
    )
    add_rule_flags(lint, "error")
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write all current findings to a baseline file and exit 0",
    )
    lint.add_argument(
        "--constructs",
        action="store_true",
        help="also check the workload's construct tree for over-/under-"
        "specification (purchasing only)",
    )

    def add_conformance(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        add_workload(sub)
        sub.add_argument(
            "--set",
            default="minimal",
            choices=["minimal", "full"],
            help="constraint set to monitor: the minimized set (default) or "
            "the full translated ASC",
        )
        sub.add_argument(
            "--fail-on",
            default="warning",
            choices=["info", "warning", "error"],
            help="exit 1 when any finding is at or above this severity",
        )
        return sub

    replay_cmd = add_conformance(
        "replay", "replay a recorded event log against the constraint set"
    )
    replay_cmd.add_argument(
        "--log", required=True, metavar="PATH", help="event log to replay"
    )
    replay_cmd.add_argument(
        "--log-format",
        default=None,
        choices=["jsonl", "csv", "xes"],
        help="log format (default: sniffed from the file extension)",
    )
    replay_cmd.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"]
    )
    replay_cmd.add_argument(
        "--compare",
        action="store_true",
        help="also replay against the other set and require identical verdicts",
    )
    add_obs_flags(replay_cmd)
    monitor_cmd = add_conformance(
        "monitor", "check a live JSONL event stream (stdin or --log) online"
    )
    monitor_cmd.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="read events from this JSONL file instead of stdin",
    )
    monitor_cmd.add_argument(
        "--objects",
        action="store_true",
        help="additionally track cross-case object obligations (orders "
        "workload only; OBJ00x findings): bindings come from journal "
        "admit records or event object/role attributes",
    )

    serve = add_conformance(
        "serve", "run many concurrent cases through the sharded runtime"
    )
    serve.add_argument(
        "--cases", type=int, default=1000, metavar="N",
        help="number of cases to admit (default 1000)",
    )
    serve.add_argument(
        "--shards", type=int, default=4, metavar="K",
        help="instance-store shards (default 4)",
    )
    serve.add_argument(
        "--batch", type=int, default=8, metavar="B",
        help="cases advanced per shard per scheduling round (default 8)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard worker processes; above 1 the case load is partitioned "
        "over N processes and --journal names a directory of per-worker "
        "journal segments (default 1: in-process runtime)",
    )
    serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead JSONL journal (doubles as a conformance event "
        "log); a segmented journal directory with --workers",
    )
    serve.add_argument(
        "--flush-every", type=int, default=1, metavar="N",
        help="journal group commit: flush every N records instead of "
        "per record (default 1)",
    )
    serve.add_argument(
        "--crash-after", type=int, default=None, metavar="N",
        help="fault injection: simulate a crash after N journal records "
        "(exit code 3)",
    )
    serve.add_argument(
        "--recover",
        action="store_true",
        help="recover from --journal: adopt completed cases, resume "
        "in-flight ones, resubmit the rest",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=None, metavar="N",
        help="admission control: bound concurrently executing cases",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="bound the admission waiting queue; overflow is rejected (RT002)",
    )
    serve.add_argument(
        "--failure-rate", type=float, default=0.0, metavar="P",
        help="per-attempt service loss probability (default 0: lossless)",
    )
    serve.add_argument(
        "--retry-timeout", type=float, default=2.0, metavar="T",
        help="virtual time units before a lost attempt is retried (default 2)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="delivery attempts before a case fails with RT001 (default 3)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="seed of the deterministic service-loss model (default 0)",
    )
    serve.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="run summary format (default text)",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="pre-flight gate: symbolically verify deadlock-freedom before "
        "admitting any case (exit 2 when refuted)",
    )
    serve.add_argument(
        "--objects",
        action="store_true",
        help="serve the orders workload object-centrically: --cases is a "
        "total-case budget split into cases // (fan_out + 1) order "
        "objects, each fanning out into 1 + fan_out cross-case-"
        "synchronized cases (orders workload only)",
    )
    serve.add_argument(
        "--fan-out", type=int, default=10, metavar="N",
        help="line items declared per order with --objects (default 10)",
    )
    serve.add_argument(
        "--cancel-every", type=int, default=0, metavar="K",
        help="with --objects: every K-th item fails its quality check and "
        "is dropped (still resolves the ship barrier; default 0: none)",
    )
    serve.add_argument(
        "--withhold", type=int, default=0, metavar="W",
        help="with --objects: submit W fewer items per order than "
        "declared, stranding the ship barrier (RT006; default 0)",
    )
    serve.add_argument(
        "--random-shard",
        action="store_true",
        help="with --objects: place cases by case id instead of "
        "co-sharding by object key (the baseline the benchmark compares "
        "against)",
    )
    serve.add_argument(
        "--redeploy-after", type=int, default=None, metavar="N",
        help="hot-swap to the edited constraint set (--to) once N cases "
        "have completed (per worker with --workers); requires --journal",
    )
    serve.add_argument(
        "--to", default=None, metavar="EDITS.json",
        help="constraint edit batch for --redeploy-after: "
        '{"add": [{"source", "target", "condition"?}], "remove": [...]}',
    )
    serve.add_argument(
        "--strategy", default="upgrade", choices=["drain", "upgrade", "reject"],
        help="migration strategy at the swap barrier: drain everything on "
        "the old version, upgrade what replays cleanly (default), or "
        "reject whatever cannot upgrade",
    )
    add_obs_flags(serve)

    deploy_cmd = subparsers.add_parser(
        "deploy",
        help="plan/apply a zero-downtime constraint hot swap: incremental "
        "re-minimization, strand-gate pre-flight, live case migration",
    )
    add_workload(deploy_cmd)
    deploy_cmd.add_argument(
        "--to", required=True, metavar="EDITS.json",
        help="constraint edit batch to deploy: "
        '{"add": [{"source", "target", "condition"?}], "remove": [...]}',
    )
    deploy_cmd.add_argument(
        "--from", dest="journal", default=None, metavar="JOURNAL",
        help="classify and migrate the in-flight cases of this WAL journal "
        "(omit for a pure pre-flight of the edit batch)",
    )
    deploy_cmd.add_argument(
        "--strategy", default="upgrade", choices=["drain", "upgrade", "reject"],
        help="migration strategy (default upgrade)",
    )
    deploy_cmd.add_argument(
        "--dry-run",
        action="store_true",
        help="plan the migration but apply nothing (no journal writes)",
    )
    deploy_cmd.add_argument(
        "--state-limit", type=int, default=200_000, metavar="N",
        help="strand-gate exploration bound (default 200000)",
    )
    deploy_cmd.add_argument(
        "--fail-on",
        default="error",
        choices=["info", "warning", "error"],
        help="exit 1 when any DEP finding is at or above this severity",
    )
    deploy_cmd.add_argument(
        "--format", default="text", choices=["text", "json"],
    )
    add_obs_flags(deploy_cmd)

    verify_cmd = subparsers.add_parser(
        "verify",
        help="symbolically verify the constraint program (deadlock-freedom, "
        "dead activities, unreachable branches, inert constraints)",
    )
    add_workload(verify_cmd)
    verify_cmd.add_argument(
        "--set",
        default="minimal",
        choices=["minimal", "full"],
        help="constraint set to verify (default: the minimized set)",
    )
    verify_cmd.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"]
    )
    add_rule_flags(verify_cmd, "error", ("VER",))
    verify_cmd.add_argument(
        "--state-limit",
        type=int,
        default=200_000,
        metavar="N",
        help="abort exploration past N states (default 200000)",
    )
    add_obs_flags(verify_cmd)

    discover_cmd = subparsers.add_parser(
        "discover",
        help="mine synchronization dependencies from an event log "
        "(JSONL/CSV/XES or a runtime WAL journal)",
    )
    discover_cmd.add_argument(
        "--log",
        required=True,
        metavar="PATH",
        help="event log to mine (e.g. from dscweaver simulate --record "
        "or a dscweaver serve --journal file)",
    )
    discover_cmd.add_argument(
        "--format",
        default=None,
        choices=["jsonl", "csv", "xes", "journal"],
        help="log format (default: sniffed from extension and content)",
    )
    discover_cmd.add_argument(
        "--min-support",
        type=int,
        default=5,
        metavar="N",
        help="minimum supporting cases per candidate (default 5)",
    )
    discover_cmd.add_argument(
        "--min-confidence",
        type=float,
        default=0.95,
        metavar="C",
        help="minimum agreeing fraction of the evidence (default 0.95)",
    )
    discover_cmd.add_argument(
        "--noise",
        type=float,
        default=0.0,
        metavar="R",
        help="tolerated contradiction rate per guard outcome (default 0.0)",
    )
    discover_cmd.add_argument(
        "--reference",
        default=None,
        choices=WORKLOADS,
        help="score the mined set against this workload's declared "
        "dependencies (entailment-level precision/recall, transitive "
        "equivalence, end-to-end verification; divergences are DIS005)",
    )
    discover_cmd.add_argument(
        "--no-verify",
        action="store_true",
        help="with --reference, skip symbolic verification of the "
        "rediscovered minimal program",
    )
    discover_cmd.add_argument(
        "--emit-dscl",
        default=None,
        metavar="PATH",
        help="write the mined dependency set as a DSCL program",
    )
    discover_cmd.add_argument(
        "--show-candidates",
        action="store_true",
        help="list every scored candidate in the text report",
    )
    discover_cmd.add_argument(
        "--report-format", default="text", choices=["text", "json", "sarif"]
    )
    add_rule_flags(discover_cmd, "warning", ("DIS",))
    add_obs_flags(discover_cmd)

    petri_cmd = subparsers.add_parser(
        "petri",
        help="translate the constraint set to a Petri net and report "
        "soundness, terminal markings and witness paths",
    )
    add_workload(petri_cmd)
    petri_cmd.add_argument(
        "--set",
        default="minimal",
        choices=["minimal", "full"],
        help="constraint set to translate (default: the minimized set)",
    )
    petri_cmd.add_argument(
        "--format", default="text", choices=["text", "json"]
    )
    petri_cmd.add_argument(
        "--state-limit",
        type=int,
        default=200_000,
        metavar="N",
        help="abort reachability past N markings (default 200000)",
    )

    trace_cmd = subparsers.add_parser(
        "trace",
        help="summarize a Chrome trace JSON file (top spans by self time)",
    )
    trace_cmd.add_argument(
        "file", help="trace file written by --trace-out (Chrome trace_event JSON)"
    )
    trace_cmd.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="number of span names to list (default 15)",
    )

    arguments = parser.parse_args(argv)

    if arguments.command == "lint":
        return _run_lint_command(arguments)
    if arguments.command == "replay":
        return _run_replay_command(arguments)
    if arguments.command == "monitor":
        return _run_monitor_command(arguments)
    if arguments.command == "serve":
        return _run_serve_command(arguments)
    if arguments.command == "deploy":
        return _run_deploy_command(arguments)
    if arguments.command == "verify":
        return _run_verify_command(arguments)
    if arguments.command == "discover":
        return _run_discover_command(arguments)
    if arguments.command == "petri":
        return _run_petri_command(arguments)
    if arguments.command == "trace":
        return _run_trace_command(arguments)

    if arguments.command == "uml":
        from repro.uml.extract import diagram_dependencies
        from repro.uml.xmlio import diagram_from_xml

        with open(arguments.file, "r", encoding="utf-8") as handle:
            diagram = diagram_from_xml(handle.read())
        print(diagram_dependencies(diagram).as_table())
        return 0

    if arguments.command == "table1":
        _process, dependencies = _load_workload(arguments.workload)
        print(dependencies.as_table())
        return 0

    if arguments.command == "minimize":
        return _run_minimize_command(arguments)

    process, result = _weave(arguments.workload)

    if arguments.command == "weave":
        print(result.report.as_table())
    elif arguments.command == "minimal":
        for constraint in sorted(result.minimal.constraints):
            print(constraint)
    elif arguments.command == "dscl":
        from repro.dscl.printer import to_text

        print(to_text(result.program), end="")
    elif arguments.command == "bpel":
        if arguments.structured:
            from repro.bpel.structure import emit_structured_bpel

            xml = emit_structured_bpel(process, result.minimal)
        else:
            xml = result.to_bpel()
        if arguments.output:
            with open(arguments.output, "w", encoding="utf-8") as handle:
                handle.write(xml + "\n")
            print("wrote %s" % arguments.output)
        else:
            print(xml)
    elif arguments.command == "validate":
        from repro.petri.soundness import check_soundness
        from repro.validation.conflicts import find_conflicts

        conflicts = find_conflicts(result.asc, exclusives=result.exclusives)
        print("conflicts: %s" % conflicts.summary())
        net, _marking = result.to_petri_net()
        report = check_soundness(net)
        print(
            "workflow net: %s | sound: %s | reachable markings: %d"
            % (report.is_workflow_net, report.is_sound, report.reachable_markings)
        )
        for problem in report.problems:
            print("  problem:", problem)
        return 0 if report.is_sound and not conflicts.has_conflicts else 1
    elif arguments.command == "dot":
        from repro.export.dot import (
            constraint_set_to_dot,
            dependency_set_to_dot,
            petri_net_to_dot,
        )

        if arguments.what == "dependencies":
            text = dependency_set_to_dot(
                result.dependencies,
                name=arguments.workload,
                ports=process.port_names(),
            )
        elif arguments.what == "merged":
            text = constraint_set_to_dot(result.merged, name=arguments.workload)
        elif arguments.what == "translated":
            text = constraint_set_to_dot(
                result.asc,
                name=arguments.workload,
                highlight=result.translation.bridged,
            )
        elif arguments.what == "petri":
            net, _marking = result.to_petri_net()
            text = petri_net_to_dot(net, name=arguments.workload)
        elif arguments.what == "races":
            from repro.lint import find_races

            races = find_races(
                result.asc, process=process, exclusives=result.exclusives
            )
            text = constraint_set_to_dot(
                result.asc, name=arguments.workload, races=races
            )
        else:
            text = constraint_set_to_dot(result.minimal, name=arguments.workload)
        if arguments.output:
            with open(arguments.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print("wrote %s" % arguments.output)
        else:
            print(text, end="")
    elif arguments.command == "simulate":
        if arguments.cases > 1:
            from repro.discover.evaluate import simulate_log

            log = simulate_log(
                process,
                result,
                cases=arguments.cases,
                seed=arguments.seed,
                case_prefix=arguments.case or "case",
            )
            print(
                "simulated %d case(s) of %r: %d event(s), every "
                "guard-outcome combination enumerated, straggler jitter on"
                % (arguments.cases, arguments.workload, len(log))
            )
            log = _maybe_perturb(log, arguments, result)
            if arguments.record:
                log.save_jsonl(arguments.record)
                print(
                    "recorded %d event(s) across %d case(s) to %s"
                    % (len(log), arguments.cases, arguments.record)
                )
            return 0

        from repro.scheduler.engine import ConstraintScheduler
        from repro.scheduler.metrics import max_concurrency

        obs = _make_obs(arguments)
        scheduler = ConstraintScheduler(
            process,
            result.minimal,
            fine_grained=result.fine_grained,
            exclusives=result.exclusives,
            obs=obs,
        )
        run = scheduler.run(outcomes=_parse_outcomes(arguments.outcome))
        _flush_obs(obs, arguments)
        print(
            "makespan=%.1f  constraint checks=%d  peak concurrency=%d"
            % (run.makespan, run.constraint_checks, max_concurrency(run.trace))
        )
        for record in run.trace.executed():
            outcome = " -> %s" % record.outcome if record.outcome else ""
            print(
                "  %6.1f .. %6.1f  %s%s"
                % (record.start, record.finish, record.name, outcome)
            )
        skipped = run.trace.skipped()
        if skipped:
            print("  skipped: %s" % ", ".join(skipped))
        if arguments.record:
            from repro.conformance import EventLog, events_from_trace

            case = arguments.case or arguments.workload
            log = EventLog(events_from_trace(run.trace, case))
            log = _maybe_perturb(log, arguments, result)
            log.save_jsonl(arguments.record)
            print(
                "recorded %d event(s) for case %r to %s"
                % (len(log), case, arguments.record)
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
