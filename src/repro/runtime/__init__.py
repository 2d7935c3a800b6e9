"""Sharded multi-case coordination runtime.

Where :mod:`repro.scheduler` executes *one* process instance to
completion, this package serves *thousands* concurrently over a single
compiled constraint program:

* :mod:`repro.runtime.program` — the shared per-activity constraint
  program (:func:`compile_program` / :func:`program_from_weave`);
* :mod:`repro.runtime.instance` — one case's stepwise state machine,
  bit-for-bit equivalent to ``ConstraintScheduler`` per case;
* :mod:`repro.runtime.store` — hash-sharded instance store with
  per-shard run queues and batched scheduling;
* :mod:`repro.runtime.journal` — write-ahead JSONL journal (conformance
  event format) with crash recovery and fault injection;
* :mod:`repro.runtime.admission` — bounded in-flight admission control
  with a waiting queue and load shedding;
* :mod:`repro.runtime.retry` — deterministic per-service
  retry-with-timeout policies;
* :mod:`repro.runtime.metrics` — the :class:`RuntimeMetrics` snapshot;
* :mod:`repro.runtime.coordinator` — the :class:`Runtime` tying it all
  together, surfaced on the CLI as ``dscweaver serve``;
* :mod:`repro.runtime.workers` — the multi-process :class:`WorkerPool`
  partitioning one case load over N shard worker processes with
  segmented journals (``dscweaver serve --workers N``).

Importing the package registers the ``RT001``–``RT007`` runtime rules
with the lint registry (see :mod:`repro.runtime.rules`).
"""

from repro.runtime import rules  # noqa: F401  (registers RT00x lint rules)
from repro.runtime.admission import ADMIT, QUEUE, REJECT, AdmissionController
from repro.runtime.coordinator import Runtime, RuntimeReport, result_from_journal
from repro.runtime.instance import CaseInstance, CaseResult, CaseStatus
from repro.runtime.journal import (
    COMPLETED,
    FAILED,
    Journal,
    JournaledCase,
    JournalError,
    JournalState,
    SimulatedCrash,
    read_journal,
)
from repro.runtime.metrics import RuntimeMetrics, latency_quantiles
from repro.runtime.program import (
    ActivityInfo,
    ConstraintProgram,
    compile_program,
    program_from_weave,
)
from repro.runtime.retry import RetryPolicies, RetryPolicy
from repro.runtime.store import Shard, ShardedStore, shard_index
from repro.runtime.workers import (
    WorkerPool,
    WorkerPoolError,
    read_manifest,
    worker_of,
    write_manifest,
)

__all__ = [
    "ADMIT",
    "QUEUE",
    "REJECT",
    "COMPLETED",
    "FAILED",
    "ActivityInfo",
    "AdmissionController",
    "CaseInstance",
    "CaseResult",
    "CaseStatus",
    "ConstraintProgram",
    "Journal",
    "JournalError",
    "JournalState",
    "JournaledCase",
    "RetryPolicies",
    "RetryPolicy",
    "Runtime",
    "RuntimeMetrics",
    "RuntimeReport",
    "Shard",
    "ShardedStore",
    "SimulatedCrash",
    "WorkerPool",
    "WorkerPoolError",
    "compile_program",
    "latency_quantiles",
    "program_from_weave",
    "read_journal",
    "read_manifest",
    "result_from_journal",
    "rules",
    "shard_index",
    "worker_of",
    "write_manifest",
]
