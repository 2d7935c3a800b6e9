"""Optimization core (Section 4 of the paper).

* :mod:`repro.core.constraints` — ``SC = {A, S, P}`` synchronization
  constraint sets (Definition 1);
* :mod:`repro.core.closure` — annotated transitive closure (Definition 3)
  under three equivalence semantics;
* :mod:`repro.core.kernel` — interned bitset representation of the
  condition algebra (masks, antichain closures, cover tests);
* :mod:`repro.core.session` — memoized minimization sessions with
  incremental closure invalidation on the kernel;
* :mod:`repro.core.equivalence` — set cover and transitive equivalence
  (Definitions 4-5);
* :mod:`repro.core.translation` — service dependency translation producing
  ``ASC = {A, P}`` (Section 4.3, Figure 8);
* :mod:`repro.core.minimize` — the minimal dependency set (Definition 6):
  one production pass on the kernel, plus the reference frozenset path and
  the paper's naive loop as named functions;
* :mod:`repro.core.pipeline` — the DSCWeaver end-to-end pipeline;
* :mod:`repro.core.report` — Table 2-style reduction reports.
"""

from repro.core.constraints import Constraint, SynchronizationConstraintSet
from repro.core.closure import Semantics, annotated_closure, closure_map
from repro.core.equivalence import covers, transitive_equivalent
from repro.core.incremental import add_constraint_incremental, is_covered
from repro.core.kernel import Interner, KernelStats
from repro.core.session import MinimizationSession
from repro.core.translation import translate_service_dependencies, verify_translation
from repro.core.minimize import minimize, minimize_fast, minimize_naive
from repro.core.pipeline import DSCWeaver, WeaveResult
from repro.core.report import ReductionReport

__all__ = [
    "Constraint",
    "DSCWeaver",
    "Interner",
    "KernelStats",
    "MinimizationSession",
    "ReductionReport",
    "Semantics",
    "SynchronizationConstraintSet",
    "WeaveResult",
    "add_constraint_incremental",
    "annotated_closure",
    "closure_map",
    "covers",
    "is_covered",
    "minimize",
    "minimize_fast",
    "minimize_naive",
    "translate_service_dependencies",
    "transitive_equivalent",
    "verify_translation",
]
