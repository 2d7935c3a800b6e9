"""Reduction reports — the reproduction of Table 2.

Table 2 of the paper reports the number of dependencies before and after
dependency inference for the Purchasing process: 23 of the 40 original
constraints are removed.  :class:`ReductionReport` records every stage of
the pipeline so the table (and richer variants) can be printed for any
process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.deps.registry import DependencySet
from repro.deps.types import DependencyKind


@dataclass(frozen=True)
class ReductionReport:
    """Constraint counts at each stage of the weave pipeline.

    ``raw_by_kind``
        Per-category dependency counts, Table 1 style.
    ``raw_total``
        Total dependencies before any processing (Table 2's "before").
    ``merged``
        Unique constraints after uniform DSCL representation (cross-category
        duplicates collapse here).
    ``translated``
        Constraints after service dependency translation (external nodes
        eliminated).
    ``minimal``
        Constraints in the minimal set (Table 2's "after").
    ``kernel_stats``
        Optional bitset-kernel counters (closures computed, cache hits,
        subsumption tests — see :class:`repro.core.kernel.KernelStats`),
        attached when minimization ran on the kernel path.
    """

    raw_by_kind: Dict[str, int]
    raw_total: int
    merged: int
    translated: int
    minimal: int
    kernel_stats: Optional[Dict[str, object]] = None

    @property
    def removed(self) -> int:
        """Constraints removed relative to the original dependency set."""
        return self.raw_total - self.minimal

    @property
    def removed_by_merge(self) -> int:
        return self.raw_total - self.merged

    @property
    def removed_by_translation(self) -> int:
        return self.merged - self.translated

    @property
    def removed_by_minimization(self) -> int:
        return self.translated - self.minimal

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the original constraints removed (0.0 - 1.0)."""
        if self.raw_total == 0:
            return 0.0
        return self.removed / self.raw_total

    @classmethod
    def from_counts(
        cls,
        dependencies: DependencySet,
        merged: int,
        translated: int,
        minimal: int,
    ) -> "ReductionReport":
        counts = dependencies.counts()
        raw_total = counts.pop("total")
        return cls(
            raw_by_kind=counts,
            raw_total=raw_total,
            merged=merged,
            translated=translated,
            minimal=minimal,
        )

    def with_kernel_stats(self, stats: Dict[str, object]) -> "ReductionReport":
        """A copy of this report carrying bitset-kernel counters."""
        return replace(self, kernel_stats=dict(stats))

    def as_table(self) -> str:
        """Text rendering in the spirit of Table 2."""
        lines: List[str] = []
        lines.append("stage                      constraints")
        lines.append("-------------------------  -----------")
        for kind in DependencyKind:
            lines.append(
                "  %-23s  %11d" % (kind.value, self.raw_by_kind.get(kind.value, 0))
            )
        lines.append("%-25s  %11d" % ("original (Table 1)", self.raw_total))
        lines.append("%-25s  %11d" % ("merged (DSCL, Sec 4.2)", self.merged))
        lines.append("%-25s  %11d" % ("translated (Sec 4.3)", self.translated))
        lines.append("%-25s  %11d" % ("minimal (Def 6)", self.minimal))
        lines.append("%-25s  %11d" % ("removed", self.removed))
        if self.kernel_stats is not None:
            hit_rate = self.kernel_stats.get("closure_cache_hit_rate", 0.0)
            lines.append(
                "%-25s  %s closures, %s cache hits (%.0f%%), %s subsumption tests"
                % (
                    "kernel",
                    self.kernel_stats.get("closures_computed", 0),
                    self.kernel_stats.get("closure_cache_hits", 0),
                    100.0 * float(hit_rate),  # type: ignore[arg-type]
                    self.kernel_stats.get("subsumption_tests", 0),
                )
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "raw_by_kind": dict(self.raw_by_kind),
            "raw_total": self.raw_total,
            "merged": self.merged,
            "translated": self.translated,
            "minimal": self.minimal,
            "removed": self.removed,
            "reduction_ratio": self.reduction_ratio,
        }
        if self.kernel_stats is not None:
            payload["kernel_stats"] = dict(self.kernel_stats)
        return payload
