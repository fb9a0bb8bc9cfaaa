"""Query log containers and interval algebra.

A :class:`QueryRecord` is one line of a collected query log: which tenant
submitted which template when, and how long it ran *on its dedicated MPPDB*
(the latency before consolidation — exactly the performance SLA, §1.1).
A :class:`TenantLog` is a tenant's time-ordered record list with the busy
intervals derived from it; busy intervals are what the epoch discretization
(:mod:`~repro.workload.activity`) and the run-time replay consume.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import WorkloadError
from .tenant import TenantSpec

__all__ = ["QueryRecord", "TenantLog", "merge_intervals"]


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One executed query in a log."""

    submit_time_s: float
    latency_s: float
    template: str
    user: int = 0
    batch_id: int = -1

    def __post_init__(self) -> None:
        # The chained comparison is False for NaN as well as for ±inf and < 0.
        if not 0.0 <= self.submit_time_s < math.inf:
            raise WorkloadError(
                f"submit time must be finite and non-negative, got {self.submit_time_s!r}"
            )
        if not 0.0 <= self.latency_s < math.inf:
            raise WorkloadError(f"latency must be finite and non-negative, got {self.latency_s!r}")

    @property
    def finish_time_s(self) -> float:
        """Completion timestamp."""
        return self.submit_time_s + self.latency_s

    def shifted(self, offset_s: float) -> "QueryRecord":
        """Copy with the submit time shifted by ``offset_s`` (composition step)."""
        return QueryRecord(
            self.submit_time_s + offset_s, self.latency_s, self.template, self.user, self.batch_id
        )


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of (possibly overlapping) half-open intervals, sorted and disjoint."""
    ordered = sorted((float(s), float(e)) for s, e in intervals)
    merged: list[tuple[float, float]] = []
    for start, end in ordered:
        if end < start:
            raise WorkloadError(f"interval end {end!r} precedes start {start!r}")
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


class TenantLog:
    """A tenant's time-ordered query log."""

    def __init__(self, tenant: TenantSpec, records: Sequence[QueryRecord]) -> None:
        self.tenant = tenant
        self.records: tuple[QueryRecord, ...] = tuple(
            sorted(records, key=lambda r: (r.submit_time_s, r.user, r.template))
        )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def tenant_id(self) -> int:
        """Owning tenant's id."""
        return self.tenant.tenant_id

    def busy_intervals(self) -> list[tuple[float, float]]:
        """Disjoint intervals during which the tenant has a query running.

        This is the paper's *strong notion of inactive* (§4.3): the tenant
        is inactive exactly when no query of it is being executed anywhere.
        """
        return merge_intervals((r.submit_time_s, r.finish_time_s) for r in self.records)

    def total_busy_seconds(self) -> float:
        """Total time the tenant is active."""
        return sum(end - start for start, end in self.busy_intervals())

    def is_active_at(self, t: float) -> bool:
        """Whether some query is running at time ``t`` (half-open intervals)."""
        intervals = self.busy_intervals()
        starts = [s for s, _ in intervals]
        idx = bisect.bisect_right(starts, t) - 1
        if idx < 0:
            return False
        start, end = intervals[idx]
        return start <= t < end

    def window(self, start: float, end: float) -> "TenantLog":
        """Records submitted in ``[start, end)``, as a new log."""
        subset = [r for r in self.records if start <= r.submit_time_s < end]
        return TenantLog(self.tenant, subset)

    def horizon_s(self) -> float:
        """Completion time of the last query (0 for an empty log)."""
        if not self.records:
            return 0.0
        return max(r.finish_time_s for r in self.records)
