"""The paper's 2-step tenant-grouping heuristic (Algorithm 2).

**Step 1** puts tenants requesting the same number of nodes into the same
*initial group* — the cluster-design cost of a group is dictated by its
largest tenant, so mixing sizes wastes nodes.

**Step 2** splits each initial group into tenant-groups: seed a new group
with the least-active remaining tenant, then repeatedly add the tenant
``T_best`` that minimizes the increase of the time-percentage histogram of
concurrent-active counts — compared lexicographically from the highest
concurrency level downward, exactly the cascade of tie-breaks walked
through in Figure 5.3.  Stop (close the group and open a new one) when
adding ``T_best`` would drop the group's TTP below ``P``.

Implementation notes (DESIGN.md §5):

* Adding tenant ``c`` moves each of its active epochs from concurrency
  level ``v`` to ``v + 1``, so the candidate's histogram *after* insertion
  is determined by ``bincount(counts[c.epochs])``; comparing those
  bincounts highest-level-first is exactly the paper's rule, in
  ``O(|active epochs of c|)`` per candidate.
* Residual ties (identical histograms, Figure 5.3d) are broken toward the
  tenant with fewer active epochs, then the lower tenant id — matching the
  figure, where the one-epoch ``T_6`` is chosen over the six-epoch ``T_1``.
* Feasibility of adding ``c`` needs only the epochs where the group count
  already equals ``R``: each contributes one new violating epoch.
* When ``T_best`` is infeasible the group is closed *without* scanning for
  another feasible tenant — the literal Goto of Algorithm 2 (line 11).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..workload.activity import ActivityItem
from .livbp import TTP_TOL, GroupingSolution, LIVBPwFCProblem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime is lazy)
    from ..parallel.runner import ProcessPoolRunner

__all__ = ["two_step_grouping", "initial_groups", "pack_initial_group"]


def initial_groups(items: Sequence[ActivityItem]) -> dict[int, list[ActivityItem]]:
    """Step 1: partition items by requested node count (homogeneous sizes)."""
    groups: dict[int, list[ActivityItem]] = {}
    for item in items:
        groups.setdefault(item.nodes_requested, []).append(item)
    return groups


def _candidate_key(
    counts: np.ndarray, candidate: ActivityItem, histogram_length: int
) -> tuple[tuple[int, ...], int, int]:
    """Ordering key for ``T_best`` selection (smaller is better).

    The first component is the occupancy bincount of the candidate's active
    epochs, padded to a common length and reversed so tuple comparison runs
    highest-concurrency-level-first; the trailing components are the
    activity-count and tenant-id tie-breaks.
    """
    if candidate.epochs.size:
        hist = np.bincount(counts[candidate.epochs], minlength=histogram_length)
    else:
        hist = np.zeros(histogram_length, dtype=np.int64)
    return tuple(int(x) for x in hist[::-1]), candidate.active_epoch_count, candidate.tenant_id


def pack_initial_group(
    items: Sequence[ActivityItem],
    num_epochs: int,
    replication_factor: int,
    sla_fraction: float,
) -> list[list[int]]:
    """Step 2 for one homogeneous initial group (a shardable work unit).

    Initial groups are independent of each other — Step 2 never moves a
    tenant across node-size classes — so the parallel fabric runs one
    shard per initial group and concatenates the results in size order
    (:mod:`repro.parallel.tasks` registers this as the
    ``pack_initial_group`` task).  Takes scalar problem parameters rather
    than the whole :class:`LIVBPwFCProblem` so a shard ships only its own
    items across the process boundary.
    """
    d = num_epochs
    r = replication_factor
    p = sla_fraction
    remaining = sorted(items, key=lambda it: (it.active_epoch_count, it.tenant_id))
    groups: list[list[int]] = []
    while remaining:
        seed = remaining.pop(0)
        group_ids = [seed.tenant_id]
        counts = np.zeros(d, dtype=np.int32)
        counts[seed.epochs] += 1
        violations = int(np.count_nonzero(counts > r))
        while remaining:
            histogram_length = len(group_ids) + 1
            best_index = 0
            best_key = _candidate_key(counts, remaining[0], histogram_length)
            for index in range(1, len(remaining)):
                key = _candidate_key(counts, remaining[index], histogram_length)
                if key < best_key:
                    best_key = key
                    best_index = index
            best = remaining[best_index]
            new_violations = violations
            if best.epochs.size:
                new_violations += int(np.count_nonzero(counts[best.epochs] == r))
            if (d - new_violations) / d + TTP_TOL >= p:
                counts[best.epochs] += 1
                violations = new_violations
                group_ids.append(best.tenant_id)
                remaining.pop(best_index)
            else:
                # Algorithm 2 line 11: close this group, start a new one,
                # without probing whether another candidate would still fit.
                break
        groups.append(group_ids)
    return groups


def two_step_grouping(
    problem: LIVBPwFCProblem, runner: "Optional[ProcessPoolRunner]" = None
) -> GroupingSolution:
    """Run Algorithm 2 on a LIVBPwFC instance.

    With a :class:`~repro.parallel.runner.ProcessPoolRunner`, each initial
    group (node-size class) packs in its own shard; the grouping produced
    is identical to the serial run because initial groups are independent
    and the merger concatenates them in ascending size order.  In that
    mode ``solve_seconds`` is the *sum of per-shard packing time* measured
    inside each shard with ``perf_counter`` — comparable to the serial
    number, free of pool-scheduling noise.
    """
    by_size = initial_groups(problem.items)
    if runner is not None and len(by_size) > 1:
        from ..parallel.merge import ResultMerger
        from ..parallel.tasks import pack_shards

        merged = ResultMerger().merge(runner.run(pack_shards(problem)))
        return GroupingSolution(
            problem,
            merged.flat(),
            solver="2-step",
            solve_seconds=merged.timings.get("pack_s", 0.0),
        )
    started = time.perf_counter()  # thrifty: noqa[THR001] measurement metadata
    all_groups: list[list[int]] = []
    for nodes in sorted(by_size):
        all_groups.extend(
            pack_initial_group(
                by_size[nodes],
                problem.num_epochs,
                problem.replication_factor,
                problem.sla_fraction,
            )
        )
    elapsed = time.perf_counter() - started  # thrifty: noqa[THR001] measurement metadata
    return GroupingSolution(problem, all_groups, solver="2-step", solve_seconds=elapsed)
