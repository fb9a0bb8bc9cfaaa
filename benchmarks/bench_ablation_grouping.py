"""Ablation — the design choices inside the grouping heuristics.

Four variants on the same instance:

* 2-step (homogeneous initial groups, the paper's Algorithm 2);
* 1-step (the second step run directly on the mixed tenant population —
  drops the paper's first intuition, so bins mix sizes and pay for their
  largest member);
* FFD with activity-only sorting (the paper's baseline);
* FFD with size-aware (volume) sorting and with the classic hard capacity,
  isolating each of FFD's two blind spots.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.sweeps import build_workload
from repro.packing.ffd import ffd_grouping
from repro.packing.livbp import GroupingSolution, LIVBPwFCProblem
from repro.packing.two_step import pack_initial_group, two_step_grouping
from repro.workload.activity import ActivityMatrix


def _one_step_grouping(problem):
    """Algorithm 2's second step without the homogeneous first step."""
    groups = pack_initial_group(
        problem.items, problem.num_epochs, problem.replication_factor, problem.sla_fraction
    )
    return GroupingSolution(problem, groups, solver="1-step-mixed")


def test_ablation_grouping_design(scale):
    config = scale.config()
    workload = build_workload(config, scale.sessions_per_size)
    matrix = ActivityMatrix.from_workload(workload, config.epoch_size_s)
    problem = LIVBPwFCProblem.from_activity_matrix(
        matrix, config.replication_factor, config.sla_percent
    )

    def experiment():
        return [
            two_step_grouping(problem),
            _one_step_grouping(problem),
            ffd_grouping(problem, sort_key="activity", fuzzy=True),
            ffd_grouping(problem, sort_key="volume", fuzzy=True),
            ffd_grouping(problem, sort_key="activity", fuzzy=False),
        ]

    solutions = experiment()
    for solution in solutions:
        solution.validate()
    print()
    print(
        format_table(
            ["variant", "nodes_used", "effectiveness", "avg_group_size"],
            [
                [
                    s.solver,
                    s.total_nodes_used,
                    round(s.consolidation_effectiveness, 4),
                    round(s.average_group_size, 2),
                ]
                for s in solutions
            ],
            title="Grouping design ablation (default parameters)",
        )
    )
    two_step, one_step, ffd_paper, ffd_volume, ffd_hard = solutions
    # Dropping the homogeneous first step costs nodes: mixed bins pay for
    # their largest tenant.
    assert two_step.total_nodes_used < one_step.total_nodes_used
    # Size-aware sorting repairs most of FFD's gap...
    assert ffd_volume.total_nodes_used <= ffd_paper.total_nodes_used
    # ...while the classic hard capacity cripples it (no fuzzy allowance).
    assert ffd_hard.total_nodes_used > ffd_paper.total_nodes_used
    # The full 2-step beats the paper's FFD baseline (§7.3).
    assert two_step.total_nodes_used < ffd_paper.total_nodes_used
