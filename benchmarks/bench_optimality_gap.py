"""Optimality-gap study (Chapter 5 / §7.3's MINLP remark).

The paper implements the Appendix 9.1 MINLP and solves it with DIRECT [14],
reporting ~12 days for a mere 20 tenants — which is why the evaluation
compares heuristics only.  Here, a tiny instance (sampled from the real
workload) is solved four ways: exact branch-and-bound, the 2-step
heuristic, FFD, and MINLP + DIRECT under an evaluation budget.  The
heuristics land at or near the optimum in microseconds; DIRECT burns its
budget to get (at best) the same answer.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.sweeps import build_workload
from repro.packing.direct import solve_livbp_with_direct
from repro.packing.exact import exact_grouping
from repro.packing.ffd import ffd_grouping
from repro.packing.livbp import LIVBPwFCProblem
from repro.packing.two_step import two_step_grouping
from repro.workload.activity import ActivityMatrix

_TINY_TENANTS = 9
_COARSE_EPOCH = 600.0  # keep DIRECT's evaluation affordable


def _tiny_problem(scale):
    config = scale.config()
    workload = build_workload(config, scale.sessions_per_size)
    matrix = ActivityMatrix.from_workload(workload, _COARSE_EPOCH)
    # Sample a mixed handful of real tenants.
    chosen = matrix.items[:: max(1, len(matrix.items) // _TINY_TENANTS)][:_TINY_TENANTS]
    return LIVBPwFCProblem(
        items=tuple(chosen),
        num_epochs=matrix.num_epochs,
        replication_factor=config.replication_factor,
        sla_fraction=config.sla_fraction,
    )


def test_optimality_gap(scale):
    problem = _tiny_problem(scale)

    def experiment():
        exact = exact_grouping(problem)
        two_step = two_step_grouping(problem)
        ffd = ffd_grouping(problem)
        direct, direct_raw = solve_livbp_with_direct(problem, max_evals=1500)
        return exact, two_step, ffd, direct, direct_raw

    exact, two_step, ffd, direct, direct_raw = experiment()
    for solution in (exact, two_step, ffd, direct):
        solution.validate()
    print()
    print(
        format_table(
            ["solver", "nodes_used", "gap_vs_optimal", "solve_s"],
            [
                [s.solver, s.total_nodes_used,
                 s.total_nodes_used - exact.total_nodes_used,
                 round(s.solve_seconds, 4)]
                for s in (exact, two_step, ffd, direct)
            ],
            title=f"Optimality gap on {len(problem)} real tenants (d={problem.num_epochs})",
        )
    )
    print(f"DIRECT evaluations: {direct_raw.evaluations}, iterations: {direct_raw.iterations}")
    # The exact optimum lower-bounds everyone.
    assert exact.total_nodes_used <= two_step.total_nodes_used
    assert exact.total_nodes_used <= ffd.total_nodes_used
    assert exact.total_nodes_used <= direct.total_nodes_used
    # Heuristic gaps stay bounded even on this adversarial regime: with a
    # handful of mixed-size tenants, the 2-step's homogeneous first step
    # (its strength at scale) forces near-singleton groups, so tiny
    # instances are where the exact solver visibly wins — the paper's
    # point in comparing against the MINLP at 20 tenants.
    assert two_step.total_nodes_used <= 2 * exact.total_nodes_used
    assert ffd.total_nodes_used <= 2 * exact.total_nodes_used
    # DIRECT, given a budget, is no better than exact and far slower than
    # the heuristics.
    assert direct.solve_seconds > two_step.solve_seconds
