"""Figure 7.2 — varying the number of tenants T.

Paper shape: consolidation effectiveness is not strongly influenced by T
but improves slightly with more tenants (79.3 % at T = 1000 to 83.3 % at
T = 10000 for the 2-step heuristic) because a larger candidate pool gives
the grouping more complementary activity patterns to pick from; average
group size grows accordingly; FFD stays several points behind; the 2-step
run time grows quadratically per initial group, FFD stays fast.
"""

from __future__ import annotations

from conftest import bench_profile

from repro.analysis.report import format_table
from repro.analysis.sweeps import GROUPING_HEADERS, sweep_parameter


def test_fig7_2_varying_tenants(scale):
    tenant_counts = [
        max(100, scale.num_tenants // 4),
        scale.num_tenants,
        scale.num_tenants * 2,
    ]

    def experiment():
        return sweep_parameter("num_tenants", tenant_counts, scale=scale)

    rows = experiment()
    print()
    print(
        format_table(
            GROUPING_HEADERS,
            [r.as_list() for r in rows],
            title="Figure 7.2: varying number of tenants T",
        )
    )
    small, mid, large = rows
    # (a) more tenants -> (weakly) better effectiveness.
    assert large.two_step_effectiveness >= small.two_step_effectiveness - 0.02
    # (b) group size grows (or holds) with T.
    assert large.two_step_group_size >= small.two_step_group_size - 0.5
    # 2-step beats FFD at every T (§7.3: 3.6–11.1 points); at smoke scale
    # only the largest T has enough tenants per size class.
    if bench_profile() == "smoke":
        assert large.advantage_points > 0.0
    else:
        assert all(r.advantage_points > 0.0 for r in rows)
    # (c) FFD is the faster algorithm.
    assert large.ffd_seconds < large.two_step_seconds
