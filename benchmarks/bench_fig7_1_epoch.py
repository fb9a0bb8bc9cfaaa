"""Figure 7.1 — varying epoch size E.

Panels: (a) consolidation effectiveness, (b) average tenant-group size,
(c) grouping execution time, for the 2-step heuristic vs FFD.

Paper shape: effectiveness grows as E shrinks and plateaus once E drops
below the query duration (the paper's queries run ~10 s on its testbed, so
its plateau is at E = 10 s; this substrate's queries run ~1 s, so the
plateau shifts to E ≈ 1 s — see EXPERIMENTS.md).  The 2-step heuristic
saves more nodes than FFD away from the plateau; FFD is faster to run.
"""

from __future__ import annotations

from conftest import bench_profile

from repro.analysis.report import format_table
from repro.analysis.sweeps import GROUPING_HEADERS, sweep_parameter

_EPOCH_SIZES = (0.5, 1.0, 3.0, 10.0, 30.0, 90.0, 600.0, 1800.0)


def test_fig7_1_varying_epoch_size(small_scale):
    def experiment():
        return sweep_parameter("epoch_size_s", _EPOCH_SIZES, scale=small_scale)

    rows = experiment()
    print()
    print(
        format_table(
            GROUPING_HEADERS,
            [r.as_list() for r in rows],
            title=f"Figure 7.1: varying epoch size E (T={small_scale.num_tenants})",
        )
    )
    by_e = {r.value: r for r in rows}
    # (a) effectiveness is better at the plateau than at 1800 s.
    assert by_e[1.0].two_step_effectiveness > by_e[1800.0].two_step_effectiveness
    # Plateau: going below 1 s buys almost nothing.
    assert abs(by_e[0.5].two_step_effectiveness - by_e[1.0].two_step_effectiveness) < 0.05
    # (b) group size follows effectiveness.
    assert by_e[1.0].two_step_group_size > by_e[1800.0].two_step_group_size
    # §7.3: the 2-step heuristic saves more nodes than FFD at every epoch
    # size (paper: 5.1–9.4 points over its E range).  At smoke scale the
    # size classes are too small for the claim to hold at the plateau, so
    # only the default/large profiles assert it strictly.
    if bench_profile() == "smoke":
        assert all(r.advantage_points > -2.0 for r in rows)
        assert max(r.advantage_points for r in rows) > 3.0
    else:
        assert all(r.advantage_points > 0.0 for r in rows)
