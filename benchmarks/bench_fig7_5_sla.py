"""Figure 7.5 — varying the performance SLA guarantee P.

Paper shape: a lax 95 % guarantee lets groups pack far more tenants
(effectiveness up to 86.5 %); tightening to 99.9 % costs a few points
(81.6 %), and tightening further to 99.99 % barely moves the result
(81.3 %) — 99.9 % is already nearly as strict as the activity patterns
allow.  Both heuristics pack more tenants at lax P, and the 2-step run
time grows because more insertions succeed per group.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.sweeps import GROUPING_HEADERS, sweep_parameter
from repro.config import PAPER_SLA_LEVELS


def test_fig7_5_varying_sla(scale):
    def experiment():
        return sweep_parameter("sla_percent", list(PAPER_SLA_LEVELS), scale=scale)

    rows = experiment()
    print()
    print(
        format_table(
            GROUPING_HEADERS,
            [r.as_list() for r in rows],
            title="Figure 7.5: varying performance SLA P",
        )
    )
    by_p = {r.value: r for r in rows}
    # (a) lax SLA packs better; stricter SLA monotonically costs nodes.
    efficiencies = [by_p[p].two_step_effectiveness for p in (95.0, 99.0, 99.9, 99.99)]
    assert all(b <= a + 1e-9 for a, b in zip(efficiencies, efficiencies[1:]))
    assert by_p[95.0].two_step_effectiveness > by_p[99.9].two_step_effectiveness
    # Deviation note (see EXPERIMENTS.md): the paper reports 99.9 % ->
    # 99.99 % as nearly free; at this substrate's fine epoch sizes the
    # 10x-smaller violation budget binds, so the drop is visible but
    # bounded.
    assert (
        by_p[99.9].two_step_effectiveness - by_p[99.99].two_step_effectiveness
        < 0.2
    )
    # (b) group size follows the same order.
    assert by_p[95.0].two_step_group_size > by_p[99.99].two_step_group_size
    # 2-step beats FFD at every P.
    assert all(r.advantage_points > 0.0 for r in rows)
