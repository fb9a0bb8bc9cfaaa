"""Figure 7.6 — consolidation effectiveness under higher active tenant ratios.

The §7.4 log-composition variants concentrate activity in wall-clock time:
(1) tenants only from North America (+0/+3 offsets), (2) additionally no
lunch hour, (3) a single time zone and no lunch.  Paper shape: the active
tenant ratio climbs (11.9 % -> 25.1 % -> 30.7 % -> 34.4 %) and the 2-step
effectiveness collapses (81.3 % -> ... -> 47.6 % -> 34.8 %) with average
group sizes shrinking toward ~5 (at R = 3: three MPPDBs serving five
tenants saves only two tenants' nodes).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.sweeps import build_workload, run_grouping_experiment


def test_fig7_6_higher_active_ratio(scale):
    base = scale.config()
    variants = [
        ("default", base.logs),
        ("(1) NA offsets only", base.logs.north_america_only()),
        ("(2) NA + no lunch", base.logs.north_america_only().without_lunch()),
        ("(3) single tz + no lunch", base.logs.single_timezone().without_lunch()),
    ]

    def experiment():
        rows = []
        for name, logs in variants:
            config = base.scaled(logs=logs)
            workload = build_workload(config, scale.sessions_per_size)
            row = run_grouping_experiment(
                workload,
                epoch_size=config.epoch_size_s,
                replication_factor=config.replication_factor,
                sla_percent=config.sla_percent,
                parameter="variant",
                value=name,
            )
            conditional = workload.active_tenant_ratio(
                config.epoch_size_s, conditional=True
            )
            rows.append((name, conditional, row))
        return rows

    rows = experiment()
    print()
    print(
        format_table(
            ["variant", "active_ratio", "2step_eff", "ffd_eff", "2step_gsz"],
            [
                [name, round(ratio, 4), round(r.two_step_effectiveness, 4),
                 round(r.ffd_effectiveness, 4), round(r.two_step_group_size, 2)]
                for name, ratio, r in rows
            ],
            title="Figure 7.6: higher active tenant ratio (conditional ratio)",
        )
    )
    ratios = [ratio for __, ratio, __ in rows]
    efficiencies = [r.two_step_effectiveness for __, __, r in rows]
    sizes = [r.two_step_group_size for __, __, r in rows]
    # Activity concentration rises across the variants...
    assert ratios[1] > ratios[0]
    assert ratios[3] > ratios[1]
    # ...and consolidation effectiveness falls substantially.
    assert efficiencies[3] < efficiencies[0] - 0.15
    assert efficiencies[3] == min(efficiencies)
    # Group sizes shrink with the squeeze.
    assert sizes[3] < sizes[0]
