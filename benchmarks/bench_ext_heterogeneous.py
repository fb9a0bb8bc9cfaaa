"""Extension — heterogeneous clusters (Chapter 8, future work item 1).

A provider refreshes part of its fleet with faster machines.  TDD keeps
every MPPDB on uniform nodes, so heterogeneity is assigned *between*
tenant groups: the greedy planner gives the fastest class to the largest
node consumers while stock lasts.  The experiment deploys the same tenant
group on standard and fast hardware and replays the 4-concurrent-tenant
overflow scenario: on fast nodes, even the overflow query that shares
MPPDB_0 meets its (standard-hardware) SLA — hardware headroom buys the
same effect as Chapter 6's manual U tuning.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.sweeps import build_workload
from repro.cluster.node import NodeSpec
from repro.cluster.pool import MachinePool
from repro.core.advisor import DeploymentAdvisor
from repro.core.heterogeneous import assign_node_classes, plan_speed_summary
from repro.core.master import DeploymentMaster
from repro.core.runtime import GroupRuntime
from repro.mppdb.provisioning import Provisioner
from repro.simulation.engine import Simulator
from repro.units import approx_eq
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.queries import template_by_name

FAST = NodeSpec(cpu_units=16, ram_gb=30.0, relative_speed=2.0)


def _overflow_replay(group, node_class):
    """Four tenants of the group concurrently active; one overflows."""
    sim = Simulator()
    pool = MachinePool(0, elastic=True)
    pool.add_node_class("fast", FAST)
    master = DeploymentMaster(Provisioner(sim, pool))
    deployed = master.deploy_group(group, instant=True, node_class=node_class)
    q1 = template_by_name("tpch.q1")
    n = group.design.parallelism
    baseline = q1.dedicated_latency_s(n * 100.0, n)
    actives = list(group.placement.tenant_ids[:4])
    logs = {
        tid: TenantLog(
            group.tenant(tid),
            [QueryRecord(submit_time_s=100.0, latency_s=baseline, template="tpch.q1")]
            if tid in actives
            else [],
        )
        for tid in group.placement.tenant_ids
    }
    runtime = GroupRuntime(deployed, logs, sim, master.provisioner, sla_fraction=0.999)
    return runtime.run(until=100_000.0)


def test_ext_heterogeneous_cluster(scale):
    config = scale.config()
    workload = build_workload(config, scale.sessions_per_size)
    advice = DeploymentAdvisor(config).plan_from_workload(workload)
    plan = advice.plan

    def experiment():
        pool = MachinePool(0, elastic=True)
        # Refresh ~40% of the fleet with 2x nodes.
        pool.add_node_class("fast", FAST, count=int(0.4 * plan.total_nodes_used))
        assignment = assign_node_classes(plan, pool)
        summary = plan_speed_summary(plan, pool, assignment)
        group = sorted(
            plan.groups,
            key=lambda g: (g.design.parallelism, -len(g.tenants)),
        )[0]
        reports = {
            node_class: _overflow_replay(group, node_class)
            for node_class in ("standard", "fast")
        }
        return assignment, summary, group, reports

    assignment, summary, group, reports = experiment()
    upgraded = [name for name, cls in assignment.items() if cls == "fast"]
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["groups upgraded to fast nodes", len(upgraded)],
                ["node-weighted mean speed", round(summary["mean_speed"], 3)],
                ["total plan nodes", int(summary["nodes"])],
            ],
            title="Heterogeneous fleet assignment (fastest class to largest groups)",
        )
    )
    rows = []
    for node_class, report in reports.items():
        rows.append(
            [
                node_class,
                report.overflow_queries,
                round(report.sla.fraction_met, 3),
                round(report.sla.worst_normalized, 3),
            ]
        )
    print(
        format_table(
            ["hardware", "overflow_queries", "sla_met", "worst_norm"],
            rows,
            title=f"4-concurrent-tenant overflow on {group.group_name} (A=3)",
        )
    )
    # The greedy planner upgrades in decreasing-size order within stock:
    # the single largest group is upgraded whenever the stock covers it,
    # total upgrades never exceed the stock, and the node-weighted mean
    # speed rises above the all-standard baseline.
    stock = int(0.4 * plan.total_nodes_used)
    upgraded_nodes = [plan.group(name).nodes_used for name in upgraded]
    largest = max(g.nodes_used for g in plan)
    if stock >= largest:
        assert largest in upgraded_nodes
    assert sum(upgraded_nodes) <= stock
    assert summary["mean_speed"] > 1.0
    # Overflow sharing misses the SLA on standard nodes but the 2x class
    # absorbs it (like point C of Fig 1.1b, bought with hardware).
    assert reports["standard"].sla.worst_normalized > 1.5
    assert approx_eq(reports["fast"].sla.fraction_met, 1.0)
