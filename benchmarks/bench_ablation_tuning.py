"""Ablation — manual tuning of the tuning MPPDB's size U (Chapter 6).

Four 2-node tenants submit TPC-H Q1 simultaneously; three land on
dedicated MPPDBs and the fourth overflows to MPPDB_0 (Algorithm 1 line 10),
sharing it with the tenant already there.  Sweeping U shows the Chapter 6
effect: at U = n the two sharing queries each run 2x slower and miss the
SLA; at U >= 2n (``recommended_tuning_nodes``) the extra parallelism fully
absorbs the overflow — point C of Figure 1.1b.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.deployment import GroupDeployment
from repro.core.master import DeployedGroup
from repro.core.runtime import GroupRuntime
from repro.core.tdd import design_for_group
from repro.core.tuning import recommended_tuning_nodes
from repro.mppdb.provisioning import Provisioner
from repro.simulation.engine import Simulator
from repro.units import approx_eq
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.queries import template_by_name
from repro.workload.tenant import TenantSpec

_NODES = 2
_NUM_TENANTS = 8   # group size; only the first four submit (U bound needs N)
_ACTIVE_TENANTS = 4


def _replay_with_u(tuning_parallelism: int):
    sim = Simulator()
    provisioner = Provisioner(sim)
    tenants = tuple(
        TenantSpec(tenant_id=i, nodes_requested=_NODES, data_gb=_NODES * 100.0)
        for i in range(1, _NUM_TENANTS + 1)
    )
    design, placement = design_for_group(
        "tg0", tenants, num_instances=3, tuning_parallelism=tuning_parallelism
    )
    instances = tuple(
        provisioner.provision(
            parallelism=design.instance_parallelism(i),
            tenants=[t.as_tenant_data() for t in tenants],
            name=name,
            instant=True,
        )
        for i, name in enumerate(design.instance_names())
    )
    deployed = DeployedGroup(
        deployment=GroupDeployment(design=design, placement=placement, tenants=tenants),
        instances=instances,
    )
    q1 = template_by_name("tpch.q1")
    baseline = q1.dedicated_latency_s(_NODES * 100.0, _NODES)
    logs = {
        t.tenant_id: TenantLog(
            t,
            [QueryRecord(submit_time_s=100.0, latency_s=baseline, template="tpch.q1")]
            if t.tenant_id <= _ACTIVE_TENANTS
            else [],
        )
        for t in tenants
    }
    runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
    return runtime.run(until=100_000.0)


def test_ablation_tuning_u():
    u_values = (2, 3, 4, 6)

    def experiment():
        return {u: _replay_with_u(u) for u in u_values}

    reports = experiment()
    print()
    print(
        format_table(
            ["U", "overflow_queries", "sla_met", "worst_norm"],
            [
                [
                    u,
                    report.overflow_queries,
                    round(report.sla.fraction_met, 3),
                    round(report.sla.worst_normalized, 3),
                ]
                for u, report in reports.items()
            ],
            title="Manual tuning: U of MPPDB_0 vs overflow SLA (4 concurrent tenants, n=2, A=3)",
        )
    )
    recommended = recommended_tuning_nodes(_NODES, overflow_mpl=2)
    print(f"recommended U for MPL 2 at n={_NODES}: {recommended}")
    # The overflow happens regardless of U (Algorithm 1 line 10)...
    assert all(report.overflow_queries == 1 for report in reports.values())
    # ...and at U = n it causes SLA violations.
    assert reports[2].sla.fraction_met < 1.0
    assert reports[2].sla.worst_normalized > 1.5
    # Raising U monotonically improves the worst normalized latency.
    worsts = [reports[u].sla.worst_normalized for u in u_values]
    assert all(b <= a + 1e-9 for a, b in zip(worsts, worsts[1:]))
    # At the recommended U the overflow is fully absorbed (empirically
    # meeting the 99.9 % SLA, Chapter 6's point).
    assert approx_eq(reports[recommended].sla.fraction_met, 1.0)
