"""Ablation — why Algorithm 1's routing order matters.

Replays one real tenant group under four routing policies:

* ``tdd`` — Algorithm 1 (tenant affinity, then free MPPDB_0, then any free,
  overflow to MPPDB_0);
* ``random-free`` — a free instance at random, no tenant affinity;
* ``round-robin`` — per-query round robin, oblivious to busy state;
* ``always-tuning`` — everything on MPPDB_0 (no use of replication).

TDD's tenant-exclusive routing should meet the most SLAs; always-tuning
collapses every concurrency onto one instance and is the clear loser.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.sweeps import build_workload
from repro.core.advisor import DeploymentAdvisor
from repro.core.master import DeploymentMaster
from repro.core.routing import ROUTER_POLICIES
from repro.core.runtime import GroupRuntime
from repro.mppdb.provisioning import Provisioner
from repro.simulation.engine import Simulator
from repro.units import DAY


def _replay_with_policy(workload, group, policy_name):
    sim = Simulator()
    provisioner = Provisioner(sim)
    master = DeploymentMaster(provisioner)
    deployed = master.deploy_group(group, instant=True)
    router_cls = ROUTER_POLICIES[policy_name]
    router = router_cls(deployed.instances)
    logs = {
        tenant_id: workload.tenant_log(tenant_id)
        for tenant_id in group.placement.tenant_ids
    }
    runtime = GroupRuntime(
        deployed, logs, sim, provisioner, sla_fraction=0.999, router=router
    )
    return runtime.run(until=2 * DAY)


def test_ablation_routing_policy(scale):
    config = scale.config()
    workload = build_workload(config, scale.sessions_per_size)
    advice = DeploymentAdvisor(config).plan_from_workload(workload)
    group = max(advice.plan.groups, key=lambda g: len(g.tenants))

    def experiment():
        return {
            name: _replay_with_policy(workload, group, name)
            for name in ("tdd", "random-free", "round-robin", "always-tuning")
        }

    reports = experiment()
    print()
    print(
        format_table(
            ["policy", "queries", "sla_met", "mean_norm", "worst_norm"],
            [
                [
                    name,
                    len(report.sla),
                    round(report.sla.fraction_met, 4),
                    round(report.sla.mean_normalized(), 3),
                    round(report.sla.worst_normalized, 2),
                ]
                for name, report in reports.items()
            ],
            title=f"Routing ablation on {group.group_name} ({len(group.tenants)} tenants)",
        )
    )
    tdd = reports["tdd"].sla
    # TDD meets at least as many SLAs as every ablation...
    for name in ("random-free", "round-robin", "always-tuning"):
        assert tdd.fraction_met >= reports[name].sla.fraction_met - 1e-9
    # ...and always-tuning (one shared instance) is strictly worse.
    assert tdd.fraction_met > reports["always-tuning"].sla.fraction_met
    assert reports["always-tuning"].sla.mean_normalized() > tdd.mean_normalized()
