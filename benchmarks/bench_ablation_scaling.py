"""Ablation — elastic scaling policies (Chapter 5.1).

The same over-active scenario handled three ways:

* ``lightweight`` — the paper's policy: new MPPDB for the deviating
  tenant(s) only, loading a fraction of the data;
* ``whole-group`` — the pessimistic A+1 approach: a full replica of the
  group (the paper rejects it because loading everything takes ~14.5 h for
  a 10-node/1 TB group, exhausting the monthly SLA grace period);
* ``proactive`` — the trend-extrapolating variant the paper weighs and
  rejects (prediction error and spike-susceptibility);
* ``disabled`` — no reaction.

Reported: what each policy loaded, how long until ready, and the SLA
violations accumulated after the lightweight instance would have been
ready.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.sweeps import build_workload
from repro.core.advisor import DeploymentAdvisor
from repro.core.master import DeploymentMaster
from repro.core.runtime import GroupRuntime
from repro.core.scaling import (
    DisabledScaling,
    LightweightScaling,
    ProactiveScaling,
    WholeGroupScaling,
)
from repro.mppdb.provisioning import Provisioner
from repro.simulation.engine import Simulator
from repro.units import DAY, HOUR, MINUTE, format_duration
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.queries import template_by_name

_TAKEOVER_START = 6 * HOUR
_HORIZON = 3 * DAY
_TEMPLATE = "tpcds.q72"


def _over_active_log(workload, tenant_id):
    spec = workload.tenant(tenant_id)
    template = template_by_name(_TEMPLATE)
    latency = template.dedicated_latency_s(spec.data_gb, spec.nodes_requested)
    original = workload.tenant_log(tenant_id)
    records = [r for r in original.records if r.submit_time_s < _TAKEOVER_START]
    t = _TAKEOVER_START
    while t < _HORIZON:
        records.append(QueryRecord(submit_time_s=t, latency_s=latency, template=_TEMPLATE))
        t += latency * 1.05 + 0.5
    return TenantLog(spec, records)


def _replay(workload, group, policy_name):
    sim = Simulator()
    provisioner = Provisioner(sim)
    master = DeploymentMaster(provisioner)
    deployed = master.deploy_group(group, instant=True)
    over_tenant = group.placement.tenant_ids[0]
    logs = {
        tenant_id: (
            _over_active_log(workload, tenant_id)
            if tenant_id == over_tenant
            else workload.tenant_log(tenant_id)
        )
        for tenant_id in group.placement.tenant_ids
    }
    d = workload.num_epochs(10.0)
    history = {
        tenant_id: len(workload.activity_epochs(tenant_id, 10.0)) / d
        for tenant_id in group.placement.tenant_ids
    }
    policies = {
        "lightweight": lambda: LightweightScaling(
            identification_epoch_s=10.0, historical_fraction=history
        ),
        "proactive": lambda: ProactiveScaling(
            identification_epoch_s=10.0, historical_fraction=history
        ),
        "whole-group": WholeGroupScaling,
        "disabled": DisabledScaling,
    }
    runtime = GroupRuntime(
        deployed,
        logs,
        sim,
        provisioner,
        sla_fraction=0.999,
        scaling=policies[policy_name](),
        monitor_interval_s=5 * MINUTE,
    )
    return runtime.run(until=_HORIZON)


def test_ablation_scaling_policy(scale):
    config = scale.config()
    workload = build_workload(config, scale.sessions_per_size)
    advice = DeploymentAdvisor(config).plan_from_workload(workload)
    group = sorted(
        advice.plan.groups, key=lambda g: (g.design.parallelism, abs(len(g.tenants) - 14))
    )[0]

    def experiment():
        return {
            name: _replay(workload, group, name)
            for name in ("lightweight", "proactive", "whole-group", "disabled")
        }

    reports = experiment()
    rows = []
    for name, report in reports.items():
        action = report.scaling_actions[0] if report.scaling_actions else None
        rows.append(
            [
                name,
                round(action.loaded_gb) if action else 0,
                format_duration(action.expected_ready_time - action.time) if action else "-",
                round(report.sla.fraction_met, 4),
                len(report.sla.violations()),
            ]
        )
    print()
    print(
        format_table(
            ["policy", "loaded_gb", "time_to_ready", "sla_met", "violations"],
            rows,
            title=f"Scaling policy ablation on {group.group_name} ({len(group.tenants)} tenants)",
        )
    )
    light = reports["lightweight"]
    proactive = reports["proactive"]
    whole = reports["whole-group"]
    disabled = reports["disabled"]
    assert light.scaling_actions and whole.scaling_actions
    assert not disabled.scaling_actions
    # The proactive policy reacts no later than the reactive one (its
    # trigger is a superset) — the paper's caveat is the false positives,
    # visible when it fires before the takeover even ramps up.
    assert proactive.scaling_actions
    assert proactive.scaling_actions[0].time <= light.scaling_actions[0].time + 1e-6
    light_action = light.scaling_actions[0]
    whole_action = whole.scaling_actions[0]
    # Lightweight loads a fraction of the data and is ready sooner.
    assert light_action.loaded_gb < whole_action.loaded_gb
    light_lead = light_action.expected_ready_time - light_action.time
    whole_lead = whole_action.expected_ready_time - whole_action.time
    assert light_lead < whole_lead
    # Any scaling beats none on violations.
    assert len(light.sla.violations()) < len(disabled.sla.violations())
