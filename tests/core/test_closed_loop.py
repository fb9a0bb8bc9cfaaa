"""Closed-loop replay tests (the §7.1 user semantics honoured at replay)."""

import pytest

from repro.core.deployment import GroupDeployment
from repro.core.master import DeployedGroup
from repro.core.runtime import GroupRuntime
from repro.core.tdd import design_for_group
from repro.mppdb.provisioning import Provisioner
from repro.simulation.engine import Simulator
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.queries import template_by_name
from repro.workload.tenant import TenantSpec

_NODES = 2


def _deploy(num_tenants=4):
    sim = Simulator()
    provisioner = Provisioner(sim)
    tenants = tuple(
        TenantSpec(tenant_id=i, nodes_requested=_NODES, data_gb=_NODES * 100.0)
        for i in range(1, num_tenants + 1)
    )
    design, placement = design_for_group("tg0", tenants, num_instances=3)
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
    return sim, provisioner, deployed, tenants


def _baseline():
    return template_by_name("tpch.q1").dedicated_latency_s(_NODES * 100.0, _NODES)


def _run(logs_by_tenant, tenants, sim, provisioner, deployed, closed_loop, until=100_000.0):
    runtime = GroupRuntime(
        deployed,
        logs_by_tenant,
        sim,
        provisioner,
        sla_fraction=0.999,
        closed_loop=closed_loop,
    )
    return runtime.run(until=until), runtime


class TestSequentialChain:
    def test_unperturbed_chain_matches_open_loop(self):
        # Alone on its MPPDB, the closed-loop chain reproduces the exact
        # baseline timeline: every query meets its SLA at normalized 1.0.
        sim, provisioner, deployed, tenants = _deploy()
        q = _baseline()
        records = []
        t = 100.0
        for __ in range(4):
            records.append(QueryRecord(submit_time_s=t, latency_s=q, template="tpch.q1"))
            t += q + 30.0  # 30 s think gap
        logs = {
            spec.tenant_id: TenantLog(spec, records if spec.tenant_id == 1 else [])
            for spec in tenants
        }
        report, __ = _run(logs, tenants, sim, provisioner, deployed, closed_loop=True)
        assert report.queries_completed == 4
        assert report.sla.fraction_met == 1.0
        # Submissions happened exactly at the baseline times.
        submits = sorted(r.submit_time_s for r in report.sla.records)
        assert submits == [r.submit_time_s for r in records]

    def test_slowdown_pushes_later_submissions_back(self):
        # Tenant 1's first query is slowed by overflow sharing; in closed
        # loop its *second* query starts later than the baseline log says,
        # preserving the think gap.
        sim, provisioner, deployed, tenants = _deploy(num_tenants=4)
        q = _baseline()
        think = 50.0
        chain = [
            QueryRecord(submit_time_s=100.0, latency_s=q, template="tpch.q1"),
            QueryRecord(submit_time_s=100.0 + q + think, latency_s=q, template="tpch.q1"),
        ]
        # Three other tenants occupy all three MPPDBs at t=99 with
        # five-query batches (baseline latency: 5 equal works under PS
        # finish together at 5x the single latency), forcing tenant 1's
        # first query to share MPPDB_0.
        def blockers():
            return [
                QueryRecord(
                    submit_time_s=99.0, latency_s=5 * q, template="tpch.q1", batch_id=1
                )
                for __ in range(5)
            ]

        logs = {}
        for spec in tenants:
            if spec.tenant_id == 1:
                logs[spec.tenant_id] = TenantLog(spec, chain)
            else:
                logs[spec.tenant_id] = TenantLog(spec, blockers())
        report, runtime = _run(logs, tenants, sim, provisioner, deployed, closed_loop=True)
        first, second = sorted(
            report.sla.for_tenant(1).records, key=lambda r: r.submit_time_s
        )
        assert first.normalized > 1.0  # shared MPPDB_0
        # The chain's second query preserved the think gap after the
        # *actual* (delayed) completion: it could only have met its SLA
        # (run alone) because the chain deferred it past the congestion.
        assert second.normalized == pytest.approx(1.0)
        # Completed queries: 2 from tenant 1 + 15 blocker queries.
        assert report.queries_completed == 17

    def test_open_loop_does_not_defer(self):
        # The same scenario in open loop submits at logged times even
        # though the first query is still running.
        sim, provisioner, deployed, tenants = _deploy(num_tenants=4)
        q = _baseline()
        chain = [
            QueryRecord(submit_time_s=100.0, latency_s=q, template="tpch.q1"),
            QueryRecord(submit_time_s=100.0 + q / 2, latency_s=q, template="tpch.q1"),
        ]
        logs = {
            spec.tenant_id: TenantLog(spec, chain if spec.tenant_id == 1 else [])
            for spec in tenants
        }
        report, __ = _run(logs, tenants, sim, provisioner, deployed, closed_loop=False)
        # Open loop: both run concurrently on the same instance (tenant
        # affinity) and interfere with each other.
        assert any(r.normalized > 1.0 for r in report.sla.records)


class TestBatchSemantics:
    def test_batch_submits_together_then_thinks(self):
        sim, provisioner, deployed, tenants = _deploy()
        q = _baseline()
        # Baseline latencies of a concurrent pair under PS: both finish
        # together, so the collected log shows each at work_a + work_b.
        q6 = template_by_name("tpch.q6").dedicated_latency_s(_NODES * 100.0, _NODES)
        batch = [
            QueryRecord(
                submit_time_s=100.0, latency_s=q + q6, template="tpch.q1", batch_id=7
            ),
            QueryRecord(
                submit_time_s=100.0, latency_s=q + q6, template="tpch.q6", batch_id=7
            ),
        ]
        follow_up = QueryRecord(
            # Baseline: the batch finishes at 100 + (q + q6); think 40 s.
            submit_time_s=100.0 + q + q6 + 40.0,
            latency_s=q,
            template="tpch.q1",
        )
        logs = {
            spec.tenant_id: TenantLog(
                spec, batch + [follow_up] if spec.tenant_id == 1 else []
            )
            for spec in tenants
        }
        report, __ = _run(logs, tenants, sim, provisioner, deployed, closed_loop=True)
        assert report.queries_completed == 3
        # The batch ran concurrently (intra-tenant PS on one instance).
        batch_records = [r for r in report.sla.records if r.template in ("tpch.q1", "tpch.q6")]
        assert len(batch_records) == 3
        assert report.sla.fraction_met == 1.0

    def test_record_listed_twice_is_two_queries(self):
        # QueryRecord is frozen and TenantLog does not copy, so a log may
        # list one record object twice: each listing is its own query, and
        # the batch's completion still releases the follow-up.
        sim, provisioner, deployed, tenants = _deploy()
        q = _baseline()
        record = QueryRecord(
            submit_time_s=100.0, latency_s=2 * q, template="tpch.q1", batch_id=7
        )
        batch = [record, record]
        follow_up = QueryRecord(
            submit_time_s=100.0 + 2 * q + 40.0, latency_s=q, template="tpch.q1"
        )
        logs = {
            spec.tenant_id: TenantLog(spec, batch + [follow_up] if spec.tenant_id == 1 else [])
            for spec in tenants
        }
        report, __ = _run(logs, tenants, sim, provisioner, deployed, closed_loop=True)
        assert report.queries_submitted == 3
        assert report.queries_completed == 3

    def test_until_bound_respected(self):
        sim, provisioner, deployed, tenants = _deploy()
        q = _baseline()
        records = [
            QueryRecord(submit_time_s=100.0, latency_s=q, template="tpch.q1"),
            QueryRecord(submit_time_s=10_000.0, latency_s=q, template="tpch.q1"),
        ]
        logs = {
            spec.tenant_id: TenantLog(spec, records if spec.tenant_id == 1 else [])
            for spec in tenants
        }
        report, __ = _run(
            logs, tenants, sim, provisioner, deployed, closed_loop=True, until=5_000.0
        )
        assert report.queries_completed == 1
