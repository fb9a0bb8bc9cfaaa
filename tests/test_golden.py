"""Golden output digests: a refactor of the plan or replay path must keep these.

Each test runs one scenario at tiny scale and compares a sha256 over its
canonical outputs with a pinned value: the grouping and node totals, and
for the replays ``ServiceReport.summary()``, the scaling actions, the fault
records, every RT-TTP sample, every SLA record and the number of events
fired.  The replays run 30 h, so the 24 h RT-TTP window slides for the
last six hours and an off-by-one in it changes the samples.

A change that alters outputs on purpose updates the pin and says why,
like ``perfbench/expected.json``.  Floats are hashed through ``json``,
which writes their shortest round-tripping repr: there is no tolerance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import pytest

from repro.config import EvaluationConfig, LogGenerationConfig
from repro.core.advisor import AdvisorResult
from repro.core.runtime import GroupRuntime, RuntimeReport
from repro.core.service import ServiceReport, ThriftyService
from repro.units import DAY
from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator

HORIZON_S = 1.25 * DAY
CHAOS_MTBF_S = 1.0 * DAY
CHAOS_SEED = 3

GOLDEN = {
    "plan": "76544692bdbaca32087e8d34741b45cd11fdbc0c84ebc674e0c18ac7857c6f88",
    "open-loop": "044b4af6a6a1ba48137c53fe8aee73b5fe2bdab6e536da6f7acd0a6e19e75b8e",
    "closed-loop": "65d86e4017213e93456efd19b8c8842e17c6643f3effa2e75426dbb3a2c6547b",
    "chaos": "b456ab09ebda468cd5047b33a1af19d7beaa287376f65c8e8dd864c96faef90e",
}


@pytest.fixture(scope="module")
def setup() -> tuple[EvaluationConfig, ComposedWorkload]:
    config = EvaluationConfig(
        num_tenants=12,
        logs=LogGenerationConfig(horizon_days=3, holiday_weekdays=0),
        node_sizes=(2, 4, 8),
        seed=11,
    )
    library = SessionLogGenerator(config, sessions_per_size=2).generate()
    return config, MultiTenantLogComposer(config, library).compose()


def _plan_doc(advice: AdvisorResult) -> dict[str, Any]:
    plan = advice.plan
    return {
        "grouping": [sorted(g.placement.tenant_ids) for g in plan],
        "excluded": sorted(t.tenant_id for t in advice.excluded),
        "nodes_used": plan.total_nodes_used,
        "nodes_requested": plan.total_nodes_requested,
    }


def _replay_doc(advice: AdvisorResult, report: ServiceReport, events: int) -> dict[str, Any]:
    def group(r: RuntimeReport) -> dict[str, Any]:
        return {
            "rt_ttp_samples": r.rt_ttp_samples,
            "sla_records": [dataclasses.astuple(s) for s in r.sla.records],
            "scaling_actions": [dataclasses.asdict(a) for a in r.scaling_actions],
            "fault_records": [dataclasses.asdict(f) for f in r.fault_records],
            "pending": r.queries_pending,
        }

    return {
        **_plan_doc(advice),
        "summary": report.summary(),
        "groups": {name: group(r) for name, r in sorted(report.group_reports.items())},
        "events": events,
    }


def _digest(doc: dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _closed_loop_replay(service: ThriftyService, workload: ComposedWorkload) -> ServiceReport:
    """``ThriftyService.replay`` with every group's runtime in closed-loop mode."""
    runtimes = {}
    for name, group in sorted(service.master.deployed_groups().items()):
        logs = {t: workload.tenant_log(t) for t in group.deployment.placement.tenant_ids}
        runtime = GroupRuntime(
            group,
            logs,
            service.simulator,
            service.provisioner,
            service.config.sla_fraction,
            monitor=service.monitor.group(name),
            closed_loop=True,
        )
        runtime.schedule(HORIZON_S)
        runtimes[name] = runtime
    service.simulator.run(until=HORIZON_S)
    plan = service.advice.plan
    return ServiceReport(
        group_reports={name: r.report() for name, r in runtimes.items()},
        nodes_used=plan.total_nodes_used,
        nodes_requested=plan.total_nodes_requested,
    )


def _run(scenario: str, config: EvaluationConfig, workload: ComposedWorkload) -> dict[str, Any]:
    service = ThriftyService(config)
    advice = service.deploy(workload)
    if scenario == "plan":
        return _plan_doc(advice)
    if scenario == "closed-loop":
        report = _closed_loop_replay(service, workload)
    else:
        if scenario == "chaos":
            service.arm_chaos(CHAOS_MTBF_S, HORIZON_S, seed=CHAOS_SEED)
        report = service.replay(until=HORIZON_S)
    return _replay_doc(advice, report, service.simulator.events_fired)


@pytest.fixture(scope="module")
def docs(setup) -> dict[str, dict[str, Any]]:
    config, workload = setup
    return {scenario: _run(scenario, config, workload) for scenario in GOLDEN}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_golden_digest(docs, scenario):
    assert _digest(docs[scenario]) == GOLDEN[scenario]


def test_scenarios_exercise_what_they_pin(docs):
    """The pins cover scaling, a sliding RT-TTP window and typed faults."""
    open_loop, chaos = docs["open-loop"], docs["chaos"]
    assert open_loop["summary"]["scaling_actions"] >= 1
    samples = [v for g in open_loop["groups"].values() for _, v in g["rt_ttp_samples"]]
    assert min(samples) < 1.0
    assert max(t for g in open_loop["groups"].values() for t, _ in g["rt_ttp_samples"]) > DAY
    assert chaos["summary"]["queries_failed"] >= 1
