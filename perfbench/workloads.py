"""The benchmark's workloads and the service pass each one times.

Every workload is made from its seed alone: a session library and a
composed multi-tenant workload (the set-up), then one or more service
passes over it.  A pass builds a fresh :class:`ThriftyService`, deploys
the composed workload and, on the replay workloads, replays it.  The
library is driven only through its public API, serially.

The replay workloads admit tenants in composition order until the queries
submitted within the replay horizon reach a fixed budget.  That keeps the
amount of replayed work the same on every seed, so that a seed changes
what is replayed but not how much.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.config import EvaluationConfig, LogGenerationConfig
from repro.core.advisor import AdvisorResult
from repro.core.service import ServiceReport, ThriftyService
from repro.obs import MemorySink, Observer
from repro.units import DAY
from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator

DEFAULT_SEED = 20130625


@dataclass(frozen=True)
class Workload:
    """One benchmark input: how to make it from a seed and how to serve it."""

    name: str
    log_days: int
    holiday_weekdays: int
    sessions_per_size: int
    #: Tenants composed; the replay workloads admit a prefix of them.
    tenants: int
    #: Replay horizon in days; ``None`` deploys without replaying.
    replay_days: Optional[float] = None
    #: Queries submitted within the horizon at which tenant admission stops.
    query_budget: Optional[int] = None
    observed: bool = False
    chaos_mtbf_s: Optional[float] = None

    def config(self, seed: int) -> EvaluationConfig:
        """The paper's default parameters (theta 0.8, R 3, P 99.9 %, 1 s epochs)."""
        logs = LogGenerationConfig(
            horizon_days=self.log_days, holiday_weekdays=self.holiday_weekdays
        )
        return EvaluationConfig(num_tenants=self.tenants, seed=seed, logs=logs)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("plan", log_days=14, holiday_weekdays=1, sessions_per_size=16, tenants=800),
        Workload(
            "replay", log_days=3, holiday_weekdays=0, sessions_per_size=4, tenants=300,
            replay_days=2.0, query_budget=136_000,
        ),
        Workload(
            "replay-obs-chaos", log_days=3, holiday_weekdays=0, sessions_per_size=4,
            tenants=300, replay_days=1.0, query_budget=29_500, observed=True,
            chaos_mtbf_s=7 * DAY,
        ),
    )
}


def _budget_prefix(composed: ComposedWorkload, until: float, budget: int) -> list[int]:
    """Tenant ids, in composition order, until ``budget`` queries fall before ``until``."""
    submit_times: dict[tuple[int, int], list[float]] = {}
    admitted: list[int] = []
    queries = 0
    for tenant_id in composed.tenant_ids:
        for pick in composed.picks_of(tenant_id):
            key = (pick.node_size, pick.session_index)
            times = submit_times.get(key)
            if times is None:
                session = composed.library.session(*key)
                times = submit_times[key] = [r.submit_time_s for r in session.records]
            queries += bisect.bisect_left(times, until - pick.shift_s)
        admitted.append(tenant_id)
        if queries >= budget:
            return admitted
    raise RuntimeError(
        f"{len(admitted)} tenants submit only {queries} queries before {until} s; "
        f"the budget is {budget}"
    )


def set_up(workload: Workload, config: EvaluationConfig) -> ComposedWorkload:
    """Generate the session library and compose the tenants' logs."""
    library = SessionLogGenerator(config, sessions_per_size=workload.sessions_per_size).generate()
    composed = MultiTenantLogComposer(config, library).compose()
    if workload.query_budget is None:
        return composed
    until = workload.replay_days * DAY
    return composed.subset(_budget_prefix(composed, until, workload.query_budget))


def fingerprint(composed: ComposedWorkload) -> str:
    """A digest of the composed tenants and their session picks."""
    text = repr([(t, composed.picks_of(t.tenant_id)) for t in composed.tenants])
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Pass:
    """What one service pass measured, and a digest and counts of its outputs."""

    plan_s: float
    service_s: float
    digest: str
    counts: dict[str, int]

    @property
    def replay_s(self) -> float:
        return self.service_s - self.plan_s


def outputs(advice: AdvisorResult, report: Optional[ServiceReport]) -> dict[str, Any]:
    """The canonical outputs the digest covers."""
    plan = advice.plan
    doc: dict[str, Any] = {
        "grouping": [sorted(g.placement.tenant_ids) for g in plan],
        "excluded": sorted(t.tenant_id for t in advice.excluded),
        "nodes_used": plan.total_nodes_used,
        "nodes_requested": plan.total_nodes_requested,
    }
    if report is not None:
        doc["summary"] = report.summary()
        doc["scaling_actions"] = [dataclasses.asdict(a) for a in report.scaling_actions()]
        doc["faults"] = [
            dataclasses.asdict(f)
            for _, r in sorted(report.group_reports.items())
            for f in r.fault_records
        ]
    return doc


def counts(
    service: ThriftyService, advice: AdvisorResult, report: Optional[ServiceReport]
) -> dict[str, int]:
    """Exact counts the program reports; a traced pass must repeat them."""
    plan = advice.plan
    found: dict[str, int] = {
        "groups": len(plan),
        "nodes_used": plan.total_nodes_used,
        "nodes_requested": plan.total_nodes_requested,
    }
    if report is None:
        return found
    reports = report.group_reports.values()
    health = service.health
    faults = [f for r in reports for f in r.fault_records]
    found.update(
        events=service.simulator.events_fired,
        monitor_ticks=sum(len(r.rt_ttp_samples) for r in reports),
        submitted=sum(r.queries_submitted for r in reports),
        completed=sum(r.queries_completed for r in reports),
        met=sum(1 for r in report.sla.records if r.met),
        failed=sum(r.queries_failed for r in reports),
        retried=sum(r.queries_retried for r in reports),
        failovers=sum(r.failovers for r in reports),
        deadline_failed=sum(1 for f in faults if f.reason == "deadline-exceeded"),
        failed_without_attempt=sum(1 for f in faults if f.attempts == 0),
        scaling_actions=len(report.scaling_actions()),
        failures_handled=health.node_failures_handled,
        replacements_started=health.replacements_started,
        replacements_completed=health.replacements_completed,
    )
    return found


def run_pass(
    workload: Workload,
    config: EvaluationConfig,
    composed: ComposedWorkload,
    on_service: Optional[Callable[[ThriftyService], None]] = None,
) -> Pass:
    """Deploy the composed workload on a fresh service and replay it."""
    observer = Observer(MemorySink()) if workload.observed else None
    service = ThriftyService(config, observer=observer)
    if on_service is not None:
        on_service(service)
    started = time.perf_counter()
    advice = service.deploy(composed)
    planned = time.perf_counter()
    report = None
    if workload.replay_days is not None:
        horizon = workload.replay_days * DAY
        if workload.chaos_mtbf_s is not None:
            service.arm_chaos(workload.chaos_mtbf_s, horizon)
        report = service.replay(until=horizon)
    finished = time.perf_counter()
    text = json.dumps(outputs(advice, report), sort_keys=True)
    return Pass(
        plan_s=planned - started,
        service_s=finished - started,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        counts=counts(service, advice, report),
    )
