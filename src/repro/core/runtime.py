"""Run-time replay: drive composed tenant logs through a deployed group.

This is the piece that turns the static deployment into the live system of
Figure 7.7: each logged query is submitted at its recorded time, the
Algorithm 1 router picks an instance, the instance's fair-share engine
produces the observed latency, the Tenant Activity Monitor tracks the
group's concurrent-active count and RT-TTP, and the scaling policy reacts
when the RT-TTP dips below ``P``.

Two replay disciplines are supported:

* **open-loop** (default) — submissions happen at their logged times even
  when earlier queries run slow; simple and reproducible.
* **closed-loop** (``closed_loop=True``) — the §7.1 user semantics are
  honoured during replay: each user's next event (single query or whole
  batch) waits for the previous one to *complete* plus the original think
  gap, so slowdowns push later submissions back exactly as the paper's
  imitated tenants would experience them.

SLA baselines: a logged query's before-consolidation latency *is* its SLA
(§1.1), so the baseline is the latency recorded during Step 1 log
collection on the tenant's dedicated, exactly-sized MPPDB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from ..errors import DeploymentError, NoHealthyInstanceError
from ..mppdb.execution import QueryExecution
from ..mppdb.instance import MPPDBInstance
from ..mppdb.provisioning import Provisioner
from ..obs.observer import NULL_OBSERVER, Observer
from ..obs.tracing import STATUS_INFLIGHT, Span
from ..simulation.engine import Simulator
from ..simulation.events import ScheduledEvent
from ..units import MINUTE
from ..workload.logs import QueryRecord, TenantLog
from ..workload.queries import template_by_name
from .fault import (
    DEFAULT_RETRY_POLICY,
    FaultRecord,
    REASON_DEADLINE_EXCEEDED,
    REASON_RETRIES_EXHAUSTED,
    RetryPolicy,
)
from .master import DeployedGroup
from .monitor import GroupActivityMonitor
from .routing import QueryRouter, TDDRouter, classify_decision
from .scaling import DisabledScaling, ScalingAction, ScalingPolicy
from .sla import SLARecord, SLAReport

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a layer cycle)
    from ..cluster.health import HealthManager

__all__ = ["GroupRuntime", "RuntimeReport"]


class _ClosedLoopChain:
    """One user's closed-loop event chain.

    An *event* is a single query or one batch (records sharing a
    ``batch_id``), matching §7.1's user behaviour: "The user will not take
    any action until the single query or the query batch is complete",
    then thinks for the gap observed in the baseline log.
    """

    def __init__(self, tenant_id: int, events: list[list[QueryRecord]], until: float) -> None:
        self.tenant_id = tenant_id
        self.events = events
        self.until = until
        self.index = 0
        self.outstanding = 0
        # Baseline think gap before each event (clamped at zero).
        self.gaps: list[float] = []
        previous_finish: Optional[float] = None
        for event in events:
            first_submit = event[0].submit_time_s
            if previous_finish is None:
                self.gaps.append(0.0)
            else:
                self.gaps.append(max(0.0, first_submit - previous_finish))
            previous_finish = max(r.finish_time_s for r in event)

    def current_event(self) -> list[QueryRecord]:
        return self.events[self.index]

    def has_more(self) -> bool:
        return self.index < len(self.events)


class _Query:
    """One logged query from first submission to completion or failure."""

    __slots__ = (
        "tenant_id", "record", "first_submit", "attempts", "instance", "deadline", "chain", "span"
    )

    def __init__(
        self,
        tenant_id: int,
        record: QueryRecord,
        first_submit: float,
        chain: Optional[_ClosedLoopChain],
        span: Optional[Span],
    ) -> None:
        self.tenant_id = tenant_id
        self.record = record
        self.first_submit = first_submit
        self.attempts = 0
        # Name of the instance the latest attempt ran on ("" before the
        # first admission); on a re-attempt, the one that failed it.
        self.instance = ""
        self.deadline: Optional[ScheduledEvent] = None
        self.chain = chain
        self.span = span


@dataclass
class RuntimeReport:
    """Everything observed while replaying one group."""

    group_name: str
    sla: SLAReport
    rt_ttp_samples: list[tuple[float, float]]
    scaling_actions: list[ScalingAction]
    queries_submitted: int
    queries_completed: int
    #: Routes classified ``overflow`` by :func:`~repro.core.routing.classify_decision`:
    #: onto a busy ``MPPDB_0``, or onto the first ready replica while
    #: ``MPPDB_0`` is unavailable.
    overflow_queries: int
    queries_retried: int = 0
    queries_failed: int = 0
    failovers: int = 0
    fault_records: list[FaultRecord] = field(default_factory=list)
    #: Submitted, not yet completed or failed: in flight, parked or in backoff.
    queries_pending: int = 0

    def rt_ttp_min(self) -> float:
        """Lowest RT-TTP sample observed."""
        if not self.rt_ttp_samples:
            return 1.0
        return min(v for _, v in self.rt_ttp_samples)


class GroupRuntime:
    """Replays tenant logs against one deployed tenant group."""

    def __init__(
        self,
        deployed: DeployedGroup,
        logs: Mapping[int, TenantLog],
        simulator: Simulator,
        provisioner: Provisioner,
        sla_fraction: float,
        monitor: Optional[GroupActivityMonitor] = None,
        router: Optional[QueryRouter] = None,
        scaling: Optional[ScalingPolicy] = None,
        monitor_interval_s: float = 10 * MINUTE,
        closed_loop: bool = False,
        observer: Optional[Observer] = None,
        fault: Optional[RetryPolicy] = None,
        health: Optional["HealthManager"] = None,
        fault_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not (0 < sla_fraction <= 1):
            raise DeploymentError("sla_fraction must be in (0, 1]")
        if not (math.isfinite(monitor_interval_s) and monitor_interval_s > 0):
            raise DeploymentError("monitor_interval_s must be finite and positive")
        self._deployed = deployed
        self._logs = dict(logs)
        missing = set(deployed.deployment.placement.tenant_ids) - set(self._logs)
        if missing:
            raise DeploymentError(f"logs missing for tenants {sorted(missing)[:5]}")
        self._sim = simulator
        self._provisioner = provisioner
        self._sla_fraction = sla_fraction
        self._monitor = monitor if monitor is not None else GroupActivityMonitor(
            deployed.group_name,
            deployed.deployment.design.num_instances,
            start_time=simulator.now,
        )
        self._router = router if router is not None else TDDRouter(deployed.instances)
        self._scaling = scaling if scaling is not None else DisabledScaling()
        self._interval = monitor_interval_s
        self._sla_records: list[SLARecord] = []
        self._rt_ttp_samples: list[tuple[float, float]] = []
        self._submitted = 0
        self._completed = 0
        self._overflow = 0
        # Submitted, not yet completed or failed, in first-submission order:
        # in flight (_inflight), parked (_parked) or waiting out a backoff.
        self._live: dict[_Query, None] = {}
        self._inflight: dict[QueryExecution, _Query] = {}
        self._parked: dict[_Query, None] = {}
        self._fault = fault if fault is not None else DEFAULT_RETRY_POLICY
        self._fault_rng = fault_rng
        self._retried = 0
        self._failed_count = 0
        self._failovers = 0
        self._fault_records: list[FaultRecord] = []
        if health is not None:
            health.on_recover(self._on_instance_recovered)
        for spec in deployed.deployment.tenants:
            self._monitor.register_tenant(spec.tenant_id, spec.nodes_requested)
        self._scheduled = False
        self._closed_loop = bool(closed_loop)
        self._observer = observer if observer is not None else NULL_OBSERVER
        if self._observer.enabled:
            self._monitor.observe_with(self._observer)
        self._wired: set[MPPDBInstance] = set()
        for instance in deployed.instances:
            self._wire(instance)

    @property
    def monitor(self) -> GroupActivityMonitor:
        """The group's activity monitor."""
        return self._monitor

    @property
    def router(self) -> QueryRouter:
        """The group's query router."""
        return self._router

    def _wire(self, instance: MPPDBInstance) -> None:
        instance.engine.on_complete(self._on_done)
        instance.engine.on_abort(self._on_abort)
        if self._observer.enabled:
            instance.engine.observe_with(self._observer, instance.name)
        self._wired.add(instance)

    def _on_done(self, execution: QueryExecution) -> None:
        query = self._inflight.pop(execution, None)
        if query is not None:
            finish = execution.finish_time if execution.finish_time is not None else 0.0
            self._complete(query, finish)

    def _complete(self, query: _Query, finish: float) -> None:
        """Settle a completed query's books, SLA record and closed-loop chain."""
        record = query.record
        self._completed += 1
        self._monitor.on_query_finish(query.tenant_id, finish)
        # A retried query's observed latency spans from its *first*
        # submission, so retry backoff honestly counts against the SLA.
        sla_record = SLARecord(
            tenant_id=query.tenant_id,
            group_name=self._deployed.group_name,
            instance_name=query.instance,
            template=record.template,
            submit_time_s=record.submit_time_s,
            baseline_latency_s=record.latency_s,
            observed_latency_s=finish - query.first_submit,
        )
        self._sla_records.append(sla_record)
        self._observe_completion(query, sla_record, finish)
        self._retire(query, finish)

    def _submit(
        self,
        tenant_id: int,
        record: QueryRecord,
        time: float,
        chain: Optional[_ClosedLoopChain] = None,
    ) -> None:
        """First submission: metrics and span once, however many attempts follow."""
        observer = self._observer
        span = None
        if observer.enabled:
            group = self._deployed.group_name
            observer.queries_submitted.labels(group=group).inc(time)
            span = observer.tracer.start_span(
                "query",
                time,
                kind="query",
                group=group,
                tenant=tenant_id,
                template=record.template,
            )
            span.add_event(time, "submit")
        query = _Query(tenant_id, record, time, chain, span)
        self._live[query] = None
        self._attempt(query, time)

    def _attempt(self, query: _Query, time: float) -> None:
        """Route and admit one attempt of ``query``: first, retry or unpark."""
        tenant_id = query.tenant_id
        record = query.record
        spec = self._deployed.deployment.tenant(tenant_id)
        observer = self._observer
        group = self._deployed.group_name
        try:
            instance = self._router.route(tenant_id)
        except NoHealthyInstanceError:
            # Graceful degradation: every hosting replica is degraded, down
            # or loading — queue the query until an instance recovers.
            self._park(query, time)
            return
        if query.deadline is not None:
            self._sim.cancel(query.deadline)
            query.deadline = None
        query.attempts += 1
        # A re-attempt always follows an abort, so ``query.instance`` names
        # the instance that failed it.
        failed_from = query.instance
        query.instance = instance.name
        if instance not in self._wired:
            self._wire(instance)
        span = query.span
        if failed_from and instance.name != failed_from:
            self._failovers += 1
            if observer.enabled:
                observer.failovers.labels(group=group).inc(time)
            if span is not None:
                span.add_event(
                    time, "failover", failed=failed_from, survivor=instance.name
                )
        # Classify against the pre-submit state the router saw.
        outcome = classify_decision(self._router, tenant_id, instance)
        if outcome == "overflow":
            self._overflow += 1
        if observer.enabled:
            observer.routing_decisions.labels(group=group, outcome=outcome).inc(time)
            if outcome == "overflow":
                observer.queries_overflow.labels(group=group).inc(time)
            if span is not None:
                span.add_event(
                    time, "route", instance=instance.name, outcome=outcome, attempt=query.attempts
                )
        template = template_by_name(record.template)
        work = (
            template.dedicated_latency_s(spec.data_gb, instance.parallelism)
            / instance.speed_factor
        )
        self._monitor.on_query_start(tenant_id, time)
        execution = instance.submit_query(tenant_id, work, label=record.template)
        if span is not None:
            span.add_event(
                time,
                "admit",
                instance=instance.name,
                work_s=round(work, 6),
                concurrency=instance.engine.concurrency,
            )
            span.add_event(time, "execute")
        if execution.finished:
            # Degenerate zero-work query: the completion callback already
            # ran before the execution was registered in _inflight.
            self._complete(query, time)
        else:
            self._inflight[execution] = query

    def _schedule_closed_loop(self, tenant_id: int, log: TenantLog, until: float) -> int:
        """Build per-user event chains and schedule each chain's first event."""
        per_user: dict[int, list[QueryRecord]] = {}
        for record in log.records:
            per_user.setdefault(record.user, []).append(record)
        count = 0
        for user, records in sorted(per_user.items()):
            events: list[list[QueryRecord]] = []
            for record in records:
                same_batch = (
                    events
                    and record.batch_id >= 0
                    and events[-1][0].batch_id == record.batch_id
                )
                if same_batch:
                    events[-1].append(record)
                else:
                    events.append([record])
            chain = _ClosedLoopChain(tenant_id, events, until)
            count += sum(
                len(e) for e in events if e[0].submit_time_s < until
            )
            first_time = events[0][0].submit_time_s
            if first_time < until:
                self._sim.schedule(
                    first_time,
                    lambda t, _chain=chain: self._submit_event(_chain, t),
                    label="closed-loop-event",
                )
        return count

    def _submit_event(self, chain: _ClosedLoopChain, time: float) -> None:
        """Submit every record of the chain's current event."""
        event = chain.current_event()
        base = event[0].submit_time_s
        chain.outstanding = len(event)
        for record in event:
            offset = record.submit_time_s - base
            if offset <= 0:
                self._submit(chain.tenant_id, record, time, chain)
            else:
                self._sim.schedule(
                    time + offset,
                    lambda t, _r=record, _c=chain: self._submit(_c.tenant_id, _r, t, _c),
                    label="closed-loop-batch",
                )

    def _retire(self, query: _Query, time: float) -> None:
        """Drop a completed or failed query; advance its closed-loop chain."""
        del self._live[query]
        chain = query.chain
        if chain is None:
            return
        chain.outstanding -= 1
        if chain.outstanding > 0:
            return
        chain.index += 1
        if not chain.has_more():
            return
        next_time = time + chain.gaps[chain.index]
        if next_time < chain.until:
            self._sim.schedule(
                next_time,
                lambda t, _chain=chain: self._submit_event(_chain, t),
                label="closed-loop-event",
            )

    def _on_abort(self, execution: QueryExecution) -> None:
        """An instance failure killed this in-flight query; retry or fail.

        The monitor sees a finish (the query is no longer running), then
        the query is either re-attempted with capped exponential backoff in
        sim-time or — after ``max_attempts`` submissions — surfaced as a
        typed :class:`~repro.core.fault.FaultRecord`.  Retried submissions
        do NOT increment ``queries_submitted``; the completion that
        eventually lands settles against the first submission's clock.
        """
        query = self._inflight.pop(execution, None)
        if query is None:
            return
        now = self._sim.now
        attempt = query.attempts
        self._monitor.on_query_finish(query.tenant_id, now)
        span = query.span
        if span is not None:
            span.add_event(
                now,
                "abort",
                instance=query.instance,
                attempt=attempt,
                remaining_s=round(execution.remaining_work_s, 6),
            )
        if attempt >= self._fault.max_attempts:
            self._fail(query, now, REASON_RETRIES_EXHAUSTED)
            return
        delay = self._fault.backoff_s(attempt, self._fault_rng)
        self._retried += 1
        if self._observer.enabled:
            self._observer.query_retries.labels(group=self._deployed.group_name).inc(now)
        if span is not None:
            span.add_event(now, "retry", delay_s=round(delay, 6), attempt=attempt + 1)
        self._sim.schedule_after(
            delay, lambda t, _q=query: self._attempt(_q, t), label="query-retry"
        )

    def _park(self, query: _Query, time: float) -> None:
        """Queue a query for which no healthy replica exists right now.

        Parked queries are resubmitted when the health manager reports an
        instance recovery; each park episode carries a deadline after which
        the query fails with ``deadline-exceeded`` (graceful degradation
        for ``R = 1`` groups: no crash, a typed failure).
        """
        self._parked[query] = None
        if query.span is not None:
            query.span.add_event(time, "park")
        if query.deadline is None:
            query.deadline = self._sim.schedule(
                time + self._fault.queue_deadline_s,
                lambda t, _q=query: self._park_expired(_q, t),
                label="fault-deadline",
            )

    def _park_expired(self, query: _Query, time: float) -> None:
        """A parked query's deadline hit before any replica recovered."""
        query.deadline = None
        if query in self._parked:
            del self._parked[query]
            self._fail(query, time, REASON_DEADLINE_EXCEEDED)

    def _on_instance_recovered(self, instance: MPPDBInstance, time: float) -> None:
        """Health-manager recovery: drain the park queue through the router."""
        pending, self._parked = self._parked, {}
        for query in pending:
            self._attempt(query, time)

    def _fail(self, query: _Query, time: float, reason: str) -> None:
        """Surface a query that fault handling could not save."""
        tenant_id = query.tenant_id
        attempts = query.attempts
        self._fault_records.append(
            FaultRecord(
                tenant_id=tenant_id,
                group_name=self._deployed.group_name,
                template=query.record.template,
                submit_time_s=query.record.submit_time_s,
                failed_time_s=time,
                reason=reason,
                attempts=attempts,
            )
        )
        self._failed_count += 1
        observer = self._observer
        if observer.enabled:
            group = self._deployed.group_name
            observer.queries_failed.labels(group=group).inc(time)
            observer.sla_violations.labels(group=group).inc(time)
        span = query.span
        if span is not None:
            span.add_event(time, "failed", reason=reason, attempts=attempts)
            span.end(time, status="failed")
        self._retire(query, time)

    def _observe_completion(self, query: _Query, sla_record: SLARecord, time: float) -> None:
        """Emit terminal-state metrics and close the query's span."""
        observer = self._observer
        if not observer.enabled:
            return
        group = self._deployed.group_name
        observer.queries_completed.labels(group=group).inc(time)
        observer.query_latency.labels(group=group).observe(time, sla_record.observed_latency_s)
        observer.normalized_latency.labels(group=group).observe(time, sla_record.normalized)
        status = "complete" if sla_record.met else "violate"
        if status == "violate":
            observer.sla_violations.labels(group=group).inc(time)
        span = query.span
        if span is not None:
            span.set_attr("observed_latency_s", sla_record.observed_latency_s)
            span.set_attr("normalized", round(sla_record.normalized, 9))
            span.add_event(time, status)
            span.end(time, status=status)

    def finalize_observation(self, time: float) -> None:
        """Force-close query spans still open at the replay horizon.

        Queries in flight when the horizon hits never reach a terminal
        completion callback, so their spans are ended with status
        ``"inflight"`` — every exported span chain is complete either way.
        Idempotent; called by :meth:`run` and by the service after a
        bounded ``Simulator.run``.
        """
        for query in self._live:
            if query.span is not None:
                query.span.add_event(time, STATUS_INFLIGHT)
                query.span.end(time, status=STATUS_INFLIGHT)
                query.span = None

    def _periodic_check(self, time: float) -> None:
        rt_ttp = self._monitor.rt_ttp(time, self._scaling.window_s)
        self._rt_ttp_samples.append((time, rt_ttp))
        if self._observer.enabled:
            self._observer.rt_ttp.labels(group=self._deployed.group_name).set(time, rt_ttp)
        self._scaling.maybe_scale(
            time,
            self._deployed,
            self._monitor,
            self._router,
            self._provisioner,
            self._sla_fraction,
            observer=self._observer,
        )

    def schedule(self, until: float) -> int:
        """Schedule all log submissions and periodic checks up to ``until``.

        Returns the number of queries scheduled (for closed-loop mode, the
        number the baseline timeline would submit — slow runs may defer
        some past ``until``).  Call once, then run the simulator (directly
        or via :meth:`run`).
        """
        if self._scheduled:
            raise DeploymentError("schedule() called twice")
        self._scheduled = True
        count = 0
        for tenant_id, log in sorted(self._logs.items()):
            if tenant_id not in self._deployed.deployment.placement.tenant_ids:
                continue
            if self._closed_loop:
                count += self._schedule_closed_loop(tenant_id, log, until)
                continue
            for record in log.records:
                if record.submit_time_s >= until:
                    continue
                self._sim.schedule(
                    record.submit_time_s,
                    lambda t, _tid=tenant_id, _r=record: self._submit(_tid, _r, t),
                    label="query-submit",
                )
                count += 1
        self._submitted = count

        def _tick(time: float) -> None:
            self._periodic_check(time)
            next_time = time + self._interval
            if next_time <= until:
                self._sim.schedule(next_time, _tick, label="monitor-tick")

        first = self._sim.now + self._interval
        if first <= until:
            self._sim.schedule(first, _tick, label="monitor-tick")
        return count

    def run(self, until: float) -> RuntimeReport:
        """Schedule (if needed) and run the replay to ``until``."""
        if not self._scheduled:
            self.schedule(until)
        self._sim.run(until=until)
        self.finalize_observation(self._sim.now)
        return self.report()

    def report(self) -> RuntimeReport:
        """Snapshot of everything observed so far."""
        return RuntimeReport(
            group_name=self._deployed.group_name,
            sla=SLAReport(self._sla_records),
            rt_ttp_samples=list(self._rt_ttp_samples),
            scaling_actions=list(self._scaling.actions),
            queries_submitted=self._submitted,
            queries_completed=self._completed,
            overflow_queries=self._overflow,
            queries_retried=self._retried,
            queries_failed=self._failed_count,
            failovers=self._failovers,
            fault_records=list(self._fault_records),
            queries_pending=len(self._live),
        )
