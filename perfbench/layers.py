"""Per-layer timings, taken by wrapping each layer's public functions.

:class:`LayerTrace` replaces public functions and methods of the library
with timing wrappers while it is active, and puts the originals back when
it exits.  A wrapped call is a span.  Spans nest: a span's self time is
its duration minus the spans it contains, and time that no span covers
is reported as ``unattributed_s``.  Nothing under ``src/`` changes.

The wrappers only read results; a traced pass must produce the same
outputs and the same counts as an untraced one, which ``run.py`` checks.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Callable, Optional

import repro.core.advisor as advisor_module
import repro.packing.two_step as two_step_module
from repro.core.master import DeploymentMaster
from repro.core.monitor import GroupActivityMonitor
from repro.core.routing import QueryRouter
from repro.core.runtime import GroupRuntime
from repro.core.scaling import ScalingPolicy
from repro.mppdb.execution import ExecutionEngine
from repro.obs.metrics import (
    BoundCounter,
    BoundGauge,
    BoundHistogram,
    Counter,
    Gauge,
    Histogram,
)
from repro.obs.sink import MemorySink
from repro.obs.tracing import Span, Tracer
from repro.packing.livbp import GroupingSolution, LIVBPwFCProblem
from repro.simulation.engine import Simulator
from repro.workload.activity import ActivityMatrix
from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator

_perf = time.perf_counter

#: Public calls of ``repro.obs``; their summed self time is ``obs.self_s``.
_OBS_METHODS: tuple[tuple[type, str], ...] = (
    (BoundCounter, "inc"),
    (BoundGauge, "set"),
    (BoundHistogram, "observe"),
    (Counter, "labels"),
    (Counter, "inc"),
    (Counter, "inc_key"),
    (Gauge, "labels"),
    (Gauge, "set"),
    (Gauge, "set_key"),
    (Histogram, "labels"),
    (Histogram, "observe"),
    (Histogram, "observe_key"),
    (Tracer, "start_span"),
    (Span, "add_event"),
    (Span, "set_attr"),
    (Span, "end"),
    (MemorySink, "on_metric"),
    (MemorySink, "on_span"),
    (MemorySink, "on_event"),
)


class LayerTrace:
    """Spans and counts around the library's public layer boundaries."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, child seconds]``.
        self._stack: list[list[Any]] = []
        #: Per span name: ``[calls, total seconds, self seconds]``.
        self.spans: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.rt_ttp_us: list[float] = []
        #: ``[_, seconds]`` covered by spans that have no parent.
        self._covered: list[Any] = [None, 0.0]
        self.simulator: Optional[Simulator] = None
        self._restore: list[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[Callable[[Any, float], None]] = None,
    ) -> Callable[..., Any]:
        stack = self._stack
        push, pop = stack.append, stack.pop
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        covered = self._covered

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            push(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                pop()
                (stack[-1] if stack else covered)[1] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if after is not None:
                after(result, elapsed)
            return result

        return wrapper

    def _patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[Any, float], None]] = None,
    ) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self._wrap(raw.__func__, name, after))
        else:
            patched = self._wrap(raw, name, after)
        setattr(owner, attr, patched)
        self._restore.append(lambda: setattr(owner, attr, raw))

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        count = self._count

        def sessions(library: Any, _s: float) -> None:
            count("workload.sessions", sum(
                len(library.sessions_for(size)) for size in library.node_sizes
            ))

        def records(composed: Any, _s: float) -> None:
            count("workload.records", sum(
                len(composed.library.session(p.node_size, p.session_index).records)
                for t in composed.tenant_ids
                for p in composed.picks_of(t)
            ))

        def materialized(log: Any, _s: float) -> None:
            count("workload.records_materialized", len(log))

        def active_epochs(matrix: Any, _s: float) -> None:
            count("workload.active_epochs", sum(i.active_epoch_count for i in matrix.items))

        def grouped(solution: Any, _s: float) -> None:
            count("packing.groups", len(solution.groups))

        def initial(by_size: Any, _s: float) -> None:
            count("packing.initial_groups", len(by_size))

        def scheduled(queries: Any, _s: float) -> None:
            count("runtime.queries_scheduled", queries)

        def aborted(executions: Any, _s: float) -> None:
            count("engine.aborted_queries", len(executions))

        def scaled(action: Any, _s: float) -> None:
            if action is not None:
                count("scaling.actions")

        def rt_ttp(_value: Any, seconds: float) -> None:
            self.rt_ttp_us.append(seconds * 1e6)
            # A monitor tick calls rt_ttp straight from the event; a
            # scaling check calls it from inside maybe_scale.
            parent = self._stack[-1][0] if self._stack else None
            if parent == "simulation.step" and self.simulator is not None:
                self.counts["simulation.pending_peak"] = max(
                    self.counts.get("simulation.pending_peak", 0), self.simulator.pending
                )
                count("monitor.ticks")

        grouping = advisor_module.GROUPING_ALGORITHMS
        two_step = grouping["two-step"]
        grouping["two-step"] = self._wrap(two_step, "packing.group", grouped)
        self._restore.append(lambda: grouping.__setitem__("two-step", two_step))

        patch = self._patch
        patch(SessionLogGenerator, "generate", "workload.generate", sessions)
        patch(MultiTenantLogComposer, "compose", "workload.compose", records)
        patch(ComposedWorkload, "tenant_log", "workload.tenant_log", materialized)
        patch(ActivityMatrix, "from_workload", "workload.discretize", active_epochs)
        patch(LIVBPwFCProblem, "from_activity_matrix", "packing.problem")
        patch(two_step_module, "initial_groups", "packing.initial_groups", initial)
        patch(GroupingSolution, "validate", "packing.validate")
        patch(advisor_module, "design_for_group", "tdd.design")
        patch(DeploymentMaster, "deploy", "master.deploy")
        patch(Simulator, "step", "simulation.step")
        patch(Simulator, "schedule", "simulation.schedule")
        patch(Simulator, "cancel", "simulation.cancel")
        patch(GroupRuntime, "schedule", "runtime.schedule", scheduled)
        patch(QueryRouter, "route", "routing.route")
        patch(ExecutionEngine, "submit", "engine.submit")
        patch(ExecutionEngine, "abort_all", "engine.abort_all", aborted)
        patch(GroupActivityMonitor, "rt_ttp", "monitor.rt_ttp", rt_ttp)
        patch(GroupActivityMonitor, "on_query_start", "monitor.on_query")
        patch(GroupActivityMonitor, "on_query_finish", "monitor.on_query")
        patch(ScalingPolicy, "maybe_scale", "scaling.maybe_scale", scaled)
        for cls, attr in _OBS_METHODS:
            patch(cls, attr, f"obs.{cls.__name__}.{attr}")
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results -----------------------------------------------------------

    @property
    def covered_s(self) -> float:
        """Seconds covered by spans that have no parent."""
        return float(self._covered[1])

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.spans.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.spans.get(name, (0, 0.0, 0.0))[2])

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the pass this trace covered."""
        calls, total, own, count = self.calls, self.total_s, self.self_s, self.counts.get
        obs = [name for name in self.spans if name.startswith("obs.")]
        sink_calls = sum(calls(n) for n in obs if n.startswith("obs.MemorySink."))
        durations = sorted(self.rt_ttp_us)
        return {
            "workload.generate_s": total("workload.generate"),
            "workload.compose_s": total("workload.compose"),
            "workload.sessions": count("workload.sessions", 0),
            "workload.records": count("workload.records", 0),
            "workload.tenant_log_s": total("workload.tenant_log"),
            "workload.tenant_log_calls": calls("workload.tenant_log"),
            "workload.records_materialized": count("workload.records_materialized", 0),
            "workload.discretize_s": total("workload.discretize"),
            "workload.discretize_calls": calls("workload.discretize"),
            "workload.active_epochs": count("workload.active_epochs", 0),
            "packing.problem_s": total("packing.problem"),
            "packing.group_s": total("packing.group"),
            "packing.group_calls": calls("packing.group"),
            "packing.initial_groups": count("packing.initial_groups", 0),
            "packing.groups": count("packing.groups", 0),
            "packing.validate_s": total("packing.validate"),
            "tdd.design_s": total("tdd.design"),
            "tdd.design_calls": calls("tdd.design"),
            "master.deploy_s": total("master.deploy"),
            "simulation.events": calls("simulation.step"),
            "simulation.schedule_calls": calls("simulation.schedule"),
            "simulation.schedule_s": total("simulation.schedule"),
            "simulation.cancel_calls": calls("simulation.cancel"),
            "simulation.step_self_s": own("simulation.step"),
            "simulation.pending_peak": count("simulation.pending_peak", 0),
            "runtime.schedule_s": total("runtime.schedule"),
            "runtime.queries_scheduled": count("runtime.queries_scheduled", 0),
            "routing.route_calls": calls("routing.route"),
            "routing.route_s": total("routing.route"),
            "engine.submit_calls": calls("engine.submit"),
            "engine.submit_s": total("engine.submit"),
            "engine.aborts": calls("engine.abort_all"),
            "engine.aborted_queries": count("engine.aborted_queries", 0),
            "monitor.rt_ttp_calls": calls("monitor.rt_ttp"),
            "monitor.rt_ttp_s": total("monitor.rt_ttp"),
            "monitor.rt_ttp_p50_us": _quantile(durations, 0.50),
            "monitor.rt_ttp_p99_us": _quantile(durations, 0.99),
            "monitor.on_query_s": total("monitor.on_query"),
            "scaling.maybe_scale_calls": calls("scaling.maybe_scale"),
            "scaling.maybe_scale_s": total("scaling.maybe_scale"),
            "scaling.actions": count("scaling.actions", 0),
            "obs.self_s": sum(own(n) for n in obs),
            "obs.sink_calls": sink_calls,
            "obs.spans": calls("obs.Tracer.start_span"),
            "obs.metric_samples": calls("obs.MemorySink.on_metric"),
        }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when nothing was sampled."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-by-metric median over traced passes."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
