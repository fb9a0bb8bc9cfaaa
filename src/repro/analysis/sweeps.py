"""The Chapter 7 experiment driver.

Builds workloads at a configurable *bench scale* (the paper's runs use
T = 5000 tenants and 30-day logs on EC2; the default bench scale is
laptop-sized and documented per experiment in EXPERIMENTS.md), runs the
grouping solvers, and produces one :class:`GroupingRow` per parameter
value with the three panels of every §7.3 figure: consolidation
effectiveness, average tenant-group size, and solver execution time.

Workloads are cached per (scale, log-variant) so the five parameter sweeps
that share the default workload do not regenerate it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

from ..config import EvaluationConfig, LogGenerationConfig
from ..errors import ReproError
from ..packing.ffd import ffd_grouping
from ..packing.livbp import LIVBPwFCProblem
from ..packing.two_step import two_step_grouping
from ..parallel import ordered_map
from ..workload.activity import ActivityMatrix, active_tenant_ratio
from ..workload.composer import ComposedWorkload, MultiTenantLogComposer
from ..workload.generator import SessionLibrary, SessionLogGenerator

__all__ = [
    "BenchScale",
    "GroupingRow",
    "build_workload",
    "run_grouping_experiment",
    "sweep_parameter",
    "DEFAULT_SCALE",
    "SMOKE_SCALE",
]


@dataclass(frozen=True)
class BenchScale:
    """How much of the paper's scale a bench run uses."""

    num_tenants: int = 800
    horizon_days: int = 14
    holiday_weekdays: int = 1
    sessions_per_size: int = 16
    seed: int = 20130625

    def config(self, **overrides: object) -> EvaluationConfig:
        """An :class:`EvaluationConfig` at this scale (fields overridable)."""
        logs = LogGenerationConfig(
            horizon_days=self.horizon_days, holiday_weekdays=self.holiday_weekdays
        )
        base = EvaluationConfig(num_tenants=self.num_tenants, seed=self.seed, logs=logs)
        if overrides:
            base = replace(base, **overrides)  # type: ignore[arg-type]
        return base


#: Scale used by the committed benchmark harness.
DEFAULT_SCALE = BenchScale()

#: Tiny scale for smoke tests and CI.
SMOKE_SCALE = BenchScale(num_tenants=120, horizon_days=7, holiday_weekdays=0, sessions_per_size=6)

_LIBRARY_CACHE: dict[tuple, SessionLibrary] = {}
_WORKLOAD_CACHE: dict[tuple, ComposedWorkload] = {}


def _library_key(config: EvaluationConfig, sessions_per_size: int) -> tuple:
    return (config.seed, config.node_sizes, config.data_gb_per_node, sessions_per_size,
            config.logs.session_hours, config.logs.max_users, config.logs.max_batch,
            config.logs.min_think_s, config.logs.max_think_s)


def _workload_key(config: EvaluationConfig, sessions_per_size: int) -> tuple:
    logs = config.logs
    return _library_key(config, sessions_per_size) + (
        config.num_tenants,
        config.theta,
        logs.horizon_days,
        logs.workdays_per_week,
        logs.holiday_weekdays,
        logs.tz_offsets_hours,
        logs.include_lunch,
        logs.include_evening_session,
        logs.lunch_hours,
        logs.evening_gap_hours,
    )


def build_workload(config: EvaluationConfig, sessions_per_size: int = 16) -> ComposedWorkload:
    """Generate (or fetch from cache) the composed workload for a config."""
    key = _workload_key(config, sessions_per_size)
    workload = _WORKLOAD_CACHE.get(key)
    if workload is not None:
        return workload
    lib_key = _library_key(config, sessions_per_size)
    library = _LIBRARY_CACHE.get(lib_key)
    if library is None:
        library = SessionLogGenerator(config, sessions_per_size=sessions_per_size).generate()
        _LIBRARY_CACHE[lib_key] = library
    workload = MultiTenantLogComposer(config, library).compose()
    _WORKLOAD_CACHE[key] = workload
    return workload


@dataclass(frozen=True)
class GroupingRow:
    """One parameter point of a §7.3-style sweep."""

    parameter: str
    value: object
    active_ratio: float
    two_step_effectiveness: float
    two_step_group_size: float
    two_step_seconds: float
    ffd_effectiveness: float
    ffd_group_size: float
    ffd_seconds: float
    extras: dict = field(default_factory=dict)

    @property
    def advantage_points(self) -> float:
        """2-step effectiveness minus FFD's, in percentage points."""
        return 100.0 * (self.two_step_effectiveness - self.ffd_effectiveness)

    def identity(self) -> tuple:
        """The deterministic fields of the row — everything except timing.

        Two runs of the same sweep (serial, or parallel at any worker
        count) produce rows with equal identities; the ``*_seconds``
        fields are wall-clock *measurements* and are excluded from the
        determinism contract (docs/PARALLELISM.md).
        """
        return (
            self.parameter,
            self.value,
            self.active_ratio,
            self.two_step_effectiveness,
            self.two_step_group_size,
            self.ffd_effectiveness,
            self.ffd_group_size,
            tuple(sorted(self.extras.items())),
        )

    def as_list(self) -> list:
        """Row form for :func:`~repro.analysis.report.format_table`."""
        return [
            self.value,
            round(self.active_ratio, 4),
            round(self.two_step_effectiveness, 4),
            round(self.ffd_effectiveness, 4),
            round(self.advantage_points, 2),
            round(self.two_step_group_size, 2),
            round(self.ffd_group_size, 2),
            round(self.two_step_seconds, 2),
            round(self.ffd_seconds, 2),
        ]


#: Column headers matching :meth:`GroupingRow.as_list`.
GROUPING_HEADERS = [
    "value",
    "active_ratio",
    "2step_eff",
    "ffd_eff",
    "adv_pts",
    "2step_gsz",
    "ffd_gsz",
    "2step_s",
    "ffd_s",
]
__all__.append("GROUPING_HEADERS")


def run_grouping_experiment(
    workload: ComposedWorkload,
    epoch_size: float,
    replication_factor: int,
    sla_percent: float,
    parameter: str = "",
    value: object = None,
) -> GroupingRow:
    """Solve one instance with both heuristics and collect the panels.

    Solver timings are measured here with :func:`time.perf_counter` —
    i.e. *inside* the worker when a sweep runs on a process pool — so the
    §7.3 execution-time panels are the cost of the solve itself, free of
    pool start-up and scheduling noise.
    """
    matrix = ActivityMatrix.from_workload(workload, epoch_size)
    problem = LIVBPwFCProblem.from_activity_matrix(matrix, replication_factor, sla_percent)
    started = time.perf_counter()  # thrifty: noqa[THR001] measurement metadata
    two_step = two_step_grouping(problem)
    two_step_s = time.perf_counter() - started  # thrifty: noqa[THR001] measurement metadata
    started = time.perf_counter()  # thrifty: noqa[THR001] measurement metadata
    ffd = ffd_grouping(problem)
    ffd_s = time.perf_counter() - started  # thrifty: noqa[THR001] measurement metadata
    two_step.validate()
    ffd.validate()
    return GroupingRow(
        parameter=parameter,
        value=value,
        active_ratio=active_tenant_ratio(matrix, conditional=False),
        two_step_effectiveness=two_step.consolidation_effectiveness,
        two_step_group_size=two_step.average_group_size,
        two_step_seconds=two_step_s,
        ffd_effectiveness=ffd.consolidation_effectiveness,
        ffd_group_size=ffd.average_group_size,
        ffd_seconds=ffd_s,
        extras={"num_epochs": problem.num_epochs, "num_items": len(problem.items)},
    )


#: Parameters :func:`sweep_parameter` understands.
SWEEP_PARAMETERS = frozenset(
    {"epoch_size_s", "num_tenants", "theta", "replication_factor", "sla_percent"}
)
__all__.append("SWEEP_PARAMETERS")


def _sweep_point(
    parameter: str,
    value: object,
    scale: BenchScale,
    workload_factory: Optional[Callable[[EvaluationConfig], ComposedWorkload]] = None,
) -> GroupingRow:
    """One sweep point: build the workload with ``parameter = value``, solve it.

    A pure function of its arguments (the workload comes from the
    process-local cache or is generated from the config's seed), so it
    yields the same row in this process or in a spawned worker.
    """
    config = scale.config(**{parameter: value})
    if workload_factory is not None:
        workload = workload_factory(config)
    else:
        workload = build_workload(config, scale.sessions_per_size)
    return run_grouping_experiment(
        workload,
        epoch_size=config.epoch_size_s,
        replication_factor=config.replication_factor,
        sla_percent=config.sla_percent,
        parameter=parameter,
        value=value,
    )


def sweep_parameter(
    parameter: str,
    values: Sequence[object],
    scale: BenchScale = DEFAULT_SCALE,
    workload_factory: Optional[Callable[[EvaluationConfig], ComposedWorkload]] = None,
    workers: int = 0,
) -> list[GroupingRow]:
    """Run a Table 7.1-style sweep over one parameter.

    ``parameter`` is one of ``"epoch_size_s"``, ``"num_tenants"``,
    ``"theta"``, ``"replication_factor"``, ``"sla_percent"``; every other
    parameter stays at the scale's default.

    With ``workers > 0`` the sweep points run on a process pool of up to
    that size (:func:`repro.parallel.ordered_map`); the rows come back in
    value order with the same deterministic fields
    (:meth:`GroupingRow.identity`) as the serial path.  ``workers < 0``
    raises :class:`~repro.errors.ParallelError` before any workload is
    built.  ``workload_factory`` is a serial-only hook (an arbitrary
    closure cannot be shipped to a spawned worker).
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ReproError(
            f"unknown sweep parameter {parameter!r}; options: {sorted(SWEEP_PARAMETERS)}"
        )
    if workers > 0 and workload_factory is not None:
        raise ReproError(
            "workload_factory is serial-only; a parallel sweep builds each "
            "point's workload from its config inside the worker"
        )
    point = partial(_sweep_point, parameter, scale=scale, workload_factory=workload_factory)
    return ordered_map(point, values, workers)
