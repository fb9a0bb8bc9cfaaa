"""Command-line front end: ``thrifty`` (or ``python -m repro``).

Subcommands:

* ``plan``    — generate a workload, run the Deployment Advisor, print the
  plan summary and optional per-group detail.
* ``replay``  — plan, deploy and replay the composed logs through the
  query router; print SLA outcomes and scaling actions.
* ``sweep``   — run a Table 7.1-style parameter sweep (one of epoch_size_s,
  num_tenants, theta, replication_factor, sla_percent) and print the
  three-panel rows of the §7.3 figures.
* ``loadtimes`` — print the Table 5.1 startup/bulk-load model.
* ``obs``     — digest a run-report directory written by
  ``replay --obs-out`` (headline counters, busiest groups, RT-TTP
  trajectory, routing decisions, scaling actions).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis.report import ascii_series, format_table
from .analysis.sweeps import (
    GROUPING_HEADERS,
    BenchScale,
    build_workload,
    sweep_parameter,
)
from .config import EvaluationConfig
from .core.service import ThriftyService
from .errors import ConfigurationError, ReproError
from .mppdb.loading import LoadTimeModel, PAPER_LOAD_TABLE
from .obs import MemorySink, Observer, load_run_report, write_run_report
from .units import DAY, format_duration, format_size_gb

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``thrifty`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="thrifty",
        description="Thrifty: MPPDB-as-a-Service consolidation (SIGMOD 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tenants", type=int, default=300, help="number of tenants T")
        p.add_argument("--days", type=int, default=7, help="log horizon in days")
        p.add_argument("--sessions", type=int, default=8, help="library sessions per node size")
        p.add_argument("--theta", type=float, default=0.8, help="tenant-size Zipf skew")
        p.add_argument("--replication", type=int, default=3, help="replication factor R")
        p.add_argument("--sla", type=float, default=99.9, help="performance SLA P%%")
        p.add_argument("--epoch", type=float, default=1.0, help="epoch size E in seconds")
        p.add_argument("--seed", type=int, default=20130625, help="master random seed")

    plan = sub.add_parser("plan", help="compute a deployment plan")
    add_scale_args(plan)
    plan.add_argument("--grouping", choices=("two-step", "ffd"), default="two-step")
    plan.add_argument("--groups", action="store_true", help="print per-group detail")

    replay = sub.add_parser("replay", help="plan, deploy and replay the logs")
    add_scale_args(replay)
    replay.add_argument("--grouping", choices=("two-step", "ffd"), default="two-step")
    replay.add_argument(
        "--scaling",
        choices=("lightweight", "proactive", "whole-group", "disabled"),
        default="lightweight",
    )
    replay.add_argument("--replay-days", type=float, default=1.0, help="days of logs to replay")
    replay.add_argument(
        "--chaos-mtbf",
        type=float,
        default=None,
        metavar="SECONDS",
        help="arm random node failures with this per-node MTBF (chaos harness)",
    )
    replay.add_argument(
        "--obs-out",
        metavar="DIR",
        default=None,
        help="export metrics.jsonl / spans.jsonl / summary.json to DIR",
    )

    sweep = sub.add_parser("sweep", help="run a Table 7.1-style parameter sweep")
    add_scale_args(sweep)
    sweep.add_argument(
        "parameter",
        choices=("epoch_size_s", "num_tenants", "theta", "replication_factor", "sla_percent"),
    )
    sweep.add_argument("values", nargs="+", help="parameter values to sweep")
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the sweep points (0 = in-process serial)",
    )

    sub.add_parser("loadtimes", help="print the Table 5.1 load-time model")

    obs = sub.add_parser("obs", help="summarize a replay --obs-out run report")
    obs.add_argument("directory", help="directory written by replay --obs-out")
    obs.add_argument(
        "--group",
        default=None,
        help="group whose RT-TTP trajectory to plot (default: busiest)",
    )
    obs.add_argument("--top", type=int, default=5, help="how many groups to list")
    return parser


def _scale_from_args(args: argparse.Namespace) -> BenchScale:
    return BenchScale(
        num_tenants=args.tenants,
        horizon_days=args.days,
        holiday_weekdays=0 if args.days < 14 else 1,
        sessions_per_size=args.sessions,
        seed=args.seed,
    )


def _config_from_args(args: argparse.Namespace) -> EvaluationConfig:
    return _scale_from_args(args).config(
        theta=args.theta,
        replication_factor=args.replication,
        sla_percent=args.sla,
        epoch_size_s=args.epoch,
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    workload = build_workload(config, args.sessions)
    service = ThriftyService(config, grouping=args.grouping)
    advice = service.deploy(workload)
    plan = advice.plan
    print(
        format_table(
            ["metric", "value"],
            [
                ["tenants", len(workload)],
                ["excluded from consolidation", len(advice.excluded)],
                ["tenant groups", len(plan)],
                ["nodes requested", plan.total_nodes_requested],
                ["nodes used", plan.total_nodes_used],
                ["effectiveness", f"{plan.consolidation_effectiveness:.1%}"],
                ["grouping", advice.grouping.solver],
                ["grouping time", f"{advice.grouping.solve_seconds:.2f}s"],
            ],
            title="Deployment plan",
        )
    )
    if args.groups:
        print()
        print(
            format_table(
                ["group", "tenants", "parallelism", "A", "nodes", "requested"],
                [
                    [
                        g.group_name,
                        len(g.tenants),
                        g.design.parallelism,
                        g.design.num_instances,
                        g.nodes_used,
                        g.nodes_requested,
                    ]
                    for g in plan
                ],
                title="Per-group detail",
            )
        )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    workload = build_workload(config, args.sessions)
    observer = Observer(MemorySink()) if args.obs_out else None
    service = ThriftyService(
        config, grouping=args.grouping, scaling=args.scaling, observer=observer
    )
    service.deploy(workload)
    until = args.replay_days * DAY
    armed = 0
    if args.chaos_mtbf is not None:
        armed = service.arm_chaos(args.chaos_mtbf, horizon=until)
    report = service.replay(until=until)
    sla = report.sla
    rows = [
        ["replayed", format_duration(args.replay_days * DAY)],
        ["queries completed", len(sla)],
        ["SLA met", f"{sla.fraction_met:.2%}"],
        ["mean normalized latency", f"{sla.mean_normalized():.3f}"],
        ["worst normalized latency", f"{sla.worst_normalized:.2f}"],
        ["effectiveness", f"{report.consolidation_effectiveness:.1%}"],
        ["scaling actions", len(report.scaling_actions())],
    ]
    if args.chaos_mtbf is not None:
        reports = report.group_reports.values()
        chaos = service.chaos
        rows += [
            ["chaos failures armed", armed],
            ["node failures", len(chaos.failures) if chaos is not None else 0],
            ["queries retried", sum(r.queries_retried for r in reports)],
            ["failovers", sum(r.failovers for r in reports)],
            ["queries failed", sum(r.queries_failed for r in reports)],
            ["worst rt_ttp", f"{min((r.rt_ttp_min() for r in reports), default=1.0):.5f}"],
        ]
    print(format_table(["metric", "value"], rows, title="Replay report"))
    for action in report.scaling_actions():
        print(
            f"  scaling at {format_duration(action.time)}: {action.kind} "
            f"over_active={list(action.over_active)} "
            f"loaded={format_size_gb(action.loaded_gb)}"
        )
    if observer is not None:
        paths = write_run_report(
            args.obs_out,
            observer,
            horizon=until,
            simulator_events=service.simulator.event_counts,
            meta={
                "command": "replay",
                "tenants": args.tenants,
                "replay_days": args.replay_days,
                "grouping": args.grouping,
                "scaling": args.scaling,
                "seed": args.seed,
                "chaos_mtbf": args.chaos_mtbf,
            },
        )
        print(f"observability report written to {paths.directory}/")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    caster = int if args.parameter in ("num_tenants", "replication_factor") else float
    try:
        values = [caster(v) for v in args.values]
    except ValueError as exc:
        raise ConfigurationError(
            f"{args.parameter} takes {caster.__name__} values: {exc}"
        ) from None
    rows = sweep_parameter(
        args.parameter, values, scale=_scale_from_args(args), workers=args.workers
    )
    print(
        format_table(
            GROUPING_HEADERS,
            [r.as_list() for r in rows],
            title=f"Sweep over {args.parameter}",
        )
    )
    return 0


def _cmd_loadtimes(args: argparse.Namespace) -> int:
    model = LoadTimeModel()
    print(
        format_table(
            ["tenant/data", "startup_s", "bulk_load_s", "total"],
            [
                [
                    f"{nodes}-node / {format_size_gb(gb)}",
                    round(model.startup_seconds(nodes)),
                    round(model.bulk_load_seconds(gb)),
                    format_duration(model.provision_seconds(nodes, gb)),
                ]
                for nodes, (gb, __, __) in sorted(PAPER_LOAD_TABLE.items())
            ],
            title="Load-time model (calibrated to Table 5.1)",
        )
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    report = load_run_report(args.directory)
    top = report.top_groups(args.top)
    focus = args.group if args.group is not None else (top[0][0] if top else None)
    trajectory = report.rt_ttp_trajectory(focus) if focus is not None else []
    queries = report.summary.get("queries", {})
    spans = report.summary.get("spans", {})
    by_status = spans.get("by_status", {})
    print(
        format_table(
            ["metric", "value"],
            [
                ["queries submitted", int(queries.get("submitted", 0))],
                ["queries completed", int(queries.get("completed", 0))],
                ["overflow queries", int(queries.get("overflow", 0))],
                ["SLA violations", int(queries.get("sla_violations", 0))],
                ["spans", spans.get("total", 0)],
                *[[f"  status {k}", v] for k, v in sorted(by_status.items())],
                ["scaling actions", len(report.summary.get("scaling_actions", []))],
            ],
            title=f"Run report: {report.directory}",
        )
    )

    groups = report.summary.get("groups", {})
    if top:
        print()
        print(
            format_table(
                ["group", "submitted", "completed", "violations", "rt_ttp_min"],
                [
                    [
                        name,
                        int(groups[name].get("queries_submitted", 0)),
                        int(groups[name].get("queries_completed", 0)),
                        int(groups[name].get("sla_violations", 0)),
                        f"{groups[name].get('rt_ttp_min', 1.0):.5f}",
                    ]
                    for name, __ in top
                ],
                title=f"Top {len(top)} groups by queries submitted",
            )
        )

    if trajectory:
        print()
        print(f"RT-TTP trajectory for {focus} ({len(trajectory)} samples):")
        print(ascii_series([v for __, v in trajectory], label="rt_ttp"))
        low = min(trajectory, key=lambda tv: tv[1])
        print(f"  min {low[1]:.5f} at {format_duration(low[0])}")

    faults = report.summary.get("faults", {})
    if faults and faults.get("node_failures", 0):
        print()
        print(
            format_table(
                ["metric", "value"],
                [
                    ["node failures", int(faults.get("node_failures", 0))],
                    ["query retries", int(faults.get("query_retries", 0))],
                    ["failovers", int(faults.get("failovers", 0))],
                    ["queries failed", int(faults.get("queries_failed", 0))],
                    *[
                        [f"  degraded {name}", format_duration(seconds)]
                        for name, seconds in sorted(
                            faults.get("degraded_seconds_by_instance", {}).items()
                        )
                    ],
                ],
                title="Fault tolerance",
            )
        )

    routing = report.summary.get("routing_decisions", {})
    if routing:
        print()
        print(
            format_table(
                ["outcome", "queries"],
                [[k, int(v)] for k, v in sorted(routing.items())],
                title="Routing decisions (Algorithm 1)",
            )
        )

    for action in report.summary.get("scaling_actions", []):
        attrs = action.get("attrs", {})
        print(
            f"  scaling at {format_duration(action.get('start', 0.0))}: "
            f"{attrs.get('policy', '?')} group={attrs.get('group', '?')} "
            f"over_active={attrs.get('over_active', [])}"
        )

    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "replay": _cmd_replay,
    "sweep": _cmd_sweep,
    "loadtimes": _cmd_loadtimes,
    "obs": _cmd_obs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
