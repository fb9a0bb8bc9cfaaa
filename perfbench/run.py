"""Thrifty benchmark: run one workload and print its metrics as JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan --seed 20130625 --seconds 35 --trace 0

``--trace 0`` times untraced service passes and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics, with ``unattributed_s`` and ``trace_overhead``.
Either way the outputs are checked: every pass must give the same output
digest, the default seed must give the digest and counts in
``expected.json``, and a traced pass must repeat the untraced pass's
outputs and counts.  The last line of standard output is one JSON object;
the lines above it are a human-readable table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set up at least this many times and for at least this long;
#: ``setup_s`` is the median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
#: Service passes per run at least, however long they take.
MIN_PASSES = 1


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: 20130625")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One benchmark run: set-up, passes, checks and the result line."""

    def __init__(self, workload: Any, seed: int, seconds: float, expected: Optional[dict]) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.config = workload.config(seed)
        self.expected = expected
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)

    def set_up(self, traced: bool) -> tuple[Any, list[float], list[Any]]:
        """Set up repeatedly; every set-up must compose the same tenants."""
        from layers import LayerTrace
        from workloads import fingerprint, set_up

        times: list[float] = []
        traces: list[LayerTrace] = []
        prints: set[str] = set()
        composed = None
        while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
            trace = LayerTrace()
            gc.collect()
            started = time.perf_counter()
            with trace if traced else contextlib.nullcontext():
                composed = set_up(self.w, self.config)
            times.append(time.perf_counter() - started)
            traces.append(trace)
            prints.add(fingerprint(composed))
        self.check(len(prints) == 1, "set-ups from one seed composed different workloads")
        return composed, times, traces

    def attempt(self, fn: Callable[[], Any]) -> Any:
        """Run one service pass; a pass that raises counts as failed."""
        self.attempted += 1
        gc.collect()
        try:
            result = fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        self.digests.add(result.digest)
        return result

    def passes(self, step: Callable[[], None], minimum: int) -> None:
        """Call ``step`` until the next call would overrun ``--seconds`` or a pass fails."""
        started = time.perf_counter()
        done = 0
        while not self.failed:
            begun = time.perf_counter()
            step()
            done += 1
            now = time.perf_counter()
            if done >= minimum and (now - started) + (now - begun) > self.seconds:
                return

    def check_outputs(self, first: Any) -> None:
        self.check(len(self.digests) == 1, f"passes disagree: digests {sorted(self.digests)}")
        if self.expected is None:
            return
        for key, want in self.expected["counts"].items():
            got = first.counts.get(key)
            self.check(got == want, f"{key} = {got}, expected {want}")
        self.check(
            first.digest == self.expected["digest"],
            f"digest {first.digest} differs from expected {self.expected['digest']}",
        )

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict[str, Any]:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def _collect(into: list[Any], result: Any) -> None:
    if result is not None:
        into.append(result)


def _figures(result: Any) -> dict[str, tuple[float, str]]:
    """Every end-to-end figure one pass gives, for the table."""
    counts = result.counts
    rows: dict[str, tuple[float, str]] = {
        "plan_s": (result.plan_s, "s"),
        "used_fraction": (counts["nodes_used"] / counts["nodes_requested"], "ratio"),
    }
    if "submitted" in counts:
        submitted = counts["submitted"]
        rows.update(
            replay_s=(result.replay_s, "s"),
            queries=(submitted, "count"),
            queries_per_s=(submitted / result.replay_s, "1/s"),
            sla_met=(counts["met"] / submitted, "ratio"),
            failed_share=(counts["failed"] / submitted, "ratio"),
        )
    return rows


def _print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")


def run_untraced(run: Run) -> dict[str, Any]:
    from workloads import run_pass

    composed, setup_times, _ = run.set_up(traced=False)
    full: list[Any] = []
    run.passes(lambda: _collect(full, run.attempt(
        lambda: run_pass(run.w, run.config, composed))), MIN_PASSES)
    if not full:
        raise SystemExit("every pass failed")
    run.check_outputs(full[0])
    tenants = len(composed)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "service_s": (statistics.median(p.service_s for p in full), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    figures = [_figures(p) for p in full]
    table = {"tenants": (tenants, "count")}
    for name, (_, unit) in figures[0].items():
        table[name] = (statistics.median(f[name][0] for f in figures), unit)
    _print_table(f"{run.w.name} (seed {run.seed}, {len(full)} passes)", {**metrics, **table})
    return run.result(metrics)


#: Per-layer metrics read from the program's own fault-plane counters.
_FAULT_PLANE = {
    "health.failures_handled": "failures_handled",
    "health.replacements_started": "replacements_started",
    "health.replacements_completed": "replacements_completed",
    "runtime.retried": "retried",
    "runtime.failovers": "failovers",
    "runtime.parked_failed": "deadline_failed",
}
_SETUP_LAYERS = ("workload.generate_s", "workload.compose_s", "workload.sessions", "workload.records")


def run_traced(run: Run) -> dict[str, Any]:
    from layers import LayerTrace, median_metrics
    from workloads import run_pass

    composed, _, setup_traces = run.set_up(traced=True)
    untraced: list[Any] = []
    traced: list[Any] = []
    traces: list[LayerTrace] = []

    def traced_pass() -> Any:
        trace = LayerTrace()

        def attach(service: Any) -> None:
            trace.simulator = service.simulator

        with trace:
            result = run_pass(run.w, run.config, composed, on_service=attach)
        trace.simulator = None
        traces.append(trace)
        return result

    def step() -> None:
        _collect(untraced, run.attempt(lambda: run_pass(run.w, run.config, composed)))
        _collect(traced, run.attempt(traced_pass))

    run.passes(step, MIN_PASSES)
    if not untraced or not traced:
        raise SystemExit("every pass failed")
    run.check_outputs(untraced[0])
    reference = untraced[0].counts
    for result in traced:
        run.check(result.counts == reference, "a traced pass changed the program's counts")
    samples = [t.metrics() for t in traces]
    for trace, sample in zip(traces, samples):
        _check_trace(run, trace, sample, reference)
    layer = median_metrics(samples)
    setup = median_metrics([t.metrics() for t in setup_traces])
    layer.update((name, setup[name]) for name in _SETUP_LAYERS)
    layer.update((name, reference.get(key, 0)) for name, key in _FAULT_PLANE.items())
    layer["unattributed_s"] = statistics.median(
        r.service_s - t.covered_s for r, t in zip(traced, traces)
    )
    layer["trace_overhead"] = (
        statistics.median(r.service_s for r in traced)
        / statistics.median(r.service_s for r in untraced)
        - 1.0
    )
    metrics = {name: (layer[name], unit) for name, unit in _layer_units().items()}
    _print_table(f"{run.w.name} traced (seed {run.seed}, {len(traced)} traced passes)", metrics)
    return run.result(metrics)


def _check_trace(run: Run, trace: Any, layer: dict[str, float], counts: dict[str, int]) -> None:
    """The traced pass saw exactly the work the untraced pass reports."""
    if "events" in counts:
        ticks = trace.counts.get("monitor.ticks", 0)
        run.check(layer["simulation.events"] == counts["events"], "traced event count differs")
        run.check(ticks == counts["monitor_ticks"], "traced monitor ticks differ")
        run.check(layer["scaling.maybe_scale_calls"] == ticks, "a tick skipped its scaling check")
        run.check(layer["scaling.actions"] == counts["scaling_actions"], "traced scaling differs")
        if run.w.chaos_mtbf_s is None:
            run.check(
                layer["routing.route_calls"] == counts["submitted"],
                "without faults every submitted query routes exactly once",
            )
    if run.expected is not None:
        for key, want in run.expected.get("trace", {}).items():
            run.check(layer[key] == want, f"{key} = {layer[key]}, expected {want}")


def _layer_units() -> dict[str, str]:
    """Per-layer metric names and units, in ``BENCHMARK.json`` order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}; run it from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"options: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    expected = None
    if seed == workloads.DEFAULT_SEED:
        expected = json.loads((HERE / "expected.json").read_text())[workload.name]
    run = Run(workload, seed, args.seconds, expected)
    result = run_traced(run) if args.trace else run_untraced(run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
