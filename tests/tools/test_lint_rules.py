"""Fixture tests for the THR rule set: each rule fires on a bad snippet and
stays quiet on a good one."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.tools.lint import check_file


def _lint_snippet(tmp_path: Path, relpath: str, source: str, select=None):
    """Write ``source`` at ``relpath`` under ``tmp_path`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    violations = check_file(path)
    if select is not None:
        violations = [v for v in violations if v.code == select]
    return violations


class TestTHR001ReplayDeterminism:
    def test_fires_on_stdlib_random_import(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/simulation/bad.py",
            """
            import random

            def draw() -> float:
                return random.random()
            """,
            select="THR001",
        )
        assert bad and bad[0].line == 2

    def test_fires_on_wall_clock_and_adhoc_rng(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/core/bad.py",
            """
            import time
            import numpy as np

            def stamp() -> float:
                return time.time()

            def rng(seed: int):
                return np.random.default_rng(seed)
            """,
            select="THR001",
        )
        assert len(bad) == 2
        assert {v.line for v in bad} == {6, 9}

    def test_quiet_on_framework_randomness(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "src/repro/workload/good.py",
            """
            import numpy as np

            from repro.rng import RngFactory

            def draw(rng: np.random.Generator) -> float:
                return float(rng.random())

            def make(seed: int) -> np.random.Generator:
                return RngFactory(seed).stream("workload")
            """,
            select="THR001",
        )
        assert good == []

    def test_fires_in_every_repro_layer(self, tmp_path):
        # No layer is exempt: solver timing in analysis/ needs a noqa too.
        bad = _lint_snippet(
            tmp_path,
            "src/repro/analysis/bad.py",
            """
            import time

            def elapsed() -> float:
                return time.time()
            """,
            select="THR001",
        )
        assert [v.line for v in bad] == [5]

    def test_fires_on_perf_counter_behind_a_helper(self, tmp_path):
        # A timing helper a replay reaches through two calls still reads the
        # host clock where it stands.
        bad = _lint_snippet(
            tmp_path,
            "src/repro/packing/timing.py",
            """
            import time

            def stamp() -> float:
                return time.perf_counter()

            def plan() -> float:
                return stamp()
            """,
            select="THR001",
        )
        assert [v.line for v in bad] == [5]
        assert "time.perf_counter()" in bad[0].message

    def test_fires_on_stdlib_random_and_default_rng(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/core/service.py",
            """
            import random

            import numpy

            class Replay:
                def run(self) -> float:
                    numpy.random.default_rng()
                    return random.random()
            """,
            select="THR001",
        )
        assert {v.line for v in bad} == {2, 8, 9}


class TestTHR002ReproErrors:
    def test_fires_on_builtin_raise(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/mppdb/bad.py",
            """
            def check(x: int) -> None:
                if x < 0:
                    raise ValueError("negative")
            """,
            select="THR002",
        )
        assert len(bad) == 1
        assert "ValueError" in bad[0].message

    def test_fires_on_private_helper_raise(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/core/api.py",
            """
            def load(raw: str) -> str:
                return _parse(raw)

            def _parse(raw: str) -> str:
                if not raw:
                    raise ValueError("empty")
                return raw
            """,
            select="THR002",
        )
        assert [v.line for v in bad] == [7]

    def test_fires_on_bare_reraise_of_caught_builtin(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/core/api.py",
            """
            def read(path: str) -> str:
                try:
                    return open(path).read()
                except (KeyError, FileNotFoundError):
                    raise
            """,
            select="THR002",
        )
        assert len(bad) == 1
        assert "re-raises builtin KeyError" in bad[0].message

    def test_quiet_on_repro_error_bare_reraise_and_stubs(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "src/repro/mppdb/good.py",
            """
            from repro.errors import MPPDBError

            def check(x: int) -> None:
                if x < 0:
                    raise MPPDBError("negative")

            def stub() -> None:
                raise NotImplementedError

            def passthrough() -> None:
                try:
                    check(-1)
                except MPPDBError:
                    raise

            def broad() -> None:
                try:
                    check(-1)
                except Exception:
                    raise

            def translated(raw: str) -> int:
                try:
                    return int(raw)
                except ValueError:
                    try:
                        check(-1)
                    except MPPDBError:
                        raise
                    return 0
            """,
            select="THR002",
        )
        assert good == []

    def test_quiet_outside_repro(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "benchmarks/bench_bad.py",
            """
            def check(x: int) -> None:
                raise ValueError("benchmarks may use builtins")
            """,
            select="THR002",
        )
        assert good == []


class TestTHR003FloatEquality:
    def test_fires_on_float_literal_comparison(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/core/bad.py",
            """
            def met(fraction: float) -> bool:
                return fraction == 0.999
            """,
            select="THR003",
        )
        assert len(bad) == 1

    def test_fires_on_domain_named_operands(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "examples/bad.py",
            """
            def same(a, b) -> bool:
                return a.latency_s != b.latency_s
            """,
            select="THR003",
        )
        assert len(bad) == 1

    def test_quiet_on_isclose_ints_and_ordering(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "src/repro/core/good.py",
            """
            import math

            def met(fraction: float, epoch: int) -> bool:
                return math.isclose(fraction, 0.999) and epoch == 3 and fraction >= 0.5
            """,
            select="THR003",
        )
        assert good == []


class TestTHR004MutableDefaults:
    def test_fires_on_list_and_dict_defaults(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "examples/bad.py",
            """
            def f(xs=[]):
                return xs

            def g(*, mapping=dict()):
                return mapping
            """,
            select="THR004",
        )
        assert len(bad) == 2

    def test_quiet_on_none_and_immutable_defaults(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "examples/good.py",
            """
            def f(xs=None, pair=(), name="x"):
                return xs, pair, name
            """,
            select="THR004",
        )
        assert good == []


class TestTHR005BroadExcept:
    def test_fires_on_swallowed_exception(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/cluster/bad.py",
            """
            def risky() -> int:
                try:
                    return 1
                except Exception:
                    return 0
            """,
            select="THR005",
        )
        assert len(bad) == 1

    def test_quiet_on_reraise_and_specific_catch(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "src/repro/cluster/good.py",
            """
            from repro.errors import ClusterError

            def risky() -> int:
                try:
                    return 1
                except ClusterError:
                    return 0

            def logged() -> int:
                try:
                    return 1
                except Exception:
                    raise
            """,
            select="THR005",
        )
        assert good == []


class TestTHR007NoBarePrint:
    def test_fires_on_library_print(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/core/bad.py",
            """
            def report(done: int) -> None:
                print(f"{done} queries done")
            """,
            select="THR007",
        )
        assert len(bad) == 1
        assert "print()" in bad[0].message

    def test_quiet_in_cli_and_main(self, tmp_path):
        for relpath in ("src/repro/cli.py", "src/repro/__main__.py", "src/repro/tools/lint/__main__.py"):
            good = _lint_snippet(
                tmp_path,
                relpath,
                """
                def main() -> int:
                    print("presentation layer")
                    return 0
                """,
                select="THR007",
            )
            assert good == [], relpath

    def test_quiet_outside_repro_and_on_shadowed_print(self, tmp_path):
        assert (
            _lint_snippet(
                tmp_path,
                "examples/demo.py",
                """
                print("examples are presentation code")
                """,
                select="THR007",
            )
            == []
        )
        # A method *named* print is not the builtin.
        assert (
            _lint_snippet(
                tmp_path,
                "src/repro/analysis/good.py",
                """
                class Report:
                    def render(self) -> str:
                        return "table"

                def show(report: Report, sink) -> None:
                    sink.print(report.render())
                """,
                select="THR007",
            )
            == []
        )


class TestTHR008EnumValueComparison:
    def test_fires_on_value_vs_string_literal(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/cluster/bad.py",
            """
            def is_failed(node) -> bool:
                return node.state.value == "failed"
            """,
            select="THR008",
        )
        assert len(bad) == 1
        assert "NodeState.FAILED" in bad[0].message

    def test_fires_on_not_equal_and_reversed_operands(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/mppdb/bad.py",
            """
            def check(instance) -> bool:
                return "ready" != instance.state.value
            """,
            select="THR008",
        )
        assert len(bad) == 1

    def test_quiet_on_member_identity_comparison(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "src/repro/cluster/good.py",
            """
            from enum import Enum

            class NodeState(Enum):
                FAILED = "failed"

            def is_failed(node) -> bool:
                return node.state is NodeState.FAILED
            """,
            select="THR008",
        )
        assert good == []

    def test_quiet_on_non_string_and_non_value_comparisons(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "src/repro/cluster/good.py",
            """
            def checks(node) -> bool:
                return node.state.value == 3 or node.name == "failed"
            """,
            select="THR008",
        )
        assert good == []

    def test_quiet_outside_repro(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "tools/helper.py",
            """
            def is_failed(node) -> bool:
                return node.state.value == "failed"
            """,
            select="THR008",
        )
        assert good == []


class TestSuppression:
    def test_coded_noqa_suppresses_matching_rule_only(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            "src/repro/core/suppressed.py",
            """
            def met(fraction: float) -> bool:
                return fraction == 0.999  # thrifty: noqa[THR003]
            """,
        )
        assert violations == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            "src/repro/core/suppressed.py",
            """
            def met(fraction: float) -> bool:
                return fraction == 0.999  # thrifty: noqa[THR001]
            """,
            select="THR003",
        )
        assert len(violations) == 1

    def test_blanket_noqa_suppresses_everything(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            "src/repro/core/suppressed.py",
            """
            def met(fraction: float) -> bool:
                return fraction == 0.999  # thrifty: noqa
            """,
        )
        assert violations == []


class TestTHR009ParallelImport:
    def test_fires_on_multiprocessing_import(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/core/bad_pool.py",
            """
            import multiprocessing

            def fan_out(n: int):
                return multiprocessing.Pool(n)
            """,
            select="THR009",
        )
        assert bad and bad[0].line == 2

    def test_fires_on_concurrent_futures_from_import(self, tmp_path):
        bad = _lint_snippet(
            tmp_path,
            "src/repro/analysis/bad_pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(n: int):
                return ProcessPoolExecutor(max_workers=n)
            """,
            select="THR009",
        )
        assert len(bad) == 1

    def test_quiet_inside_repro_parallel(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "src/repro/parallel.py",
            """
            import concurrent.futures
            import multiprocessing
            """,
            select="THR009",
        )
        assert good == []

    def test_quiet_on_fabric_usage(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "src/repro/analysis/good_pool.py",
            """
            from repro.parallel import ordered_map

            def fan_out(n: int) -> list[int]:
                return ordered_map(abs, [-1, -2], n)
            """,
            select="THR009",
        )
        assert good == []

    def test_quiet_outside_repro(self, tmp_path):
        good = _lint_snippet(
            tmp_path,
            "benchmarks/bench_pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor
            """,
            select="THR009",
        )
        assert good == []


@pytest.mark.parametrize(
    "code",
    [
        "THR001",
        "THR002",
        "THR003",
        "THR004",
        "THR005",
        "THR007",
        "THR008",
        "THR009",
    ],
)
def test_every_rule_is_registered(code):
    from repro.tools.lint import rule_codes

    assert code in rule_codes()
