"""ordered_map: serial and pooled maps agree, errors keep their type, a crash reruns once.

The pool tests spawn real worker processes; payloads are kept tiny so
each test stays in the low seconds even on a two-core machine.
"""

from __future__ import annotations

import os
from functools import partial

import pytest

from repro.analysis import sweeps
from repro.analysis.sweeps import BenchScale, sweep_parameter
from repro.errors import ConfigurationError, ParallelError
from repro.parallel import ordered_map


def _crash_once(marker: str, value: int) -> int:
    """Kill the worker the first time the marker file exists, else square ``value``."""
    try:
        os.remove(marker)
    except FileNotFoundError:
        return value * value
    os._exit(1)


def _raise_configuration_error(value: int) -> int:
    raise ConfigurationError(f"bad value {value}")


class TestOrderedMap:
    def test_serial_calls_in_order(self):
        assert ordered_map(abs, [-3, 1, -2], 0) == [3, 1, 2]

    def test_pool_returns_input_order(self):
        assert ordered_map(abs, [-3, 1, -2, 5], 2) == [3, 1, 2, 5]

    def test_empty_args(self):
        assert ordered_map(abs, [], 2) == []

    def test_rejects_negative_workers(self):
        with pytest.raises(ParallelError, match="workers must be >= 0"):
            ordered_map(abs, [1], -1)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_task_error_keeps_its_type(self, workers):
        with pytest.raises(ConfigurationError, match="bad value 1"):
            ordered_map(_raise_configuration_error, [1, 2], workers)

    def test_crash_once_reruns_in_a_fresh_pool(self, tmp_path):
        marker = tmp_path / "crash-next"
        marker.touch()
        assert ordered_map(partial(_crash_once, str(marker)), [1, 2, 3], 2) == [1, 4, 9]
        assert not marker.exists()

    def test_crash_twice_raises_parallel_error(self):
        with pytest.raises(ParallelError, match="crashed twice"):
            ordered_map(os._exit, [3], 1)


class TestWorkerCountEquivalence:
    """Satellite: sweep results are bit-identical at any worker count."""

    @pytest.fixture(scope="class")
    def sweep_runs(self):
        scale = BenchScale(
            num_tenants=40, horizon_days=7, holiday_weekdays=0, sessions_per_size=4, seed=7
        )
        values = [10.0, 60.0, 600.0]
        return {
            workers: sweep_parameter("epoch_size_s", values, scale=scale, workers=workers)
            for workers in (0, 2, 8)
        }

    def test_row_identities_match_across_worker_counts(self, sweep_runs):
        serial = [row.identity() for row in sweep_runs[0]]
        assert [row.identity() for row in sweep_runs[2]] == serial
        assert [row.identity() for row in sweep_runs[8]] == serial

    def test_rows_come_back_in_value_order(self, sweep_runs):
        for rows in sweep_runs.values():
            assert [row.value for row in rows] == [10.0, 60.0, 600.0]

    def test_rows_are_nontrivial(self, sweep_runs):
        for row in sweep_runs[0]:
            # Tiny scales can go negative (R=3 replication overhead beats
            # consolidation at 40 tenants); the point is the value is real.
            assert -1.0 <= row.two_step_effectiveness <= 1.0
            assert row.extras["num_epochs"] > 0
            assert row.two_step_group_size >= 1.0


class TestSweepBoundary:
    _SCALE = BenchScale(
        num_tenants=20, horizon_days=7, holiday_weekdays=0, sessions_per_size=2, seed=5
    )

    def test_negative_workers_raise_before_any_workload(self, monkeypatch):
        built = []
        monkeypatch.setattr(sweeps, "build_workload", lambda *args: built.append(args))
        with pytest.raises(ParallelError):
            sweep_parameter("epoch_size_s", [60.0], scale=self._SCALE, workers=-1)
        assert built == []

    @pytest.mark.parametrize("workers", [0, 2])
    def test_invalid_point_raises_configuration_error(self, workers):
        with pytest.raises(ConfigurationError):
            sweep_parameter("replication_factor", [0], scale=self._SCALE, workers=workers)
