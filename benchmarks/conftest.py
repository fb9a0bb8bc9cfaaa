"""Shared benchmark fixtures and scales.

Every bench runs its experiment once, prints the rows/series its figure
or table reports, and asserts the paper's qualitative outcome.  These are
experiments, not timings: ``perfbench/`` (see ``BENCHMARK.json``) is the
repo's one performance benchmark.

Scale: the paper's evaluation uses T = 5000 tenants and 30-day logs on an
EC2 cluster; the committed benches default to a laptop scale (documented
per experiment in EXPERIMENTS.md).  Set ``REPRO_BENCH_PROFILE=smoke`` for
a fast sanity pass or ``REPRO_BENCH_PROFILE=large`` to push closer to the
paper's scale.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.sweeps import DEFAULT_SCALE, BenchScale


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--obs",
        action="store_true",
        default=False,
        help="run the repro.obs instrumentation-overhead bench (bench_headline)",
    )


@pytest.fixture(scope="session")
def obs_mode(pytestconfig: pytest.Config) -> bool:
    """Whether the observability-overhead bench was requested."""
    return bool(pytestconfig.getoption("--obs"))


_PROFILES = {
    "smoke": BenchScale(num_tenants=150, horizon_days=7, holiday_weekdays=0, sessions_per_size=6),
    "default": DEFAULT_SCALE,
    "large": BenchScale(num_tenants=2000, horizon_days=21, holiday_weekdays=1, sessions_per_size=24),
}


def bench_profile() -> str:
    """The active profile name."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "default")
    if profile not in _PROFILES:
        raise ValueError(f"REPRO_BENCH_PROFILE must be one of {sorted(_PROFILES)}")
    return profile


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    """The bench scale for this run."""
    return _PROFILES[bench_profile()]


@pytest.fixture(scope="session")
def small_scale(scale: BenchScale) -> BenchScale:
    """A reduced scale for quadratic-cost sweeps (fine epochs, DIRECT)."""
    return BenchScale(
        num_tenants=max(100, scale.num_tenants // 2),
        horizon_days=scale.horizon_days,
        holiday_weekdays=scale.holiday_weekdays,
        sessions_per_size=scale.sessions_per_size,
        seed=scale.seed,
    )
