"""Wall-clock profiling hooks for the optimization hot paths.

Unlike everything else in :mod:`repro.obs` — which runs on the simulated
clock — the profiler measures *real* elapsed time: how long the packing
solvers (``two_step``, ``ffd``, ``direct``, ``exact``) and the Algorithm 1
routing path take on the hardware running the reproduction.  That is the
signal a perf PR needs to prove itself against ROADMAP's "fast as the
hardware allows".

The global :data:`PROFILER` starts disabled; a disabled profiler costs one
attribute load and a branch per instrumented call, so steady-state
benchmarks are unaffected.  Enable it (or use :meth:`ProfileRegistry.
capture`) around the region of interest and read :meth:`ProfileRegistry.
snapshot`.

Wall-clock readings never feed back into replay decisions, so THR001's
determinism guarantee is untouched: two replays of the same scenario make
identical simulated-time observations regardless of profiling.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, ParamSpec, TypeVar

__all__ = ["ProfileEntry", "ProfileRegistry", "PROFILER", "profiled"]

_P = ParamSpec("_P")
_T = TypeVar("_T")


@dataclass
class ProfileEntry:
    """Accumulated calls and wall-clock seconds for one profiled name."""

    calls: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON shape used in ``summary.json``."""
        return {"calls": float(self.calls), "wall_s": self.wall_s}


class ProfileRegistry:
    """Call counters and wall timers keyed by dotted site name."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._entries: dict[str, ProfileEntry] = {}

    def enable(self) -> None:
        """Start accumulating."""
        self.enabled = True

    def disable(self) -> None:
        """Stop accumulating (entries are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated entries."""
        self._entries.clear()

    def record(self, name: str, seconds: float, calls: int = 1) -> None:
        """Accumulate one timed call (no-op while disabled)."""
        if not self.enabled:
            return
        entry = self._entries.get(name)
        if entry is None:
            entry = ProfileEntry()
            self._entries[name] = entry
        entry.calls += calls
        entry.wall_s += seconds

    def snapshot(self) -> dict[str, ProfileEntry]:
        """Entries accumulated so far (copies)."""
        return {
            name: ProfileEntry(calls=e.calls, wall_s=e.wall_s)
            for name, e in sorted(self._entries.items())
        }

    @contextmanager
    def capture(self) -> Iterator["ProfileRegistry"]:
        """Enable for the duration of a ``with`` block, restoring after."""
        previous = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous

    @contextmanager
    def time_block(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name`` (cheap no-op while disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()  # thrifty: noqa[THR001] measurement metadata
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)  # thrifty: noqa[THR001] measurement metadata


#: Process-global profiler used by the :func:`profiled` decorator.
PROFILER = ProfileRegistry()


def profiled(name: str) -> Callable[[Callable[_P, _T]], Callable[_P, _T]]:
    """Decorator: count and wall-time calls under ``name`` in :data:`PROFILER`.

    While the profiler is disabled the wrapper devolves to one attribute
    check before delegating, keeping instrumented hot paths benchmark-safe.
    """

    def decorate(func: Callable[_P, _T]) -> Callable[_P, _T]:
        def wrapper(*args: _P.args, **kwargs: _P.kwargs) -> _T:
            if not PROFILER.enabled:
                return func(*args, **kwargs)
            start = time.perf_counter()  # thrifty: noqa[THR001] measurement metadata
            try:
                return func(*args, **kwargs)
            finally:
                PROFILER.record(name, time.perf_counter() - start)  # thrifty: noqa[THR001] measurement metadata

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__module__ = func.__module__
        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    return decorate
