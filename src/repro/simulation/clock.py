"""A monotonic simulation clock.

The clock only ever moves forward; attempting to rewind raises
:class:`~repro.errors.SimulationError`.  Keeping the clock as its own object
(rather than a float on the engine) lets model components hold a reference
to it without also being able to advance time.
"""

from __future__ import annotations

import math

from ..errors import SimulationError

__all__ = ["Clock"]


class Clock:
    """Monotonically non-decreasing simulated time, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if not (0 <= start < math.inf):
            raise SimulationError(f"clock must start at a finite, non-negative time, got {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to finite ``t`` (no-op when already there)."""
        if not math.isfinite(t):
            raise SimulationError(f"clock time must be finite, got {t!r}")
        if t < self._now:
            raise SimulationError(f"time cannot move backwards: {t!r} < {self._now!r}")
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self._now})"
