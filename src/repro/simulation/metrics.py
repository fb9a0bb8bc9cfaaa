"""Time-series metric collection.

:class:`StepSeries` is a piecewise-constant signal changed at known times;
it holds concurrency levels and RT-TTP curves, where *time-weighted*
aggregates (fraction of time above a threshold, time-average) are the
meaningful statistics.

Those aggregates read prefix integrals kept per threshold: the integral
over ``[start, end)`` is ``A(end) - A(start)``, two bisects, whatever the
window's length.  An RT-TTP check every monitor tick therefore costs
O(log n) instead of a walk over the window's change points.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Optional

from ..errors import SimulationError

__all__ = ["StepSeries"]


class StepSeries:
    """A piecewise-constant signal; value changes take effect at set times."""

    def __init__(self, initial: float = 0.0, start_time: float = 0.0) -> None:
        self._times: list[float] = [float(start_time)]
        self._values: list[float] = [float(initial)]
        # Integrand key -> its integral from the first change to each change
        # point; key ``None`` integrates the value itself, a float ``c``
        # the indicator ``value > c``.  Extended lazily on read.
        self._prefix: dict[Optional[float], list[float]] = {}

    def set(self, time: float, value: float) -> None:
        """Change the signal value at ``time`` (non-decreasing, finite times)."""
        if not math.isfinite(time):
            raise SimulationError(f"change time must be finite, got {time!r}")
        if time < self._times[-1]:
            raise SimulationError(
                f"changes must be time-ordered: {time!r} < last {self._times[-1]!r}"
            )
        if time == self._times[-1]:
            # Same-instant update overrides the previous change.  Prefix
            # entries only read values before the last change point.
            self._values[-1] = float(value)
            return
        self._times.append(float(time))
        self._values.append(float(value))

    def increment(self, time: float, delta: float = 1.0) -> None:
        """Step the current value by ``delta`` at ``time``."""
        self.set(time, self.value_at_end() + delta)

    def value_at_end(self) -> float:
        """The most recent value."""
        return self._values[-1]

    def value_at(self, time: float) -> float:
        """Signal value at ``time`` (before the first change: the initial value)."""
        if time < self._times[0]:
            raise SimulationError(f"time {time!r} precedes the series start {self._times[0]!r}")
        idx = bisect.bisect_right(self._times, time) - 1
        return self._values[idx]

    def changes(self) -> Iterable[tuple[float, float]]:
        """Iterate the ``(time, value)`` change points."""
        return zip(self._times, self._values)

    def time_weighted_mean(self, start: float, end: float) -> float:
        """Time-average of the signal over ``[start, end)``."""
        length = self._length(start, end)
        return (self._integral(None, end) - self._integral(None, start)) / length

    def fraction_time_above(self, threshold: float, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` the signal spends strictly above ``threshold``."""
        if math.isnan(threshold):
            # NaN never equals itself, so it would add a prefix per call.
            raise SimulationError("threshold must not be NaN")
        length = self._length(start, end)
        return (self._integral(threshold, end) - self._integral(threshold, start)) / length

    def fraction_time_at_most(self, threshold: float, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` with the signal ``<= threshold``.

        This is exactly the run-time TTP of Chapter 5.1 when the signal is a
        tenant group's concurrent-active-tenant count and ``threshold = R``.
        """
        return 1.0 - self.fraction_time_above(threshold, start, end)

    def max_over(self, start: float, end: float) -> float:
        """Maximum signal value attained over ``[start, end)``."""
        if end <= start:
            raise SimulationError(f"empty window [{start!r}, {end!r})")
        lo = bisect.bisect_right(self._times, start) - 1
        hi = bisect.bisect_left(self._times, end)
        lo = max(lo, 0)
        return max(self._values[lo:hi] or [self._values[lo]])

    def _length(self, start: float, end: float) -> float:
        if end <= start:
            raise SimulationError(f"empty window [{start!r}, {end!r})")
        return end - start

    def _integral(self, key: Optional[float], t: float) -> float:
        """Integral of the ``key`` integrand from the first change point to ``t``.

        Before the first change point the initial value extends backwards,
        so ``t`` earlier than the series start gives a negative integral.
        """
        times = self._times
        values = self._values
        prefix = self._prefix.get(key)
        if prefix is None:
            prefix = self._prefix[key] = [0.0]
        total = prefix[-1]
        for i in range(len(prefix), len(times)):
            value = values[i - 1]
            if key is None:
                total += value * (times[i] - times[i - 1])
            elif value > key:
                total += times[i] - times[i - 1]
            prefix.append(total)
        idx = max(bisect.bisect_right(times, t) - 1, 0)
        value = values[idx]
        if key is None:
            return prefix[idx] + value * (t - times[idx])
        if value > key:
            return prefix[idx] + (t - times[idx])
        return prefix[idx]
