"""Differential tests: the replay's fast paths against the code they replaced.

* ``StepSeries`` reads time-above-threshold from per-threshold prefix
  integrals.  :func:`walk_integral` is the window walk it replaced, kept
  here as the oracle.
* ``EventQueue`` orders ``(time, sequence)`` heap tuples.  The oracle is a
  sorted list of live entries.
"""

from __future__ import annotations

import bisect
import itertools
import sys
from typing import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.events import Event, EventQueue
from repro.simulation.metrics import StepSeries


def walk_integral(
    series: StepSeries, start: float, end: float, f: Callable[[float], float]
) -> float:
    """Integral of ``f(value)`` over ``[start, end)``, segment by segment.

    This is the walk ``StepSeries`` ran on every RT-TTP read before it
    kept prefix integrals: O(change points in the window) per call.
    """
    times, values = (list(c) for c in zip(*series.changes()))
    total = 0.0
    idx = max(bisect.bisect_right(times, start) - 1, 0)
    t = start
    while t < end:
        seg_end = times[idx + 1] if idx + 1 < len(times) else end
        seg_end = min(seg_end, end)
        if seg_end > t:
            total += f(values[idx]) * (seg_end - t)
        t = seg_end
        idx += 1
        if idx >= len(times):
            break
    if t < end:
        total += f(values[-1]) * (end - t)
    return total


def walk_fraction_above(series: StepSeries, threshold: float, start: float, end: float) -> float:
    above = walk_integral(series, start, end, lambda v: 1.0 if v > threshold else 0.0)
    return above / (end - start)


# Steps are (gap, value).  A zero gap is a same-instant override.
_QUARTERS = st.integers(min_value=0, max_value=4 * 500).map(lambda q: q / 4)
_EXACT_STEPS = st.lists(st.tuples(_QUARTERS, st.integers(0, 6)), min_size=0, max_size=40)
_FLOAT_STEPS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5000.0, allow_nan=False)),
        st.integers(0, 6),
    ),
    min_size=0,
    max_size=40,
)


def _build(
    start_time: float, steps: list[tuple[float, int]], into: StepSeries | None = None
) -> StepSeries:
    series = into if into is not None else StepSeries(0.0, start_time)
    t = list(series.changes())[-1][0]
    for gap, value in steps:
        t += gap
        series.set(t, float(value))
    return series


def _window(
    data: st.DataObject, series: StepSeries, grid: st.SearchStrategy[float]
) -> tuple[float, float]:
    """A window that may start before the first change and end past the last."""
    first = next(iter(series.changes()))[0]
    start = first - 100.0 + data.draw(grid, label="start offset")
    return start, start + 0.25 + data.draw(grid, label="span")


class TestPrefixIntegralsMatchTheWalk:
    """On a grid of quarter seconds every sum is exact, so the two agree bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        start_time=_QUARTERS,
        before=_EXACT_STEPS,
        after=_EXACT_STEPS,
        data=st.data(),
    )
    def test_two_thresholds_before_and_after_further_sets(self, start_time, before, after, data):
        series = _build(start_time, before)
        for phase in ("before", "after"):
            # Interleave two thresholds on one series: each keeps its own prefix.
            for _ in range(3):
                start, end = _window(data, series, _QUARTERS)
                for threshold in (3, 1):
                    assert series.fraction_time_above(threshold, start, end) == (
                        walk_fraction_above(series, threshold, start, end)
                    )
                    assert series.fraction_time_at_most(threshold, start, end) == (
                        1.0 - walk_fraction_above(series, threshold, start, end)
                    )
                assert series.time_weighted_mean(start, end) == (
                    walk_integral(series, start, end, lambda v: v) / (end - start)
                )
            if phase == "before":
                _build(start_time, after, into=series)

    @settings(max_examples=50, deadline=None)
    @given(start_time=_QUARTERS, steps=_EXACT_STEPS, offset=_QUARTERS, width=_QUARTERS)
    def test_window_inside_one_segment(self, start_time, steps, offset, width):
        series = _build(start_time, steps)
        series.set(list(series.changes())[-1][0] + 1000.0, 5.0)
        # Both ends inside the final, open-ended segment.
        start = list(series.changes())[-1][0] + offset
        end = start + width + 0.25
        assert series.fraction_time_above(3, start, end) == 1.0
        assert walk_fraction_above(series, 3, start, end) == 1.0


class TestPrefixIntegralsOnArbitraryFloats:
    """On arbitrary float times the two sum in different orders.

    The prefix form subtracts two running integrals where the walk adds the
    window's segments, so the last bits can differ.  The difference in an
    integral is a rounding error in the largest time ``T`` involved: over
    120,000 random windows (seeded, times up to 4e5 s, windows from 1 ms to
    3e5 s) the largest ``|fast - slow| * length`` was 1.4 eps·T, which on
    a 1 ms window at T = 3e5 s is 3.5e-9 in the fraction.  The test asserts
    4 eps·T.  An RT-TTP window is at least a monitor interval long, so
    there the bound is far below one ulp of 1.0: on the perfbench
    ``replay`` workload all 2,304 RT-TTP samples are bit-identical, and the
    golden digests in ``tests/test_golden.py`` pin the samples.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        start_time=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        steps=_FLOAT_STEPS,
        data=st.data(),
    )
    def test_fraction_above_within_bound(self, start_time, steps, data):
        series = _build(start_time, steps)
        grid = st.one_of(
            st.floats(min_value=0.0, max_value=3e5, allow_nan=False),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        )
        last = list(series.changes())[-1][0]
        for _ in range(3):
            start, end = _window(data, series, grid)
            bound = 4 * sys.float_info.epsilon * max(abs(start), abs(end), last)
            for threshold in (3, 1):
                fast = series.fraction_time_above(threshold, start, end)
                slow = walk_fraction_above(series, threshold, start, end)
                assert abs(fast - slow) * (end - start) <= bound


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 4)),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=80,
)


class TestEventQueueMatchesSortedModel:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_pushes_cancels_and_pops(self, ops):
        """Few distinct times force FIFO ties; cancels hit live and dead handles."""
        queue = EventQueue()
        model: list[tuple[float, int]] = []  # live (time, label), kept sorted
        handles = []
        labels = itertools.count()
        for op, arg in ops:
            if op == "push":
                label = next(labels)
                event = Event(time=float(arg), callback=lambda _t: None, label=str(label))
                handles.append((queue.push(event), arg, label))
                bisect.insort(model, (float(arg), label))
            elif op == "cancel" and handles:
                # Some picks have fired or are cancelled already: no-ops.
                handle, time, label = handles[arg % len(handles)]
                queue.cancel(handle)
                if (float(time), label) in model:
                    model.remove((float(time), label))
            elif op == "pop" and model:
                time, label = model.pop(0)
                event = queue.pop()
                assert (event.time, event.label) == (time, str(label))
            assert len(queue) == len(model)
            assert queue.peek_time() == (model[0][0] if model else None)
        drained = [int(queue.pop().label) for _ in range(len(queue))]
        assert drained == [label for _, label in model]
