"""Event primitives for the discrete-event engine.

Events carry a fire time, a callback, a label and an optional payload; the
queue stamps each with an insertion-order sequence number, so ties break
FIFO and the simulation is deterministic.  :class:`EventQueue` is a thin
heap wrapper that supports lazy cancellation, which the MPPDB simulator
uses to reschedule query-completion events when the concurrency level on
an instance changes.

The heap holds ``(time, sequence, handle)`` tuples: sequences are unique,
so tuple comparison settles every ordering on the two numbers, in C, and
never reaches the handle.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import SimulationError

__all__ = ["Event", "ScheduledEvent", "EventQueue"]

#: Signature of an event callback: receives the firing time.
EventCallback = Callable[[float], None]


@dataclass(frozen=True, slots=True)
class Event:
    """An immutable description of something to happen at a point in time."""

    time: float
    callback: EventCallback
    label: str = ""
    payload: Any = None


class ScheduledEvent:
    """A handle on a queued :class:`Event`, for :meth:`EventQueue.cancel`.

    A handle is live until its event fires or is cancelled; cancelling a
    dead handle is a no-op.  Handles are not orderable: the queue orders
    ``(time, sequence)``.
    """

    __slots__ = ("event", "live")

    def __init__(self, event: Event) -> None:
        self.event = event
        self.live = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.live else ", dead"
        return f"ScheduledEvent(time={self.event.time}, label={self.event.label!r}{state})"


class EventQueue:
    """A deterministic priority queue of events.

    Ordering is by ``(time, insertion order)`` so simultaneous events fire
    in the order they were scheduled.  Cancellation is lazy: cancelled
    entries stay in the heap until popped, then get skipped.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> ScheduledEvent:
        """Schedule ``event`` and return a handle usable for cancellation."""
        if event.time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {event.time!r}")
        entry = ScheduledEvent(event)
        heapq.heappush(self._heap, (event.time, next(self._counter), entry))
        self._live += 1
        return entry

    def cancel(self, entry: ScheduledEvent) -> None:
        """Cancel a pushed entry; a no-op once it has fired or been cancelled."""
        if entry.live:
            entry.live = False
            self._live -= 1

    def peek_time(self) -> Optional[float]:
        """Fire time of the next live event, or ``None`` when empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Event:
        """Remove and return the next live event."""
        self._discard_cancelled()
        if not self._heap:
            raise SimulationError("pop() from an empty event queue")
        entry = heapq.heappop(self._heap)[2]
        entry.live = False
        self._live -= 1
        return entry.event

    def clear(self) -> None:
        """Drop every pending event; their handles go dead."""
        for _, _, entry in self._heap:
            entry.live = False
        self._heap.clear()
        self._live = 0

    def _discard_cancelled(self) -> None:
        heap = self._heap
        while heap and not heap[0][2].live:
            heapq.heappop(heap)
