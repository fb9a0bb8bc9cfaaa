"""Event queue tests: determinism, ordering, cancellation."""

import pytest

from repro.errors import SimulationError
from repro.simulation.events import Event, EventQueue


def _noop(_t: float) -> None:
    pass


class TestEventQueue:
    def test_empty_queue(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue
        assert queue.peek_time() is None

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_time_ordering(self):
        queue = EventQueue()
        for t in (5.0, 1.0, 3.0):
            queue.push(Event(time=t, callback=_noop, label=str(t)))
        assert [queue.pop().time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_fifo_tie_break(self):
        queue = EventQueue()
        for name in ("first", "second", "third"):
            queue.push(Event(time=1.0, callback=_noop, label=name))
        assert [queue.pop().label for _ in range(3)] == ["first", "second", "third"]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(Event(time=-1.0, callback=_noop))

    def test_cancellation(self):
        queue = EventQueue()
        keep = queue.push(Event(time=1.0, callback=_noop, label="keep"))
        drop = queue.push(Event(time=0.5, callback=_noop, label="drop"))
        queue.cancel(drop)
        assert len(queue) == 1
        assert queue.peek_time() == 1.0
        assert queue.pop().label == "keep"
        assert keep.event.label == "keep"

    def test_cancel_idempotent(self):
        queue = EventQueue()
        entry = queue.push(Event(time=1.0, callback=_noop))
        queue.cancel(entry)
        queue.cancel(entry)
        assert len(queue) == 0

    def test_cancel_after_pop_is_a_no_op(self):
        queue = EventQueue()
        fired = queue.push(Event(time=1.0, callback=_noop))
        queue.push(Event(time=2.0, callback=_noop))
        queue.pop()
        queue.cancel(fired)
        assert len(queue) == 1
        assert queue.peek_time() == 2.0

    def test_cancel_after_clear_is_a_no_op(self):
        queue = EventQueue()
        dropped = queue.push(Event(time=1.0, callback=_noop))
        queue.clear()
        queue.cancel(dropped)
        assert len(queue) == 0
        queue.push(Event(time=2.0, callback=_noop))
        assert len(queue) == 1

    def test_handles_are_not_orderable(self):
        queue = EventQueue()
        a = queue.push(Event(time=1.0, callback=_noop))
        b = queue.push(Event(time=2.0, callback=_noop))
        with pytest.raises(TypeError):
            sorted([b, a])

    def test_clear(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, callback=_noop))
        queue.push(Event(time=2.0, callback=_noop))
        queue.clear()
        assert not queue
        assert queue.peek_time() is None

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        entries = [queue.push(Event(time=float(i), callback=_noop)) for i in range(5)]
        queue.cancel(entries[2])
        assert len(queue) == 4
        queue.pop()
        assert len(queue) == 3
