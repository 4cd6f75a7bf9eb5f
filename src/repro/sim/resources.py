"""Shared-resource primitives built on the simulation kernel.

Three resource families model everything in the SSD:

* :class:`Resource` — a counted FIFO resource (firmware cores, die planes).
* :class:`BandwidthPipe` — a serialized byte pipe (flash channel, DRAM port,
  PCIe link); transfers queue FIFO and take ``overhead + bytes/bandwidth``.
* :class:`Store` — an unbounded FIFO message queue (command/dispatch queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Union

from .kernel import Event, Simulator
from .stats import BusyTracker

__all__ = ["Resource", "BandwidthPipe", "Store"]


class Resource:
    """A counted resource with FIFO granting.

    Usage inside a process::

        yield resource.acquire()
        ...critical section...
        resource.release()
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiting", "tracker")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: deque[Event] = deque()
        self.tracker = BusyTracker(name=name)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self) -> Union[float, Event]:
        """Take a slot; the caller must yield the returned value at once.

        A free slot is taken now and the return is ``0.0``, a zero wait:
        the process resumes (with ``None``) in the fast-lane place that a
        triggered grant event yielded here would have taken. Otherwise
        the return is an :class:`Event` that :meth:`release` triggers,
        with this resource as its value, when the slot passes to the
        caller. Either may come back, so the return cannot go into
        ``AllOf``/``AnyOf``.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self.tracker.set_busy(self.sim.now)  # _note_usage with a slot in use
            return 0.0
        ev = self.sim.event()
        self._waiting.append(ev)
        return ev

    def release(self) -> None:
        """Return one slot; grants the longest-waiting acquirer, if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() without acquire() on {self.name!r}")
        if self._waiting:
            # Slot passes directly to the next waiter; in_use is unchanged.
            self._waiting.popleft().succeed(self)
        else:
            self._in_use -= 1
            self._note_usage()

    def _note_usage(self) -> None:
        if self._in_use > 0:
            self.tracker.set_busy(self.sim.now)
        else:
            self.tracker.set_idle(self.sim.now)


class BandwidthPipe:
    """A serialized transfer medium with fixed bandwidth.

    Transfers are granted in FIFO order. Each transfer occupies the pipe for
    ``per_transfer_overhead + nbytes / bytes_per_sec`` seconds, and
    :meth:`transfer` returns the delay until it completes.

    This analytic serialization is exact for FIFO store-and-forward buses,
    which is how flash channels, the SSD DRAM port, and PCIe behave in the
    BeaconGNN model.
    """

    __slots__ = (
        "sim",
        "bytes_per_sec",
        "per_transfer_overhead",
        "name",
        "_available_at",
        "tracker",
        "bytes_moved",
        "transfer_count",
    )

    def __init__(
        self,
        sim: Simulator,
        bytes_per_sec: float,
        per_transfer_overhead: float = 0.0,
        name: str = "",
    ) -> None:
        if bytes_per_sec <= 0:
            raise ValueError("bytes_per_sec must be positive")
        self.sim = sim
        self.bytes_per_sec = float(bytes_per_sec)
        self.per_transfer_overhead = float(per_transfer_overhead)
        self.name = name
        self._available_at = 0.0
        self.tracker = BusyTracker(name=name)
        self.bytes_moved = 0
        self.transfer_count = 0

    def busy_until(self) -> float:
        """Earliest time a new transfer could start."""
        return max(self._available_at, self.sim.now)

    def transfer_time(self, nbytes: int) -> float:
        return self.per_transfer_overhead + nbytes / self.bytes_per_sec

    def transfer(self, nbytes: int) -> float:
        """Queue a transfer of ``nbytes``; returns the seconds until it ends.

        The pipe is booked now, so the caller must yield the returned
        delay at once (``yield pipe.transfer(n)``): the wait then takes
        the heap sequence number a timeout made here would have taken.
        A wait handed to another process is wrapped in ``sim.timeout``
        in the same statement.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        # busy_until, transfer_time and tracker.add_interval, inlined
        sim = self.sim
        now = sim.now
        start = self._available_at
        if now > start:
            start = now
        end = start + (self.per_transfer_overhead + nbytes / self.bytes_per_sec)
        if end < start:
            raise ValueError("interval ends before it starts")
        self._available_at = end
        self.bytes_moved += nbytes
        self.transfer_count += 1
        self.tracker.intervals.append((start, end))
        return end - now


class Store:
    """An unbounded FIFO queue connecting producer and consumer processes."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest waiting getter immediately."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if available)."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> tuple:
        return tuple(self._items)
