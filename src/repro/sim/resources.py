"""Synchronization resources built on the event kernel.

* :class:`Store` — a bounded FIFO buffer (models the Fetch Unit Queue and
  the network transfer registers, which are 1-deep stores).
* :class:`Gate` — a level-triggered condition processes can wait on.
* :class:`Rendezvous` — an auto-resetting barrier for a fixed party count
  (models "release the SIMD instruction only after *all* enabled PEs have
  issued a request").
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event


class Store:
    """Bounded FIFO of items with blocking ``put`` and ``get`` events.

    ``capacity`` may be ``None`` for an unbounded store.  Waiters are served
    in FIFO order; an item put into an empty store with pending getters goes
    to the oldest getter directly.
    """

    def __init__(
        self, env: Environment, capacity: int | None = None, name: str = ""
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"store capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.items

    def put(self, item: Any) -> Event:
        """Return an event that succeeds once ``item`` is in the store."""
        ev = self.env.event(name=f"put:{self.name}")
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def get(self) -> Event:
        """Return an event that succeeds with the oldest item."""
        ev = self.env.event(name=f"get:{self.name}")
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self.is_full and not self._getters:
            return False
        self.put(item)
        return True

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and not self.is_full:
                ev, item = self._putters.popleft()
                self.items.append(item)
                ev.succeed()
                progressed = True
            while self._getters and self.items:
                ev = self._getters.popleft()
                ev.succeed(self.items.popleft())
                progressed = True


class Gate:
    """A level-triggered condition: ``wait()`` passes only while open."""

    def __init__(self, env: Environment, is_open: bool = False, name: str = "") -> None:
        self.env = env
        self.name = name
        self._open = is_open
        self._waiters: deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        """Open the gate, releasing all current waiters."""
        self._open = True
        while self._waiters:
            self._waiters.popleft().succeed()

    def close(self) -> None:
        self._open = False

    def wait(self) -> Event:
        """Return an event that succeeds immediately if open, else on open."""
        ev = self.env.event(name=f"gate:{self.name}")
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev


class Rendezvous:
    """Auto-resetting barrier for ``parties`` participants.

    Each participant calls :meth:`arrive` and waits on the returned event.
    When the last of ``parties`` participants arrives, every waiter is
    released with the rendezvous generation number, and the barrier resets
    for the next round.  ``parties`` may be changed between rounds (the PASM
    Fetch Unit mask register does exactly this when PEs are enabled or
    disabled).
    """

    def __init__(self, env: Environment, parties: int, name: str = "") -> None:
        if parties < 1:
            raise ValueError(f"rendezvous needs >= 1 party, got {parties}")
        self.env = env
        self.name = name
        self._parties = parties
        self._waiting: list[Event] = []
        self.generation = 0

    @property
    def parties(self) -> int:
        return self._parties

    @parties.setter
    def parties(self, value: int) -> None:
        if value < 1:
            raise ValueError(f"rendezvous needs >= 1 party, got {value}")
        if self._waiting and value <= len(self._waiting):
            raise SimulationError(
                "cannot shrink rendezvous below the number of already-"
                f"arrived parties ({len(self._waiting)})"
            )
        self._parties = value

    @property
    def n_waiting(self) -> int:
        return len(self._waiting)

    def arrive(self) -> Event:
        """Register arrival; the event fires when the round completes."""
        ev = self.env.event(name=f"rendezvous:{self.name}")
        self._waiting.append(ev)
        if len(self._waiting) >= self._parties:
            waiters = self._waiting
            self._waiting = []
            gen = self.generation
            self.generation += 1
            for w in waiters:
                w.succeed(gen)
        return ev
