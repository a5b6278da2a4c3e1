"""Synchronization resources built on the event kernel.

* :class:`Store` — a bounded FIFO buffer (models the Fetch Unit
  controller's command register and, on the pure-event tier, the 1-deep
  network transfer registers).
"""

from __future__ import annotations

from collections import deque
from typing import Any

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
