"""Simulation environment: the event queue and process machinery.

Time is a monotonically non-decreasing float; in this library it always
denotes *CPU clock cycles* of the 8 MHz prototype (so 1 unit = 125 ns).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import Event, SleepEvent, Timeout

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Upper bound on the per-environment sleep-event free list.  One entry per
#: concurrently sleeping process is enough; the cap only guards against a
#: pathological workload parking thousands of sleeps at once.
_SLEEP_POOL_MAX = 256


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an :class:`Event` that succeeds with the generator's
    return value when it finishes, so processes can wait on each other by
    yielding the :class:`Process` object.
    """

    __slots__ = ("generator",)

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # Bootstrap: resume the generator at the current time.
        bootstrap = Event(env, name=f"start:{self.name}")
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value (or exception) of ``trigger``."""
        self.env._active_process = self
        try:
            if trigger.ok:
                target = self.generator.send(trigger.value)
            else:
                target = self.generator.throw(trigger.value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # The failure is delivered to processes waiting on this one; if
            # nobody ever waits, Environment.step raises it (see step()).
            self.env._active_process = None
            self.fail(exc)
            return
        finally:
            self.env._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        if target.callbacks is None:
            # Event already processed: resume immediately via a fresh event.
            relay = Event(self.env, name="relay")
            relay.callbacks.append(self._resume)
            if target.ok:
                relay.succeed(target.value)
            else:
                relay.fail(target.value)
        else:
            target.callbacks.append(self._resume)

    def interrupt(self, exc: BaseException | None = None) -> None:
        """Throw an exception into the process at the current time.

        A process that finishes at this instant, before the interrupt is
        delivered, is left finished."""
        kicker = Event(self.env, name=f"interrupt:{self.name}")
        kicker.callbacks.append(self._deliver_interrupt)
        kicker.fail(exc or SimulationError(f"process {self.name!r} interrupted"))

    def _deliver_interrupt(self, kicker: Event) -> None:
        if not self.triggered:
            self._resume(kicker)


class Environment:
    """Discrete-event simulation environment.

    Example
    -------
    >>> env = Environment()
    >>> def proc():
    ...     yield env.timeout(10)
    ...     return env.now
    >>> p = env.process(proc())
    >>> env.run()
    >>> p.value
    10
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulation time in CPU clock cycles.  A plain attribute
        #: (read ~4× per simulated instruction — property overhead counts);
        #: only the kernel itself may assign it.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = count()
        self._active_process: Process | None = None
        self._sleep_pool: list[SleepEvent] = []
        #: Processes resumed synchronously, one inside another, by a
        #: stamped channel (:mod:`repro.sim.channel`), which bounds it.
        self.resume_depth = 0
        # -- kernel counters (see repro.perf) ---------------------------
        self.events_scheduled = 0  #: heap pushes over the run
        self.events_processed = 0  #: heap pops over the run
        self.peak_heap = 0  #: high-water mark of the pending-event heap
        self.sleep_reuses = 0  #: sleeps served from the free list

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- factory helpers -------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> SleepEvent:
        """A pure delay event, recycled through a free list.

        Equivalent to ``timeout(delay)`` for the common single-waiter
        pattern ``yield env.sleep(d)``, without allocating a fresh event
        per charge.  The returned object is re-armed for a *different*
        delay after it is processed — never store it, compose it into
        AllOf/AnyOf, or pass it to ``run(until=...)``.
        """
        pool = self._sleep_pool
        if pool:
            ev = pool.pop()
            ev.reset(self, delay)
            self.sleep_reuses += 1
            return ev
        return SleepEvent(self, delay)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue ``event`` for callback processing after ``delay``."""
        queue = self._queue
        _heappush(queue, (self.now + delay, next(self._seq), event))
        self.events_scheduled += 1
        if len(queue) > self.peak_heap:
            self.peak_heap = len(queue)

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise DeadlockError("event queue is empty")
        when, _, event = _heappop(self._queue)
        if when < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(event)
        elif not event.ok:
            # A failure nobody is waiting on must not vanish silently.
            raise event.value
        if type(event) is SleepEvent and len(self._sleep_pool) < _SLEEP_POOL_MAX:
            # A pooled sleep drops its environment, so the pool holds no
            # cycle back to it: reference counting frees a finished run.
            event.env = None
            self._sleep_pool.append(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.  A number — run until
            simulated time reaches it.  An :class:`Event` — run until it
            triggers; its value is returned (its exception raised on
            failure).
        """
        if isinstance(until, Event):
            stop = until
            # Wait until the event is *processed*, not merely triggered: a
            # Timeout carries its value from creation but occurs at its
            # scheduled time.
            while not stop.processed:
                if not self._queue:
                    raise DeadlockError(
                        f"simulation deadlocked waiting for {stop!r} at t={self.now}"
                    )
                self.step()
            if not stop.ok:
                raise stop.value
            return stop.value
        if until is not None:
            horizon = float(until)
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
            self.now = max(self.now, horizon)
            return None
        while self._queue:
            self.step()
        return None

    def withdraw(self, callback) -> None:
        """Drop the events due after now that would call ``callback``:
        what they stand for no longer happens (``process._resume``: the
        process was killed).  Events due now stay; they precede the
        caller's own work."""
        now = self.now
        queue = self._queue
        keep = [entry for entry in queue
                if entry[0] <= now or not entry[2].callbacks
                or callback not in entry[2].callbacks]
        if len(keep) < len(queue):
            heapq.heapify(keep)
            queue[:] = keep

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when queue is empty)."""
        return self._queue[0][0] if self._queue else float("inf")
