"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence: processes waiting on it are
resumed (in FIFO order) when it succeeds or fails.  :class:`Timeout` is an
event scheduled to succeed after a fixed delay.  :class:`AllOf` /
:class:`AnyOf` compose events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.environment import Environment

PENDING = object()


class Event:
    """One-shot event that processes can wait on by yielding it.

    Attributes
    ----------
    value:
        The value passed to :meth:`succeed`; delivered as the result of the
        ``yield`` expression in every waiting process.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "name")

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.name = name
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, scheduling waiter resumption now."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._ok = True
        self.env.schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exc
        self._ok = False
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """Event that succeeds ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env, name=f"timeout({delay})")
        self.delay = delay
        self._value = value
        self._ok = True
        env.schedule(self, delay=delay)

    # Timeouts are triggered at construction; succeed/fail are invalid.
    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger automatically")

    def fail(self, exc: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger automatically")


class SleepEvent(Event):
    """A recyclable pure delay, created via :meth:`Environment.sleep`.

    Semantically a :class:`Timeout` with ``value=None``, but instances are
    pooled by the environment: after the event is processed, :meth:`reset`
    re-arms the same object for the next ``sleep`` call instead of
    allocating a new one.  This makes the kernel's hottest allocation
    (pure time charges from the instruction-level engine) churn-free.

    Contract: a sleep event has exactly one logical waiter and must not be
    stored past the ``yield`` that waits on it (no AllOf/AnyOf composition,
    no ``run(until=...)`` target) — after it fires, the object may already
    represent a *different* pending delay.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay}")
        super().__init__(env, name="sleep")
        self.delay = delay
        self._value = None
        self._ok = True
        env.schedule(self, delay=delay)

    def reset(self, env: "Environment", delay: float) -> None:
        """Re-arm a processed instance in ``env`` for a new delay (pool
        reuse; the pool keeps instances without their environment)."""
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay}")
        self.env = env
        self.delay = delay
        self.callbacks = []
        self._value = None
        self._ok = True
        self.env.schedule(self, delay=delay)

    # Like Timeout: triggered from construction; succeed/fail are invalid.
    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Sleep events trigger automatically")

    def fail(self, exc: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Sleep events trigger automatically")


class _Condition(Event):
    """Base for AllOf/AnyOf composition."""

    __slots__ = ("events", "_n_done")

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env, name=type(self).__name__)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            # An empty condition is immediately satisfied.
            self._value = []
            self._ok = True
            env.schedule(self)
            return
        for ev in self.events:
            # A Timeout is "triggered" (its value is fixed) from creation,
            # but it *occurs* only when processed; wait on processing.
            if ev.processed:
                self._on_child(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._on_child)

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every child event has succeeded.

    The value is the list of child values in construction order.  A child
    failure fails the condition immediately.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Succeeds as soon as any child succeeds (value = that child's value)."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed(ev.value)
