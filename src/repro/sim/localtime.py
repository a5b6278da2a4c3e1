"""Conservative local-time execution for CPU buses.

The instruction-level engine's inner loop used to push one heap event per
bus access.  But while a PE's CPU is charging purely *private* time —
instruction fetches from its own DRAM, register operations, ``internal()``
cycles, local reads and writes — it cannot affect, or be affected by, any
other simulation process.  So those charges need not round-trip through
the global event queue at all: :class:`LocalTimeBus` accumulates them in a
per-bus local clock, and the bus re-joins global simulated time only
where it *samples* shared state (network status, timer, halt).

The synchronization invariant
-----------------------------
A bus with ``fast_path`` enabled maintains ``true time = env.now +
_local``.  Before an operation that samples shared state, the bus
*flushes*: it yields one pooled sleep event of ``_local`` cycles, landing
at exactly the simulated time the pure-event execution would have reached
by then.  Because every charge in the micro engine is an integral number
of cycles, the local accumulation is exact float arithmetic and the
flushed timestamps are bit-identical to the pure-event path.  Operations
that sample shared state after their access charge (network status,
Fetch-Unit wait flag) additionally issue the final access charge as a real
timeout, so the sampling event is scheduled at the same point in the event
loop as in the pure-event path and tie-breaking at equal timestamps is
preserved.

The shared touches that only exchange data do not flush: a Fetch Unit
Queue request and a network transfer-register access pass the bus-true
time (``env.now + _local``) as a *stamp*, and the queue
(:mod:`repro.sim.lockstep`) or the circuit's pipe
(:class:`repro.network.transfer.Pipe`) computes the instant the access
completes, from which the bus continues locally.  Only a PE with a
scheduled fail-stop flushes before its transfer-register accesses, so
no stamp of it passes the strike.

Set ``REPRO_PURE_EVENTS=1`` to disable the fast path globally and push
every charge through the event queue (the reference behaviour that the
equivalence suite compares against).

:class:`LocalTimeBus` is the base of the fast engine tier, not a tier of
its own: with the fast path on, the Fetch Unit rendezvous runs in
lockstep and network transfers settle on stamped pipes, both as the
max-plus recurrences stated in DESIGN.md §2b.
"""

from __future__ import annotations

import os

#: Environment variable that disables the fast path (local-time clocks and
#: the lockstep rendezvous) when set to a truthy value ("1", "true", "yes",
#: "on").
PURE_EVENTS_ENV = "REPRO_PURE_EVENTS"

_TRUTHY = ("1", "true", "yes", "on")


def resolve_fast_path(flag: bool | None = None) -> bool:
    """Resolve a fast-path setting: explicit flag > $REPRO_PURE_EVENTS > on."""
    if flag is not None:
        return bool(flag)
    return os.environ.get(PURE_EVENTS_ENV, "").strip().lower() not in _TRUTHY


class LocalTimeBus:
    """Mixin giving a CPU bus a conservative local clock.

    Subclasses call :meth:`_init_local_clock` from ``__init__`` and then:

    * charge private time with ``self._local += cycles`` (guarded by
      ``self.fast_path``) instead of yielding a timeout;
    * ``yield from self.sync()`` immediately before sampling shared
      state, or pass ``now`` as a stamp to a resource that computes
      when the access completes;
    * read the bus-true current time from :attr:`now` (never ``env.now``
      directly while the local clock may be ahead).
    """

    def _init_local_clock(self, fast_path: bool | None) -> None:
        self.fast_path = resolve_fast_path(fast_path)
        self._local = 0.0  #: cycles accrued ahead of env.now
        #: Duration of the most recent charge.  On the pure-event path
        #: every charge is its own heap event, scheduled at the charge's
        #: *start*; the lockstep tier needs that schedule instant
        #: (``bus-true now - _lc``) to replay the heap's same-timestamp
        #: ordering for rendezvous arrivals (see FetchUnitQueue
        #: ``_settle_admits``).
        self._lc = 0.0

    @property
    def now(self) -> float:
        """Bus-true simulated time: ``env.now`` plus the unflushed local
        clock.  Equals ``env.now`` exactly on the pure-event path."""
        return self.env.now + self._local

    def try_charge(self, cycles: float) -> bool:
        """Charge pure execution time locally if the fast path is on.

        Returns True when the charge was absorbed into the local clock;
        False when the caller must fall back to yielding
        ``bus.internal(cycles)`` through the event queue.
        """
        if self.fast_path:
            self._local += cycles
            self._lc = cycles
            return True
        return False

    def sync(self):
        """Generator: flush the local clock, re-joining global time.

        After this, ``env.now == self.now`` and shared state may be
        touched.  A no-op (no event) when nothing is accrued.
        """
        local = self._local
        if local:
            self._local = 0.0
            yield self.env.sleep(local)
        return None
