"""Conservative local-time execution for CPU buses.

While a PE's CPU is charging purely *private* time — instruction fetches
from its own DRAM, register operations, internal cycles, local reads and
writes — it cannot affect, or be affected by, any other simulation
process.  So those charges need not round-trip through the global event
queue: :class:`LocalTimeBus` accumulates them in a per-bus local clock,
and the bus re-joins global simulated time only where it *samples*
shared state (network status, timer, halt).

A bus with ``fast_path`` enabled maintains ``true time = env.now +
_local``.  Before an operation that samples shared state, the bus
*flushes*: it yields one pooled sleep event of ``_local`` cycles, landing
at exactly the simulated time the pure-event execution would have reached
by then.  Every charge is an integral number of cycles, so the local
accumulation is exact and the flushed timestamps are bit-identical to the
pure-event path.  Operations that sample shared state after their access
charge (network status, Fetch-Unit wait flag) also issue that charge as a
real sleep, so the sample lands at the same point in the event loop as on
the pure-event path and ties at equal timestamps break the same way.

The shared touches that only exchange data do not flush: a Fetch Unit
Queue request and a network transfer-register access pass the bus-true
time (``env.now + _local``) as a *stamp*, and the queue
(:mod:`repro.sim.lockstep`) or the circuit's pipe
(:class:`repro.network.transfer.Pipe`) computes the instant the access
completes, from which the bus continues locally.  A stamp is an instant
and nothing more: the queue's statistics are defined from instants alone
(:mod:`repro.fetch_unit.queue`), so no charge needs to say when the pure
event schedule would have scheduled it.  A PE with a scheduled
fail-stop flushes before its transfer-register accesses instead.

:class:`LocalTimeBus` is the base of every CPU bus and fixes the CPU's
side of the bus protocol, so the CPU binds the same methods on every bus.
A private access is stated once per bus: the non-generator *fast twins*
(``try_read``, …) serve it on the fast path, and the generator methods
price it with the one refresh formula (:meth:`LocalTimeBus._ram_cycles`)
and charge it in the one place the tiers differ
(:meth:`LocalTimeBus.charge`).  ``REPRO_PURE_EVENTS=1`` turns the fast
path, and with it lockstep (DESIGN.md §2b), off: the reference schedule.
"""

from __future__ import annotations

import os

#: Set truthy ("1", "true", "yes", "on"), turns the fast path off.
PURE_EVENTS_ENV = "REPRO_PURE_EVENTS"

_TRUTHY = ("1", "true", "yes", "on")


def resolve_fast_path(flag: bool | None = None) -> bool:
    """Resolve a fast-path setting: explicit flag > $REPRO_PURE_EVENTS > on."""
    if flag is not None:
        return bool(flag)
    return os.environ.get(PURE_EVENTS_ENV, "").strip().lower() not in _TRUTHY


class LocalTimeBus:
    """Base of every CPU bus: a local clock and the fixed protocol.

    Subclasses call :meth:`_init_local_clock` from ``__init__``, charge
    private time with :meth:`charge` (or ``self._local += cycles`` in a
    fast twin), and ``yield from self.sync()`` immediately before
    sampling shared state, or pass ``env.now + _local`` as a stamp to a
    resource that computes when the access completes.  The PE-only parts
    of the protocol, chains and the lockstep SIMD-space fetch, are off.
    """

    chain_bounds = None  #: main-RAM range of the CPU's chains, or None

    def _init_local_clock(self, fast_path: bool | None, refresh) -> None:
        self.fast_path = resolve_fast_path(fast_path)
        self._local = 0.0  #: cycles accrued ahead of env.now
        #: DRAM refresh (period, steal); a zero steal is none.
        self._ref_period, self._ref_steal = (
            refresh.inline_constants() if refresh is not None else (1, 0))

    def _ram_cycles(self, n: int, ws: float) -> float:
        """Cost of ``n`` DRAM accesses of ``ws`` wait states at bus-true
        time, with the refresh stall of ``RefreshModel.stall_cycles`` (a
        pure function of absolute time) in closed form."""
        cycles = n * (4 + ws)
        steal = self._ref_steal
        if steal:
            phase = (self.env.now + self._local) % self._ref_period
            if phase < steal:
                cycles += steal - phase
        return cycles

    def charge(self, cycles: float):
        """Generator: charge private time, accrued in the local clock on
        the fast path, one sleep through the event queue otherwise."""
        if self.fast_path:
            self._local += cycles
            return
        yield self.env.sleep(cycles)

    def sync(self):
        """Generator: flush the local clock, re-joining global time, so
        shared state may be touched.  No event when nothing is accrued."""
        local = self._local
        if local:
            self._local = 0.0
            yield self.env.sleep(local)

    def try_queue_fetch(self, addr: int, stepper):
        """The lockstep SIMD-space fetch of the PE bus; refused here."""
        return None
