"""Stamped channels: shared registers a bus meets with a stamp, not a flush.

On the fast tier a bus passes its bus-true time as a *stamp* to a
register that only exchanges data, and the register computes when the
access completes (a max-plus recurrence; Husainov & Kudryashova,
PAPERS.md).  Three implement this interface: a circuit's transfer
registers (:class:`repro.network.transfer.Pipe`), the network status
register (:class:`repro.network.transfer.StatusRegister`) and the Fetch
Unit's command register (:mod:`repro.fetch_unit.controller`).  A bus
holds one branch for all of them: ``settle``, and ``park`` when that
refuses.
"""

from __future__ import annotations

NEG_INF = float("-inf")


class StampedChannel:
    """A register that completes accesses from their stamps."""

    __slots__ = ()

    def settle(self, stamp: float, *args):
        """Complete the access stamped ``stamp``: its completion instant
        (with its value), or None, nothing registered, while it waits on
        a stamp not yet made."""
        raise NotImplementedError

    def park(self, stamp: float, *args):
        """Register an access ``settle`` refused; return the one event
        that fires, as a carrier, at the instant it completes."""
        raise NotImplementedError

    def horizon(self) -> float:
        """For the fail-stop watchdog: the latest instant the pure-event
        tier's heap reaches for this channel, -inf if none."""
        return NEG_INF


def carry(env, ev, t: float, value) -> None:
    """Fire parked ``ev`` with ``value`` at ``t`` (>= env.now)."""
    ev._value = value
    env.schedule(ev, t - env.now)
