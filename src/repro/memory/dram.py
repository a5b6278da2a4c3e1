"""Dynamic-RAM refresh stall model.

The prototype's PE main memories are built from DRAM whose refresh cycles
were engineered to happen simultaneously in all PEs and mostly invisibly;
the paper notes that "some delay is still possible".  We model refresh as a
periodic bus-steal window: during ``[k*period, k*period + steal)`` the
memory is busy and an access arriving inside the window waits for the
remainder of it.

The model is deterministic (a pure function of the access time), so the
micro engine stays reproducible and the macro model can integrate the same
schedule in closed form (average stall per access =
``steal^2 / (2 * period)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.localtime import refresh_stall


@dataclass(frozen=True)
class RefreshModel:
    """Periodic refresh bus-steal.

    Parameters
    ----------
    period:
        Cycles between refresh windows.  A 128-row, 2 ms refresh at 8 MHz
        corresponds to one row every 125 µs = 125 cycles; the prototype hid
        most of this, so the *residual* visible window is configured here.
    steal:
        Cycles the memory is unavailable at the start of each period.
        ``steal = 0`` disables refresh entirely.
    """

    period: int = 125
    steal: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"refresh period must be positive, got {self.period}")
        if not 0 <= self.steal < self.period:
            raise ValueError(
                f"refresh steal must be in [0, period), got {self.steal}"
            )

    def stall_cycles(self, now: float, n_accesses: int = 1) -> float:
        """Stall suffered by an access sequence starting at time ``now``.

        Only the first access of a burst can collide (the rest follow
        contiguously, and a window cannot recur within one instruction's
        burst for realistic parameters).
        """
        if n_accesses <= 0:
            return 0.0
        return float(refresh_stall(now, self.period, self.steal))

    def inline_constants(self) -> tuple[int, int]:
        """``(period, steal)``, which the buses hoist once at construction
        and pass to :func:`~repro.sim.localtime.refresh_stall` per access
        — the same pure function of absolute time as
        :meth:`stall_cycles`, without the attribute chase.
        """
        return self.period, self.steal

    @property
    def average_stall_per_access(self) -> float:
        """Expected stall for an access at a uniformly random phase."""
        if self.steal == 0:
            return 0.0
        return (self.steal * self.steal) / (2.0 * self.period)

    @property
    def duty(self) -> float:
        """Fraction of time the memory is stolen for refresh."""
        return self.steal / self.period
