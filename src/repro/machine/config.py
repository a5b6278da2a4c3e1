"""Machine configuration: the calibrated physical constants of the prototype.

First-principles values (the MC68000 manual, the paper's Section 3) are
defaults here; the handful of constants the paper does not publish (queue
depth, network transport latency, refresh residue) are *calibrated* by
:mod:`repro.timing_model.calibration` so the model reproduces the paper's
reported shapes, and the calibrated values are frozen into
:func:`PrototypeConfig.calibrated`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.memory.dram import RefreshModel
from repro.memory.map import MemoryMap, Region, RegionKind


@dataclass(frozen=True)
class PrototypeConfig:
    """Physical parameters of the simulated PASM prototype.

    Attributes
    ----------
    n_pes, n_mcs:
        Parallel Computation Unit size.  The prototype: N=16, Q=4 (each MC
        controls N/Q = 4 PEs; PE *p* belongs to MC *p mod Q*).
    ws_main:
        Wait states per 16-bit access to PE/MC main memory (DRAM).  The
        Fetch Unit Queue is static RAM needing "one less wait state", i.e.
        ``ws_queue = ws_main - 1`` in the prototype.
    ws_queue:
        Wait states per queue fetch access.
    ws_device:
        Wait states on memory-mapped device accesses (network registers,
        timer).
    refresh:
        Residual visible DRAM refresh (mostly hidden by the hardware).
    queue_capacity_words:
        Fetch Unit Queue depth in 16-bit words.
    controller_cycles_per_word:
        Fetch Unit Controller transfer rate from Fetch Unit RAM.
    net_byte_latency:
        Transport cycles for one byte through an established circuit.
    net_extra_stage_cycles:
        Extra transport cycles per byte when the Extra Stage is enabled
        (degraded, fault-routing operation) instead of bypassed.
    net_setup_cycles:
        One-time circuit establishment cost ("a time consuming operation",
        but incurred once per run by the algorithm's design).
    ram_size:
        Per-PE main memory size in bytes.
    """

    n_pes: int = 16
    n_mcs: int = 4
    ws_main: int = 1
    ws_queue: int = 0
    ws_device: int = 1
    # Effective cost of reading the network status register, in wait
    # states.  The prototype's MIMD programs poll this port before every
    # network access; its access time is not published and is calibrated
    # against the paper's reported MIMD efficiency: with 104 the model
    # gives MIMD ≈ 0.871 and S/MIMD ≈ 0.963 at n=256, p=4, matching the
    # paper's 87% / 96%.  See EXPERIMENTS.md for the fit.
    ws_status: int = 104
    refresh: RefreshModel = field(default_factory=lambda: RefreshModel(250, 2))
    queue_capacity_words: int = 128
    controller_cycles_per_word: int = 4
    net_byte_latency: int = 24
    # Additional transport cycles per byte when the Extra Stage is enabled
    # rather than bypassed: the byte traverses one more active interchange
    # box.  Charged by both engines in degraded (fault-routing) operation.
    net_extra_stage_cycles: int = 4
    net_setup_cycles: int = 2000
    ram_size: int = 0x8_0000  # 512 KiB
    # The SIMD space is generous because the PE's PC walks forward through
    # it while consuming broadcast instructions (the queue ignores the
    # address); 8 MiB covers every micro-engine run by a wide margin.
    simd_space_base: int = 0x40_0000
    simd_space_size: int = 0x80_0000
    net_tx_addr: int = 0xF0_0000
    net_rx_addr: int = 0xF0_0002
    net_status_addr: int = 0xF0_0004
    timer_addr: int = 0xF1_0000

    def __post_init__(self) -> None:
        if self.n_pes < 1 or self.n_mcs < 1:
            raise ConfigurationError(
                f"n_pes ({self.n_pes}) and n_mcs ({self.n_mcs}) must be >= 1"
            )
        if self.n_pes % self.n_mcs:
            raise ConfigurationError(
                f"n_pes ({self.n_pes}) must be a multiple of n_mcs ({self.n_mcs})"
            )
        if self.n_pes & (self.n_pes - 1):
            raise ConfigurationError(f"n_pes must be a power of two, {self.n_pes}")
        if self.ws_queue > self.ws_main:
            raise ConfigurationError(
                "queue cannot be slower than main memory (ws_queue > ws_main)"
            )

    @property
    def pes_per_mc(self) -> int:
        return self.n_pes // self.n_mcs

    def mc_of_pe(self, physical_pe: int) -> int:
        """The MC controlling a physical PE (PE p belongs to MC p mod Q)."""
        return physical_pe % self.n_mcs

    def pes_of_mc(self, mc: int) -> list[int]:
        return [mc + k * self.n_mcs for k in range(self.pes_per_mc)]

    def memory_map(self) -> MemoryMap:
        """The PE-visible address map."""
        return MemoryMap(
            [
                Region(RegionKind.MAIN_RAM, 0, self.ram_size, self.ws_main),
                Region(
                    RegionKind.SIMD_SPACE,
                    self.simd_space_base,
                    self.simd_space_base + self.simd_space_size,
                    self.ws_queue,
                ),
                Region(RegionKind.NET_TX, self.net_tx_addr,
                       self.net_tx_addr + 2, self.ws_device),
                Region(RegionKind.NET_RX, self.net_rx_addr,
                       self.net_rx_addr + 2, self.ws_device),
                Region(RegionKind.NET_STATUS, self.net_status_addr,
                       self.net_status_addr + 2, self.ws_status),
                Region(RegionKind.TIMER, self.timer_addr,
                       self.timer_addr + 4, self.ws_device),
            ]
        )

    def device_symbols(self) -> dict[str, int]:
        """Symbols predefined for assembly programs."""
        return {
            "NETTX": self.net_tx_addr,
            "NETRX": self.net_rx_addr,
            "NETSTAT": self.net_status_addr,
            "SIMDSPACE": self.simd_space_base,
            "TIMER": self.timer_addr,
        }

    def with_overrides(self, **kwargs) -> "PrototypeConfig":
        """A copy with some parameters replaced (for sweeps/ablations)."""
        return replace(self, **kwargs)

    @classmethod
    def calibrated(cls) -> "PrototypeConfig":
        """The configuration calibrated against the paper's reported shapes.

        See ``repro.timing_model.calibration`` and EXPERIMENTS.md for the
        fitting procedure and targets.
        """
        return cls()
