"""A simple flat-memory bus for running a single CPU outside the full machine.

Used by unit tests, the serial (SISD) baseline, and the Table 1 raw-MIPS
measurements.  The full PASM PE bus (with SIMD instruction space, network
transfer registers, and DRAM refresh) lives in :mod:`repro.pe`.

Every 16-bit access costs ``4 + wait_states`` cycles; long accesses are two
16-bit accesses, byte accesses one.  Instruction-stream and operand accesses
can be given different wait states — the knob the paper's SIMD fetch
advantage turns.
"""

from __future__ import annotations

from repro.errors import AddressError, BusError
from repro.m68k.assembler import AssembledProgram
from repro.m68k.instructions import Instruction
from repro.sim.localtime import LocalTimeBus


def access_count(size: int) -> int:
    """Number of 16-bit bus accesses for an operand of ``size`` bytes."""
    return 2 if size == 4 else 1


class SimpleBus(LocalTimeBus):
    """Flat RAM + instruction overlay with per-class wait states.

    Parameters
    ----------
    env:
        Simulation environment.
    ram_size:
        Bytes of RAM starting at address 0.
    ws_stream / ws_data:
        Extra cycles per instruction-stream / operand access.
    refresh:
        Optional :class:`repro.memory.dram.RefreshModel`; adds DRAM refresh
        stalls to every RAM access.
    fast_path:
        Conservative local-time execution (see
        :mod:`repro.sim.localtime`).  A SimpleBus has no shared resources,
        so with the fast path on, *every* charge accrues locally and the
        CPU flushes once at halt.  ``None`` consults ``$REPRO_PURE_EVENTS``
        (default: on).
    """

    def __init__(
        self,
        env,
        ram_size: int = 0x2_0000,
        ws_stream: int = 0,
        ws_data: int = 0,
        refresh=None,
        fast_path: bool | None = None,
    ) -> None:
        self.env = env
        self.memory = bytearray(ram_size)
        self.instructions: dict[int, Instruction] = {}
        self.ws_stream = ws_stream
        self.ws_data = ws_data
        self.refresh = refresh
        self.data_accesses = 0
        self._init_local_clock(fast_path, refresh)

    # ------------------------------------------------------------------
    def load_program(self, program: AssembledProgram) -> None:
        """Install a program's instructions and initialized data."""
        self.instructions.update(program.instructions)
        for addr, chunk in program.data:
            if addr + len(chunk) > len(self.memory):
                raise AddressError(
                    f"data chunk at {addr:#x} exceeds RAM size {len(self.memory):#x}"
                )
            self.memory[addr : addr + len(chunk)] = chunk

    # -- non-generator fast ops (fast path only; None/False = fall back
    # to the generator protocol).  A SimpleBus has no shared resources,
    # so every access succeeds locally when the fast path is on. --------
    def try_fetch_instruction(self, addr: int):
        if not self.fast_path:
            return None
        instr = self.instructions.get(addr)
        if instr is None:
            return None  # generator path raises the BusError
        n = instr.encoded_words()
        self._local += self._ram_cycles(n, self.ws_stream)
        return instr

    def try_fetch_stream_words(self, addr: int, n: int) -> bool:
        if not self.fast_path:
            return False
        self._local += self._ram_cycles(n, self.ws_stream)
        return True

    def try_read(self, addr: int, size: int):
        if not self.fast_path:
            return None
        n = access_count(size)
        self.data_accesses += n
        self._local += self._ram_cycles(n, self.ws_data)
        return self.peek(addr, size)

    def try_write(self, addr: int, value: int, size: int) -> bool:
        if not self.fast_path:
            return False
        n = access_count(size)
        self.data_accesses += n
        self._local += self._ram_cycles(n, self.ws_data)
        self.poke(addr, value, size)
        return True

    # -- generator protocol ---------------------------------------------
    def fetch_instruction(self, addr: int):
        """Generator: return the Instruction at ``addr``, charging fetches."""
        try:
            instr = self.instructions[addr]
        except KeyError:
            raise BusError(f"no instruction at {addr:#x}") from None
        n = instr.encoded_words()
        yield from self.charge(self._ram_cycles(n, self.ws_stream))
        return instr

    def fetch_stream_words(self, addr: int, n: int):
        """Generator: charge ``n`` extra instruction-stream accesses."""
        yield from self.charge(self._ram_cycles(n, self.ws_stream))

    def read(self, addr: int, size: int):
        """Generator: read ``size`` bytes big-endian, charging access time."""
        n = access_count(size)
        self.data_accesses += n
        yield from self.charge(self._ram_cycles(n, self.ws_data))
        return self.peek(addr, size)

    def write(self, addr: int, value: int, size: int):
        """Generator: write ``size`` bytes big-endian, charging access time."""
        n = access_count(size)
        self.data_accesses += n
        yield from self.charge(self._ram_cycles(n, self.ws_data))
        self.poke(addr, value, size)

    # -- zero-time debug access ----------------------------------------
    def peek(self, addr: int, size: int) -> int:
        if size == 2 and addr % 2:
            raise AddressError(f"misaligned word read at {addr:#x}")
        if addr + size > len(self.memory):
            raise BusError(f"read past end of RAM at {addr:#x}")
        return int.from_bytes(self.memory[addr : addr + size], "big")

    def poke(self, addr: int, value: int, size: int) -> None:
        if size == 2 and addr % 2:
            raise AddressError(f"misaligned word write at {addr:#x}")
        if addr + size > len(self.memory):
            raise BusError(f"write past end of RAM at {addr:#x}")
        self.memory[addr : addr + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "big"
        )
