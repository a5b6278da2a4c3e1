"""Micro Controllers running real MC68000 code.

The portable way to drive the Fetch Unit is the timed DSL in
:mod:`repro.mc.microcontroller`; this module provides the full-fidelity
alternative: the MC CPU is a real :class:`repro.m68k.cpu.CPU` executing an
assembled control program from its own DRAM, with the Fetch Unit mapped
into its address space:

========== =========== ====================================================
``FUMASK``  write word  set the mask register (bit *i* = i-th PE slot)
``FUCTRL``  write word  command the controller to enqueue block #value
``FUSYNC``  write word  command the controller to enqueue *value* bare
                        sync words (barrier tokens)
``FUWAIT``  read word   returns 0/1 = controller still busy; poll to drain
========== =========== ====================================================

A ``FUCTRL``/``FUSYNC`` write stalls the MC's bus while the controller's
one-deep command register is full — exactly the behaviour the DSL models
with its ``blocked_cycles`` accounting; on the fast tier both are stamped
accesses to the command register (:mod:`repro.sim.channel`).
Cross-checking the two MC implementations against each other (see
``tests/test_assembly_mc.py``) is what validates the DSL's costing.
"""

from __future__ import annotations

from repro.errors import BusError, ConfigurationError
from repro.fetch_unit import FetchUnitController, MaskRegister
from repro.m68k.assembler import AssembledProgram
from repro.m68k.bus import access_count
from repro.m68k.cpu import CPU
from repro.m68k.instructions import Instruction
from repro.machine.config import PrototypeConfig
from repro.memory.module import MemoryModule
from repro.sim.localtime import LocalTimeBus

#: MC-visible device addresses (the MC's map is independent of the PEs').
FU_MASK_ADDR = 0xE0_0000
FU_CTRL_ADDR = 0xE0_0002
FU_SYNC_ADDR = 0xE0_0004
FU_WAIT_ADDR = 0xE0_0006

#: Symbols predefined for MC control programs.
MC_DEVICE_SYMBOLS = {
    "FUMASK": FU_MASK_ADDR,
    "FUCTRL": FU_CTRL_ADDR,
    "FUSYNC": FU_SYNC_ADDR,
    "FUWAIT": FU_WAIT_ADDR,
}

#: MC main-memory size.
MC_RAM_SIZE = 0x4_0000


class MCBus(LocalTimeBus):
    """The MC CPU's bus: DRAM plus the Fetch Unit device registers.

    With ``fast_path`` enabled, DRAM traffic accrues in the local clock
    (see :mod:`repro.sim.localtime`); a command write is stamped, and the
    mask write and busy-flag read flush first.
    """

    def __init__(
        self,
        env,
        config: PrototypeConfig,
        mask: MaskRegister,
        controller: FetchUnitController,
        block_ids: dict[int, str],
        name: str = "mcbus",
        fast_path: bool | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.mask = mask
        self.controller = controller
        self.block_ids = dict(block_ids)
        self.name = name
        self.memory = MemoryModule(MC_RAM_SIZE)
        self.instructions: dict[int, Instruction] = {}
        self.device_writes = 0
        self._ws = config.ws_main
        self._init_local_clock(fast_path, config.refresh)

    def load_program(self, program: AssembledProgram) -> None:
        self.instructions.update(program.instructions)
        for addr, chunk in program.data:
            self.memory.load(addr, chunk)

    # -- CPU bus protocol ------------------------------------------------
    # Non-generator fast ops (fast path only; None/False = fall back to
    # the generator protocol).  Only DRAM traffic is private; every Fetch
    # Unit register access goes through the generator path.
    def try_fetch_instruction(self, addr: int):
        if not self.fast_path:
            return None
        instr = self.instructions.get(addr)
        if instr is None:
            return None  # generator path raises the BusError
        self._local += self._ram_cycles(instr.encoded_words(), self._ws)
        return instr

    def try_fetch_stream_words(self, addr: int, n: int) -> bool:
        if not self.fast_path:
            return False
        self._local += self._ram_cycles(n, self._ws)
        return True

    def try_read(self, addr: int, size: int):
        if not self.fast_path or addr == FU_WAIT_ADDR:
            return None
        self._local += self._ram_cycles(access_count(size), self._ws)
        return self.memory.read(addr, size)

    def try_write(self, addr: int, value: int, size: int) -> bool:
        if not self.fast_path or addr in (
            FU_MASK_ADDR, FU_CTRL_ADDR, FU_SYNC_ADDR
        ):
            return False
        self._local += self._ram_cycles(access_count(size), self._ws)
        self.memory.write(addr, value, size)
        return True

    def fetch_instruction(self, addr: int):
        try:
            instr = self.instructions[addr]
        except KeyError:
            raise BusError(f"{self.name}: no instruction at {addr:#x}") from None
        n = instr.encoded_words()
        yield from self.charge(self._ram_cycles(n, self._ws))
        return instr

    def fetch_stream_words(self, addr: int, n: int):
        yield from self.charge(self._ram_cycles(n, self._ws))

    def read(self, addr: int, size: int):
        if addr == FU_WAIT_ADDR:
            # Sampling access: flush, then charge through a real event so
            # the busy-flag sample lands at the same event-loop point as
            # on the pure-event path.
            yield from self.sync()
            yield self.env.sleep(4 + self.config.ws_device)
            return 1 if self.controller.busy_at(self.env.now) else 0
        yield from self.charge(self._ram_cycles(access_count(size), self._ws))
        return self.memory.read(addr, size)

    def write(self, addr: int, value: int, size: int):
        if addr == FU_MASK_ADDR:
            # Charge-then-act: the mask update must happen at the same
            # event-loop point as on the pure-event path.
            yield from self.sync()
            yield self.env.sleep(4 + self.config.ws_device)
            self.mask.set_from_bits(value)
            self.device_writes += 1
            return
        if addr in (FU_CTRL_ADDR, FU_SYNC_ADDR):
            if addr == FU_SYNC_ADDR:
                command = ("sync", value)
            elif value in self.block_ids:
                command = ("block", self.block_ids[value])
            else:
                raise ConfigurationError(
                    f"{self.name}: FUCTRL write names unknown block id "
                    f"{value}"
                )
            # The write completes when the command register accepts it —
            # the MC stalls while the controller is two blocks behind.
            stamp = self.env.now + self._local
            t = yield from self.controller.access(stamp, command)
            self._local = t - self.env.now
            self.device_writes += 1
            yield from self.charge(4 + self.config.ws_device)
            return
        yield from self.charge(self._ram_cycles(access_count(size), self._ws))
        self.memory.write(addr, value, size)


class AssemblyMicroController:
    """An MC whose control program is real assembled MC68000 code."""

    def __init__(
        self,
        env,
        config: PrototypeConfig,
        mask: MaskRegister,
        controller: FetchUnitController,
        block_ids: dict[int, str],
        name: str = "MCasm",
        fast_path: bool | None = None,
    ) -> None:
        self.env = env
        self.name = name
        self.bus = MCBus(env, config, mask, controller, block_ids,
                         name=f"{name}.bus", fast_path=fast_path)
        self.cpu = CPU(env, self.bus, name=name)

    def load_program(self, program: AssembledProgram) -> None:
        self.bus.load_program(program)
        self.cpu.reset(pc=program.entry, sp=MC_RAM_SIZE - 4)

    def run_process(self):
        return self.env.process(self.cpu.run(), name=self.name)
