"""Micro Controller: control programs with MC68000-derived timing.

The MC CPU is also an 8 MHz MC68000 executing from its own (DRAM) memory
module.  In SIMD mode it runs all the *control flow* of the algorithm —
loops, index arithmetic, Fetch Unit commands — while the PEs execute the
broadcast data-processing instructions.  Because the Fetch Unit Queue
buffers ahead, this control time overlaps PE computation; the overlap is
the mechanism behind the paper's superlinear SIMD efficiency.

MC programs are written in a small structured DSL (:class:`SetMask`,
:class:`EnqueueBlock`, :class:`EnqueueSync`, :class:`Loop`) rather than a
second assembly language.  *Timing stays honest*: every DSL operation is
costed as the MC68000 instruction sequence it stands for, evaluated with
the same timing tables the PEs use (see :class:`MCCostModel`), including
the MC's own memory wait states and refresh.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fetch_unit.controller import FetchUnitController
from repro.fetch_unit.mask import MaskRegister
from repro.m68k.addressing import absl, dreg, imm
from repro.m68k.instructions import Instruction, Size
from repro.m68k.timing import instruction_timing
from repro.machine.config import PrototypeConfig


# ---------------------------------------------------------------------------
# DSL operations
@dataclass(frozen=True)
class MCOp:
    """Base class for MC control operations."""


@dataclass(frozen=True)
class SetMask(MCOp):
    """Write the Fetch Unit mask register (enable a set of PE slots)."""

    slots: tuple[int, ...]


@dataclass(frozen=True)
class EnqueueBlock(MCOp):
    """Command the Fetch Unit Controller to enqueue a registered block."""

    block: str


@dataclass(frozen=True)
class EnqueueSync(MCOp):
    """Pre-enqueue bare synchronization words (barrier tokens)."""

    count: int


@dataclass(frozen=True)
class Loop(MCOp):
    """A counted loop executed on the MC (DBRA-style).

    ``body`` runs ``count`` times; per-iteration loop control costs the
    DBRA-taken time, the final fall-through the DBRA-expired time, and the
    counter initialization a MOVE-immediate — exactly what the equivalent
    MC68000 code costs.
    """

    count: int
    body: tuple[MCOp, ...]

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError(f"negative loop count {self.count}")


@dataclass(frozen=True)
class WaitController(MCOp):
    """Wait until the Fetch Unit Controller has drained all commands."""


# ---------------------------------------------------------------------------
class MCCostModel:
    """MC68000 cycle costs of the DSL operations.

    Each cost is derived from :func:`~repro.m68k.timing.instruction_timing`
    of the concrete instruction(s) the operation lowers to, with the MC's
    main-memory wait states applied to every access (the MC has no queue to
    fetch from — it *feeds* one).
    """

    def __init__(self, config: PrototypeConfig) -> None:
        self.config = config
        ws = config.ws_main

        def cost(instr: Instruction, **kw) -> float:
            return instruction_timing(instr, **kw).with_wait_states(ws, ws)

        # MOVE.W #imm,(xxx).L — writing a device register.
        self.device_write = cost(
            Instruction("MOVE", Size.WORD, (imm(0), absl(0)))
        )
        # MOVE.W #imm,Dn — loop counter initialization.
        self.loop_setup = cost(Instruction("MOVE", Size.WORD, (imm(0), dreg(0))))
        # DBRA taken (loop back) / expired (fall through).
        dbra = Instruction("DBRA", None, (dreg(0),), target=0)
        self.loop_back = cost(dbra, branch_taken=True)
        self.loop_exit = cost(dbra, branch_taken=False, dbcc_expired=True)

    def op_cost(self, op: MCOp) -> float:
        """MC CPU time to *issue* ``op`` (not counting blocking)."""
        if isinstance(op, SetMask):
            return self.device_write
        if isinstance(op, (EnqueueBlock, EnqueueSync)):
            return self.device_write
        if isinstance(op, WaitController):
            return 0.0
        raise ConfigurationError(f"no cost rule for {op!r}")


# ---------------------------------------------------------------------------
class MicroController:
    """One MC: interprets a control program against its Fetch Unit.

    On the lockstep tier (read from the Fetch Unit Queue) issue charges
    accrue on a local clock, and a command costs a heap event only when
    the command register makes the MC wait (:meth:`FetchUnitController
    .access`).  On the pure-event tier every charge is a timeout.
    """

    def __init__(
        self,
        env,
        config: PrototypeConfig,
        mask: MaskRegister,
        controller: FetchUnitController,
        name: str = "MC",
    ) -> None:
        self.env = env
        self.config = config
        self.mask = mask
        self.controller = controller
        self.name = name
        self.costs = MCCostModel(config)
        self._fast = controller.queue.fast_path
        self._pending = 0.0  #: lockstep: issue time accrued ahead of env.now
        self.busy_cycles = 0.0  #: MC CPU time spent issuing (≠ blocked time)
        self.blocked_cycles = 0.0  #: time stalled on the command register

    def run_program(self, ops: list[MCOp] | tuple[MCOp, ...]):
        """Generator: execute the control program."""
        yield from self._run_ops(tuple(ops))
        yield from self._flush()

    def _run_ops(self, ops: tuple[MCOp, ...]):
        for op in ops:
            if isinstance(op, Loop):
                yield from self._run_loop(op)
            elif isinstance(op, SetMask):
                yield from self._charge(self.costs.op_cost(op))
                yield from self._flush()
                self.mask.set_enabled(op.slots)
            elif isinstance(op, (EnqueueBlock, EnqueueSync)):
                yield from self._charge(self.costs.op_cost(op))
                command = (("block", op.block) if isinstance(op, EnqueueBlock)
                           else ("sync", op.count))
                self.blocked_cycles += yield from self._access(command)
            elif isinstance(op, WaitController):
                yield from self._access(None)
            else:
                raise ConfigurationError(f"unknown MC op {op!r}")

    def _run_loop(self, loop: Loop):
        if loop.count == 0:
            return
        yield from self._charge(self.costs.loop_setup)
        for i in range(loop.count):
            yield from self._run_ops(loop.body)
            last = i == loop.count - 1
            yield from self._charge(
                self.costs.loop_exit if last else self.costs.loop_back
            )

    def _access(self, command):
        """Generator: a stamped command-register access; returns the
        time it waited, from which the local clock continues."""
        stamp = self.env.now + self._pending
        t = yield from self.controller.access(stamp, command)
        self._pending = t - self.env.now
        return t - stamp

    def _charge(self, cycles: float):
        self.busy_cycles += cycles
        if self._fast:
            self._pending += cycles
            return
        yield self.env.timeout(cycles)

    def _flush(self):
        pending = self._pending
        if pending:
            self._pending = 0.0
            yield self.env.timeout(pending)
