"""The Fetch Unit Controller: autonomous block enqueuer.

The MC CPU writes a control word naming a block of SIMD instructions held
in Fetch Unit RAM; the controller then moves the block into the queue word
by word while the MC proceeds with other work.  The one-deep command
register means the MC only stalls when it issues a *third* block before the
first finished transferring.

The command register is a stamped channel (:mod:`repro.sim.channel`): an
MC writes a command, or waits for the controller to drain, with an access
stamped at its bus-true time.  On the pure-event tier it is a 1-deep
:class:`~repro.sim.resources.Store` that a controller process drains word
by word, so every access waits on an event.  On the lockstep tier
(:class:`StampedController`) command ``k``, written at ``s_k``, follows
the recurrence of a tandem queue with blocking, as a circuit's bytes do:
the register accepts it at ``A_k = max(s_k, T_{k-1})``, the controller
takes it at ``T_k = max(A_k, E_{k-1})`` and stages its block from there
(:meth:`FetchUnitQueue.stage`), and ``E_k`` is the admit instant of its
last word.  An access waits on one carrier event only while its term is
unknown: a write while the register holds a command whose block before
still waits for queue space, or a drain wait while a block is staged.
A block takes the mask current when the controller takes it; MC programs
do not retarget the mask while a command is outstanding (the DSL orders
``SetMask`` behind ``WaitController``), so every word of the block
carries that mask on the event tier too.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.fetch_unit.mask import MaskRegister
from repro.fetch_unit.queue import FetchUnitQueue, QueueItem, sync_item
from repro.m68k.instructions import Instruction
from repro.sim import Environment, Store
from repro.sim.channel import NEG_INF, StampedChannel, carry


class FetchUnitController(StampedChannel):
    """Moves registered blocks from Fetch Unit RAM into the queue.

    A command is ``("block", name)`` or ``("sync", count)``; the access
    ``None`` waits until every command is transferred.  This class runs
    the pure-event tier's register and controller process.

    Parameters
    ----------
    cycles_per_word:
        Transfer rate of the controller's word mover (one queue slot per
        this many cycles).
    """

    def __init__(
        self,
        env: Environment,
        queue: FetchUnitQueue,
        mask: MaskRegister,
        cycles_per_word: int = 4,
        name: str = "fuc",
    ) -> None:
        self.env = env
        self.queue = queue
        self.mask = mask
        self.cycles_per_word = cycles_per_word
        self.name = name
        self._blocks: dict[str, list[Instruction]] = {}
        #: ``(item, transfer_cycles)`` entries by (block name, mask),
        #: built once: items are immutable, so every transfer of a
        #: block under one mask shares them.
        self._entries: dict[tuple, list[tuple[QueueItem, int]]] = {}
        self._start()

    def _start(self) -> None:
        self._commands = Store(self.env, capacity=1, name=f"cmd:{self.name}")
        self._outstanding = 0  #: commands not yet fully transferred
        self._idle_waiters: list = []
        self._process = self.env.process(self._run(),
                                         name=f"controller:{self.name}")

    # ------------------------------------------------------------------
    def register_block(self, name: str, instructions: list[Instruction]) -> None:
        """Store a straight-line block in Fetch Unit RAM."""
        if not instructions:
            raise ConfigurationError(f"block {name!r} is empty")
        for instr in instructions:
            if instr.mnemonic in ("BRA", "BSR") or instr.mnemonic.startswith("DB"):
                raise ConfigurationError(
                    f"block {name!r} contains control flow ({instr}); SIMD "
                    "blocks must be straight-line — loops run on the MC"
                )
        self._blocks[name] = list(instructions)
        self._entries.clear()

    def block_words(self, name: str) -> int:
        return sum(i.encoded_words() for i in self._blocks[name])

    def close(self) -> None:
        """Stop the controller process once its machine's run is over.

        Parked on the command register, the process is a reference cycle
        (controller, register store, waiter event, process, generator
        frame) that would keep the queue and its statistics alive until
        the cyclic collector ran."""
        self._process.generator.close()

    # -- the command register (MC side) ------------------------------------
    def settle(self, stamp: float, command):
        """The instant the access stamped ``stamp`` completes (the
        register accepts ``command``, or the controller is drained), or
        None while it must wait."""
        self._check(command)
        return None if command is not None or self._outstanding else stamp

    def park(self, stamp: float, command):
        """The event that fires when the access settle refused completes."""
        if command is None:
            ev = self.env.event(name=f"idle:{self.name}")
            self._idle_waiters.append(ev)
            return ev
        self._outstanding += 1
        return self._commands.put(command)

    def access(self, stamp: float, command):
        """Generator: the access stamped ``stamp``; returns the instant
        it completes, at which the caller resumes."""
        t = self.settle(stamp, command)
        if t is None:
            yield self.park(stamp, command)
            t = self.env.now
        return t

    def busy_at(self, t: float) -> bool:
        """The busy flag sampled at ``t``: a command is outstanding."""
        return bool(self._outstanding)

    def submit_block(self, name: str):
        """Generator (MC side): command transfer of a registered block."""
        return self.access(self.env.now, ("block", name))

    def submit_sync_words(self, count: int):
        """Generator (MC side): enqueue ``count`` bare data words (barrier)."""
        return self.access(self.env.now, ("sync", count))

    def drained(self):
        """Generator: wait until all submitted commands are transferred."""
        return self.access(self.env.now, None)

    def _check(self, command) -> None:
        kind, arg = command or (None, None)
        if kind == "block" and arg not in self._blocks:
            raise ConfigurationError(f"unknown block {arg!r}")
        if kind == "sync" and arg < 1:
            raise ConfigurationError(
                f"sync word count must be >= 1, got {arg}")

    # ------------------------------------------------------------------
    def _block_entries(self, name: str, mask: frozenset[int]) -> list:
        """The ``(item, transfer_cycles)`` entries of block ``name``
        under ``mask``, in transfer order."""
        key = (name, mask)
        entries = self._entries.get(key)
        if entries is None:
            entries = self._entries[key] = [
                (QueueItem(payload=instr, words=words, mask=mask),
                 self.cycles_per_word * words)
                for instr in self._blocks[name]
                for words in (instr.encoded_words(),)
            ]
        return entries

    def _run(self):
        """Take each command from the register and move its words one by
        one, each with the mask current as it moves."""
        while True:
            kind, arg = yield self._commands.get()
            if kind == "block":
                entries = self._block_entries(arg, self.mask.enabled)
                for k, (_, cycles) in enumerate(entries):
                    yield self.env.timeout(cycles)
                    item = self._block_entries(arg, self.mask.enabled)[k][0]
                    yield from self.queue.enqueue(item)
            else:  # sync words
                for _ in range(arg):
                    yield self.env.timeout(self.cycles_per_word)
                    yield from self.queue.enqueue(sync_item(self.mask.enabled))
            self._outstanding -= 1
            if not self._outstanding:
                waiters, self._idle_waiters = self._idle_waiters, []
                for ev in waiters:
                    ev.succeed()


class StampedController(FetchUnitController):
    """The lockstep tier's command register: its recurrence, no process."""

    def _start(self) -> None:
        self._taken = NEG_INF  #: ``T`` of the last command taken
        self._held = None  #: ``(command, A)``: accepted, not yet taken
        self._parked = None  #: ``(stamp, command, event)`` of a waiting MC
        self.queue.on_staged = self._advance

    def close(self) -> None:
        """Drop the queue's hook back here, a reference cycle."""
        self.queue.on_staged = None

    def settle(self, stamp: float, command):
        self._check(command)
        queue = self.queue
        if self._held is not None or (command is None and queue._staged):
            return None
        if command is None:
            return max(stamp, queue._stage_clock)
        accepted = max(stamp, self._taken)
        self._held = (command, accepted)
        if not queue._staged:
            self._take()
        return accepted

    def park(self, stamp: float, command):
        ev = self.env.event(name=f"cmd:{self.name}")
        self._parked = (stamp, command, ev)
        return ev

    def horizon(self) -> float:
        """The MC's charges up to its waiting access, and the store hop
        that accepted the held command, are heap events on pure events."""
        held = self._held[1] if self._held is not None else NEG_INF
        return max(held, self._parked[0]) if self._parked else held

    def busy_at(self, t: float) -> bool:
        """A command is held or staged, or its last word lands after
        ``t`` (one landing at ``t`` counts as done)."""
        queue = self.queue
        return (self._held is not None or bool(queue._staged)
                or queue._stage_clock > t)

    def _take(self) -> None:
        """Take the held command at ``T_k = max(A_k, E_{k-1})`` and stage
        its block from there."""
        (kind, arg), accepted = self._held
        self._held = None
        self._taken = max(accepted, self.queue._stage_clock)
        mask = self.mask.enabled
        entries = (self._block_entries(arg, mask) if kind == "block"
                   else [(sync_item(mask), self.cycles_per_word)] * arg)
        self.queue.stage(entries, self._taken)

    def _advance(self) -> None:
        """The queue admitted the last staged word: take the held command,
        and complete the waiting access if its term is now settled."""
        if self._held is not None:
            self._take()
        if self._parked is not None:
            stamp, command, ev = self._parked
            self._parked = None
            t = self.settle(stamp, command)
            if t is None:
                self._parked = (stamp, command, ev)
            else:
                carry(self.env, ev, t, t)
