"""The Fetch Unit Controller: autonomous block enqueuer.

The MC CPU writes a control word naming a block of SIMD instructions held
in Fetch Unit RAM; the controller then moves the block into the queue word
by word while the MC proceeds with other work.  The one-deep command
register means the MC only stalls when it issues a *third* block before the
first finished transferring.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.fetch_unit.mask import MaskRegister
from repro.fetch_unit.queue import FetchUnitQueue, QueueItem, sync_item
from repro.m68k.instructions import Instruction
from repro.sim import Environment, Store


class FetchUnitController:
    """Moves registered blocks from Fetch Unit RAM into the queue.

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
        self._commands = Store(env, capacity=1, name=f"cmd:{name}")
        self.busy = False
        self.words_transferred = 0
        self._outstanding = 0
        self._idle_waiters: list = []
        self._process = env.process(self._run(), name=f"controller:{name}")

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

    def block_words(self, name: str) -> int:
        return sum(i.encoded_words() for i in self._blocks[name])

    @property
    def outstanding(self) -> int:
        """Commands submitted but not yet fully transferred."""
        return self._outstanding

    def close(self) -> None:
        """Stop the controller process once its machine's run is over.

        Parked on the command register, the process is a reference cycle
        (controller, register store, waiter event, process, generator
        frame) that would keep the queue and its statistics alive until
        the cyclic collector ran."""
        self._process.generator.close()

    # ------------------------------------------------------------------
    def submit_block(self, name: str):
        """Generator (MC side): command transfer of a registered block."""
        if name not in self._blocks:
            raise ConfigurationError(f"unknown block {name!r}")
        self._outstanding += 1
        yield self._commands.put(("block", name))

    def submit_sync_words(self, count: int):
        """Generator (MC side): enqueue ``count`` bare data words (barrier)."""
        if count < 1:
            raise ConfigurationError(f"sync word count must be >= 1, got {count}")
        self._outstanding += 1
        yield self._commands.put(("sync", count))

    def drained(self):
        """Generator: wait until all submitted commands are transferred."""
        while self._outstanding:
            ev = self.env.event(name=f"idle:{self.name}")
            self._idle_waiters.append(ev)
            yield ev
        return None

    # ------------------------------------------------------------------
    def _run(self):
        while True:
            kind, arg = yield self._commands.get()
            self.busy = True
            if self.queue.fast_path:
                yield from self._transfer_staged(kind, arg)
            elif kind == "block":
                for instr in self._blocks[arg]:
                    words = instr.encoded_words()
                    yield self.env.timeout(self.cycles_per_word * words)
                    item = QueueItem(
                        payload=instr, words=words, mask=self.mask.enabled
                    )
                    yield from self.queue.enqueue(item)
                    self.words_transferred += words
            else:  # sync words
                for _ in range(arg):
                    yield self.env.timeout(self.cycles_per_word)
                    yield from self.queue.enqueue(sync_item(self.mask.enabled))
                    self.words_transferred += 1
            self.busy = False
            self._outstanding -= 1
            if not self._outstanding:
                waiters, self._idle_waiters = self._idle_waiters, []
                for ev in waiters:
                    ev.succeed()

    def _transfer_staged(self, kind: str, arg):
        """Lockstep transfer: hand the whole command to the queue at once.

        The queue computes the per-item admit times analytically (see
        :meth:`FetchUnitQueue.stage_block`) instead of this process
        walking timeout + blocking-enqueue per item; one re-sync timeout
        then moves this process to the instant the last word was
        admitted, so the command-register handshake with the MC keeps
        its event-schedule timing.  The enabled mask is snapshotted at
        command receipt — MC programs do not retarget the mask while a
        transfer is in flight (the DSL orders SetMask before the
        enqueues it governs).
        """
        mask = self.mask.enabled
        if kind == "block":
            entries = []
            total = 0
            for instr in self._blocks[arg]:
                words = instr.encoded_words()
                entries.append((
                    QueueItem(payload=instr, words=words, mask=mask),
                    self.cycles_per_word * words,
                ))
                total += words
        else:  # sync words
            entries = [(sync_item(mask), self.cycles_per_word)
                       for _ in range(arg)]
            total = arg
        t_end, ev = self.queue.stage_block(entries)
        if ev is not None:
            t_end = yield ev
        delay = t_end - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.words_transferred += total
