"""Extra-Stage Cube topology.

Stage layout for ``N = 2**n`` terminals, in traversal order from source to
destination::

    stage index 0:      the EXTRA stage, implementing cube_0
    stage index 1..n:   the Generalized Cube stages, implementing
                        cube_{n-1} ... cube_0

Each stage contains ``N/2`` two-by-two interchange boxes; the box at stage
``s`` handling line ``l`` pairs lines ``l`` and ``l ^ bit(s)``.  The extra
stage and the final cube_0 stage carry bypass multiplexers: when a stage is
*bypassed*, its boxes are forced straight (and its boxes cannot fail the
network, since the bypass path skips them).

In normal operation the extra stage is bypassed; it is enabled to route
around faults.  This module is pure structure — no simulation state.

Fault checks run on *element bitmasks*: every box and every output link
of the network owns one bit of a Python int, a fault set is the OR of
its elements' bits, and each candidate path has a precomputed mask of
the elements whose failure blocks it.  "Is this path blocked?" is then
a single ``&``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FaultKind(enum.Enum):
    BOX = "box"  #: a whole interchange box is faulty
    LINK = "link"  #: an output link of a stage is faulty


@dataclass(frozen=True)
class Fault:
    """A failed element.

    ``stage`` is a traversal index (0 = extra stage); for ``BOX`` faults
    ``line`` may be either line of the box (routing canonicalizes it to the
    lower one, see :meth:`ExtraStageCubeTopology.element_bit`); for
    ``LINK`` faults ``line`` is the stage's *output* line number.
    """

    kind: FaultKind
    stage: int
    line: int


class ExtraStageCubeTopology:
    """Static structure of an N-terminal Extra-Stage Cube network."""

    def __init__(self, n_terminals: int) -> None:
        if n_terminals < 2 or n_terminals & (n_terminals - 1):
            raise ValueError(
                f"terminal count must be a power of two >= 2, got {n_terminals}"
            )
        self.n_terminals = n_terminals
        self.n_bits = n_terminals.bit_length() - 1
        #: cube bit controlled by each traversal stage.
        self.stage_bits = [0] + list(range(self.n_bits - 1, -1, -1))
        # Element bits: box (stage, low line) is bit ``stage * N + line``,
        # output link (stage, line) is bit ``(n_stages + stage) * N + line``.
        # Blocking masks are filled on demand: per candidate path (so one
        # route on a large network does not build N² masks), and per
        # extra-stage setting as a whole ``source * N + dest`` table.
        self._path_masks: dict[tuple[int, int, bool], int] = {}
        self._mask_tables: dict[bool, list[int]] = {}

    @property
    def n_stages(self) -> int:
        """Traversal stages including the extra stage (= n + 1)."""
        return self.n_bits + 1

    def stage_bit(self, stage: int) -> int:
        """The cube dimension stage ``stage`` can exchange."""
        return self.stage_bits[stage]

    def is_bypassable(self, stage: int) -> bool:
        """Does this stage carry bypass multiplexers?

        The extra stage and the final cube_0 stage do (they implement the
        same dimension, so either can stand in for the other); a faulty
        box there blocks only *exchanged* traversals, since straight
        traversals take the bypass path around the box.
        """
        return stage == 0 or stage == self.n_stages - 1

    def box_of(self, stage: int, line: int) -> tuple[int, int]:
        """Canonical (stage, low-line) id of the box serving ``line``."""
        bit = self.stage_bit(stage)
        return (stage, line & ~(1 << bit))

    def partner(self, stage: int, line: int) -> int:
        """The other line of the box serving ``line`` at ``stage``."""
        return line ^ (1 << self.stage_bit(stage))

    def boxes(self, stage: int):
        """Iterate canonical box ids of one stage."""
        bit = self.stage_bit(stage)
        for line in range(self.n_terminals):
            if not line & (1 << bit):
                yield (stage, line)

    # ------------------------------------------------------------------
    def path_lines(self, source: int, dest: int,
                   exchanged: bool) -> tuple[int, ...]:
        """Lines of the destination-tag path ``source -> dest``.

        ``lines[j]`` is the line occupied after traversal stage ``j - 1``.
        The extra stage exchanges iff ``exchanged``; every cube stage
        after it sets its bit to the destination's.
        """
        lines = [source]
        current = source
        if exchanged:
            current ^= 1 << self.stage_bits[0]
        lines.append(current)
        for bit in self.stage_bits[1:]:
            mask = 1 << bit
            current = (current & ~mask) | (dest & mask)
            lines.append(current)
        return tuple(lines)

    def element_bit(self, fault: Fault) -> int:
        """The bit of the element ``fault`` names, or 0 if it names none.

        A box fault may name either line of its box.  A fault whose stage
        or line is not an int, or lies outside this network, names no
        element: it gets no bit, so it can neither block a path nor alias
        another element's bit.
        """
        stage, line = fault.stage, fault.line
        n = self.n_terminals
        if type(stage) is not int or type(line) is not int:
            return 0
        if not (0 <= stage < self.n_stages and 0 <= line < n):
            return 0
        if fault.kind is FaultKind.BOX:
            return 1 << (stage * n + self.box_of(stage, line)[1])
        if fault.kind is FaultKind.LINK:
            return 1 << ((self.n_stages + stage) * n + line)
        return 0

    def fault_mask(self, faults) -> int:
        """OR of :meth:`element_bit` over ``faults``."""
        mask = 0
        for fault in faults:
            mask |= self.element_bit(fault)
        return mask

    def _blocking_mask(self, lines: tuple[int, ...]) -> int:
        # A box in a bypassable stage blocks only an exchanging traversal:
        # a straight one rides the bypass multiplexer around it.  That is
        # what makes the ESC single-fault tolerant even for output-stage
        # box failures: one of the two extra-stage settings reaches the
        # final stage with bit 0 already correct, needing no exchange
        # there.  Middle-stage boxes block every traversal; links are
        # physical wires and always block.
        n = self.n_terminals
        link_base = self.n_stages * n
        mask = 0
        for stage in range(self.n_stages):
            in_line, out_line = lines[stage], lines[stage + 1]
            if in_line != out_line or not self.is_bypassable(stage):
                mask |= 1 << (stage * n + self.box_of(stage, in_line)[1])
            mask |= 1 << (link_base + stage * n + out_line)
        return mask

    def path_mask(self, source: int, dest: int, exchanged: bool) -> int:
        """Elements whose failure blocks the path of :meth:`path_lines`.

        The fault set ``faults`` blocks the path iff
        ``fault_mask(faults) & path_mask(...)`` is non-zero.  Cached per
        candidate path.
        """
        key = (source, dest, exchanged)
        mask = self._path_masks.get(key)
        if mask is None:
            mask = self._blocking_mask(self.path_lines(source, dest, exchanged))
            self._path_masks[key] = mask
        return mask

    def path_masks(self, exchanged: bool) -> list[int]:
        """:meth:`path_mask` of every pair, indexed ``source * N + dest``.

        Built once per extra-stage setting, for sweeps that test every
        pair against many fault sets.
        """
        table = self._mask_tables.get(exchanged)
        if table is None:
            n = self.n_terminals
            table = [
                self._blocking_mask(self.path_lines(source, dest, exchanged))
                for source in range(n) for dest in range(n)
            ]
            self._mask_tables[exchanged] = table
        return table

    def describe(self) -> str:
        """Short structural summary (for logs and docs)."""
        return (
            f"Extra-Stage Cube: {self.n_terminals} terminals, "
            f"{self.n_stages} stages (extra + cube"
            f"{list(range(self.n_bits - 1, -1, -1))}), "
            f"{self.n_terminals // 2} boxes/stage"
        )
