"""A plain RAM image with big-endian word access and alignment checks."""

from __future__ import annotations

import numpy as np

from repro.errors import AddressError


class MemoryModule:
    """Byte-addressable RAM of a fixed size starting at a base address.

    Values are stored big-endian (MC68000 byte order).  This is the storage
    behind PE and MC main memories; timing (wait states, refresh) is applied
    by the bus, not here.
    """

    def __init__(self, size: int, base: int = 0) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.base = base
        self.data = bytearray(size)

    def __len__(self) -> int:
        return len(self.data)

    def _offset(self, addr: int, size: int) -> int:
        off = addr - self.base
        if off < 0 or off + size > len(self.data):
            raise AddressError(
                f"access at {addr:#x} ({size}B) outside module "
                f"[{self.base:#x}, {self.base + len(self.data):#x})"
            )
        if size >= 2 and addr % 2:
            raise AddressError(f"misaligned {size}-byte access at {addr:#x}")
        return off

    def read(self, addr: int, size: int) -> int:
        data = self.data
        off = addr - self.base
        if off < 0 or off + size > len(data) or (size >= 2 and addr & 1):
            off = self._offset(addr, size)  # raises the precise error
        if size == 2:  # the PEs' data word: no slice, no from_bytes
            return data[off] << 8 | data[off + 1]
        return int.from_bytes(data[off : off + size], "big")

    def write(self, addr: int, value: int, size: int) -> None:
        data = self.data
        off = addr - self.base
        if off < 0 or off + size > len(data) or (size >= 2 and addr & 1):
            off = self._offset(addr, size)  # raises the precise error
        if size == 2:
            data[off] = value >> 8 & 0xFF
            data[off + 1] = value & 0xFF
            return
        data[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "big"
        )

    def load(self, addr: int, blob: bytes) -> None:
        """Bulk-load ``blob`` at ``addr`` (no timing, used by loaders)."""
        off = self._offset(addr, max(len(blob), 1))
        self.data[off : off + len(blob)] = blob

    def read_words(self, addr: int, count: int) -> np.ndarray:
        """Read ``count`` big-endian 16-bit words as a numpy array."""
        off = self._offset(addr, 2 * count if count else 1)
        return np.frombuffer(
            bytes(self.data[off : off + 2 * count]), dtype=">u2"
        ).astype(np.uint16)

    def write_words(self, addr: int, values: np.ndarray) -> None:
        """Write a numpy array of 16-bit words big-endian at ``addr``."""
        arr = np.asarray(values, dtype=np.uint16).astype(">u2")
        blob = arr.tobytes()
        off = self._offset(addr, max(len(blob), 1))
        self.data[off : off + len(blob)] = blob
