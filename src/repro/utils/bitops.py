"""Bit-level helpers used by the MC68000 timing model and data paths.

The data-dependent instruction times at the heart of the paper reduce to two
bit-counting primitives on the 16-bit multiplier operand:

* ``ones_count`` — number of 1 bits; drives ``MULU`` (38 + 2*ones cycles).
* ``transitions_count`` — number of 01/10 adjacent pairs in the operand with
  a 0 appended at the least-significant end; drives ``MULS``.

Both accept plain ints and numpy arrays so the macro timing model can apply
them to whole matrices at once.
"""

from __future__ import annotations

import numpy as np

#: Bit masks for the three MC68000 operand sizes, keyed by size in bytes.
SIZE_MASKS = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFF_FFFF}


def bit_length_mask(bits: int) -> int:
    """Return a mask with the low ``bits`` bits set (``bits`` >= 0)."""
    if bits < 0:
        raise ValueError(f"bit count must be non-negative, got {bits}")
    return (1 << bits) - 1


def ones_count(value, width: int = 16):
    """Count 1 bits in ``value`` masked to ``width`` bits.

    Accepts an int (returns int) or a numpy integer array (returns an array
    of the same shape).  This is the ``n`` of the MC68000 ``MULU`` timing
    formula ``38 + 2n``.
    """
    mask = bit_length_mask(width)
    if isinstance(value, np.ndarray):
        v = value.astype(np.uint64) & np.uint64(mask)
        return popcount_array(v).astype(np.int64)
    return (int(value) & mask).bit_count()


def popcount_array(v: np.ndarray) -> np.ndarray:
    """Population count of an unsigned integer array, as uint8.

    Counts in ``v``'s own dtype: a uint16 matrix is never widened.
    """
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(v)
    out = np.zeros(v.shape, dtype=np.uint8)
    v = v.copy()
    one = v.dtype.type(1)
    while np.any(v):
        out += (v & one).astype(np.uint8)
        v >>= one
    return out


def transitions_count(value, width: int = 16):
    """Count adjacent-bit transitions for the ``MULS`` timing formula.

    The MC68000 signed multiply takes ``38 + 2n`` cycles where ``n`` is the
    number of 10 or 01 patterns in the source operand after appending a 0 to
    its least-significant end (equivalently, transitions in the
    ``width + 1``-bit string ``value << 1``).

    Accepts ints or numpy arrays, mirroring :func:`ones_count`.
    """
    mask = bit_length_mask(width)
    if isinstance(value, np.ndarray):
        v = (value.astype(np.uint64) & np.uint64(mask)) << np.uint64(1)
        x = v ^ (v >> np.uint64(1))
        # v has width+1 significant bits; transitions live in the low `width` bits
        return popcount_array(
            x & np.uint64(bit_length_mask(width))).astype(np.int64)
    v = (int(value) & mask) << 1
    x = v ^ (v >> 1)
    return (x & bit_length_mask(width)).bit_count()


def sign_extend(value: int, width: int) -> int:
    """Sign-extend the low ``width`` bits of ``value`` to a Python int."""
    mask = bit_length_mask(width)
    value &= mask
    sign_bit = 1 << (width - 1)
    return (value ^ sign_bit) - sign_bit


def to_signed(value: int, size: int) -> int:
    """Interpret ``value`` as a signed integer of ``size`` bytes."""
    return sign_extend(value, size * 8)


def to_unsigned(value: int, size: int) -> int:
    """Truncate ``value`` to an unsigned integer of ``size`` bytes."""
    return value & SIZE_MASKS[size]


def byte_swap16(value: int) -> int:
    """Swap the two bytes of a 16-bit value (used by network byte framing)."""
    value &= 0xFFFF
    return ((value >> 8) | (value << 8)) & 0xFFFF
