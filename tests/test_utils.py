"""Tests for the shared utilities: bit operations, RNG policy, rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    ascii_plot,
    byte_swap16,
    derive_seed,
    format_table,
    make_rng,
    ones_count,
    sign_extend,
    to_signed,
    to_unsigned,
    transitions_count,
)
from repro.utils.bitops import bit_length_mask, popcount_array


class TestBitOps:
    def test_ones_count_scalar(self):
        assert ones_count(0) == 0
        assert ones_count(0xFFFF) == 16
        assert ones_count(0b1010_1010) == 4
        assert ones_count(0x1_0000) == 0  # masked to 16 bits

    def test_ones_count_width(self):
        assert ones_count(0xFF, width=4) == 4

    def test_ones_count_array_matches_scalar(self):
        values = np.arange(2048, dtype=np.uint64)
        vec = ones_count(values, 16)
        assert vec.tolist() == [ones_count(int(v)) for v in values]

    @pytest.mark.parametrize("native", [True, False],
                             ids=["bitwise_count", "numpy<2 fallback"])
    def test_popcount_array_keeps_uint16(self, native, monkeypatch):
        if not native:
            monkeypatch.delattr(np, "bitwise_count", raising=False)
        values = np.arange(1 << 16, dtype=np.uint16)
        counts = popcount_array(values)
        assert counts.dtype == np.uint8
        assert counts.tolist() == [int(v).bit_count() for v in range(1 << 16)]

    def test_transitions_scalar(self):
        # 0xFFFF << 1 = 0x1FFFE: one 01 boundary at the bottom.
        assert transitions_count(0xFFFF) == 1
        assert transitions_count(0) == 0
        assert transitions_count(0b0101010101010101) == 16

    def test_transitions_array_matches_scalar(self):
        values = np.arange(2048, dtype=np.uint64)
        vec = transitions_count(values, 16)
        assert vec.tolist() == [transitions_count(int(v)) for v in values]

    @given(st.integers(0, 0xFFFF))
    @settings(max_examples=100)
    def test_transitions_bounded(self, v):
        assert 0 <= transitions_count(v) <= 16

    def test_sign_extend(self):
        assert sign_extend(0xFF, 8) == -1
        assert sign_extend(0x7F, 8) == 127
        assert sign_extend(0x8000, 16) == -32768

    def test_to_signed_to_unsigned_roundtrip(self):
        for v in (-1, -32768, 0, 1, 32767):
            assert to_signed(to_unsigned(v, 2), 2) == v

    def test_byte_swap(self):
        assert byte_swap16(0x1234) == 0x3412
        assert byte_swap16(byte_swap16(0xBEEF)) == 0xBEEF

    def test_bit_length_mask(self):
        assert bit_length_mask(0) == 0
        assert bit_length_mask(16) == 0xFFFF
        with pytest.raises(ValueError):
            bit_length_mask(-1)


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(42, "x", 1) == derive_seed(42, "x", 1)

    def test_derive_seed_sensitive_to_components(self):
        seeds = {
            derive_seed(42, "x", 1),
            derive_seed(42, "x", 2),
            derive_seed(42, "y", 1),
            derive_seed(43, "x", 1),
        }
        assert len(seeds) == 4

    def test_make_rng_reproducible(self):
        a = make_rng(7, "test").integers(0, 1000, 10)
        b = make_rng(7, "test").integers(0, 1000, 10)
        assert np.array_equal(a, b)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [("a", 1), ("bbbb", 22)])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # all rows same width

    def test_format_table_floats(self):
        text = format_table(["x"], [(1.23456789,)])
        assert "1.235" in text

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            format_table(["a", "b"], [(1,)])

    def test_ascii_plot_markers_and_legend(self):
        text = ascii_plot(
            {"up": [(1, 1), (2, 2)], "down": [(1, 2), (2, 1)]},
            width=20, height=5,
        )
        assert "* = up" in text and "o = down" in text

    def test_ascii_plot_log_scales(self):
        text = ascii_plot(
            {"s": [(1, 10), (100, 1000)]}, logx=True, logy=True,
            width=10, height=4,
        )
        assert "x: 1 .. 100" in text

    def test_ascii_plot_empty(self):
        assert "empty" in ascii_plot({})

    def test_ascii_plot_constant_series(self):
        # Degenerate span must not divide by zero.
        text = ascii_plot({"c": [(5, 7), (5, 7)]}, width=8, height=3)
        assert "c" in text
