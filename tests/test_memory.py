"""Tests for the memory subsystem (modules, map, DRAM refresh)."""

import numpy as np
import pytest

from repro.errors import AddressError, BusError
from repro.memory import MemoryMap, MemoryModule, RefreshModel, Region, RegionKind


class TestMemoryModule:
    def test_word_roundtrip_big_endian(self):
        m = MemoryModule(64)
        m.write(0, 0x1234, 2)
        assert m.data[0] == 0x12 and m.data[1] == 0x34
        assert m.read(0, 2) == 0x1234

    def test_long_roundtrip(self):
        m = MemoryModule(64)
        m.write(4, 0xDEADBEEF, 4)
        assert m.read(4, 4) == 0xDEADBEEF
        assert m.read(4, 2) == 0xDEAD

    def test_byte_access(self):
        m = MemoryModule(8)
        m.write(3, 0xAB, 1)
        assert m.read(3, 1) == 0xAB

    def test_base_offset(self):
        m = MemoryModule(16, base=0x4000)
        m.write(0x4002, 7, 2)
        assert m.read(0x4002, 2) == 7

    def test_out_of_range(self):
        m = MemoryModule(16, base=0x4000)
        with pytest.raises(AddressError):
            m.read(0x3FFE, 2)
        with pytest.raises(AddressError):
            m.write(0x4010, 1, 2)

    def test_misaligned_word(self):
        m = MemoryModule(16)
        with pytest.raises(AddressError):
            m.read(1, 2)

    def test_value_truncation(self):
        m = MemoryModule(8)
        m.write(0, 0x1_FFFF, 2)
        assert m.read(0, 2) == 0xFFFF

    def test_pe_bus_fast_twins_match_the_module(self):
        """The PE bus's fast twins read and write through the module:
        its values (a word masked, a long as two words), its errors,
        each access charged."""
        from repro.machine import PrototypeConfig
        from repro.pe.processing_element import ProcessingElement
        from repro.sim import Environment

        cfg = PrototypeConfig.calibrated()
        bus = ProcessingElement(Environment(), cfg, 0, fast_path=True).bus
        top = cfg.ram_size - 2
        assert bus.try_write(top, -2, 2)  # masked like MemoryModule.write
        assert bus.memory.read(top, 2) == 0xFFFE
        assert bus.try_write(0x100, 0x1234_5678, 4)
        assert bus.try_write(0x105, 0xAB, 1)
        assert bus.try_read(top, 2) == 0xFFFE
        assert bus.try_read(0x102, 2) == 0x5678
        assert bus.try_read(0x100, 4) == 0x1234_5678
        assert bus.try_read(0x105, 1) == 0xAB
        assert bus.data_accesses == 9  # a long is two accesses
        with pytest.raises(AddressError, match="misaligned"):
            bus.try_read(0x101, 2)
        with pytest.raises(AddressError, match="misaligned"):
            bus.try_write(0x101, 1, 2)

    def test_word_array_roundtrip(self):
        m = MemoryModule(64)
        values = np.array([1, 2, 0xFFFF, 42], dtype=np.uint16)
        m.write_words(8, values)
        out = m.read_words(8, 4)
        assert np.array_equal(out, values)
        assert m.read(8, 2) == 1  # big-endian layout confirmed

    def test_load_blob(self):
        m = MemoryModule(8)
        m.load(2, b"\x01\x02")
        assert m.read(2, 2) == 0x0102


class TestMemoryMap:
    def make_map(self):
        return MemoryMap(
            [
                Region(RegionKind.MAIN_RAM, 0x0, 0x1_0000, wait_states=1),
                Region(RegionKind.SIMD_SPACE, 0xE0_0000, 0xE1_0000),
                Region(RegionKind.NET_TX, 0xF0_0000, 0xF0_0002),
                Region(RegionKind.NET_RX, 0xF0_0002, 0xF0_0004),
            ]
        )

    def test_lookup(self):
        mm = self.make_map()
        assert mm.lookup(0x100).kind is RegionKind.MAIN_RAM
        assert mm.lookup(0xE0_1234).kind is RegionKind.SIMD_SPACE
        assert mm.lookup(0xF0_0000).kind is RegionKind.NET_TX
        assert mm.lookup(0xF0_0003).kind is RegionKind.NET_RX

    def test_unmapped_raises(self):
        mm = self.make_map()
        with pytest.raises(BusError):
            mm.lookup(0x50_0000)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            MemoryMap(
                [
                    Region(RegionKind.MAIN_RAM, 0, 0x100),
                    Region(RegionKind.SIMD_SPACE, 0x80, 0x200),
                ]
            )

    def test_find_by_kind(self):
        mm = self.make_map()
        assert mm.find(RegionKind.NET_TX).start == 0xF0_0000
        with pytest.raises(KeyError):
            mm.find(RegionKind.TIMER)

    def test_region_contains(self):
        r = Region(RegionKind.MAIN_RAM, 0x10, 0x20)
        assert 0x10 in r and 0x1F in r and 0x20 not in r
        assert r.size == 0x10


class TestRefreshModel:
    def test_disabled_by_default(self):
        r = RefreshModel()
        assert r.stall_cycles(123.0) == 0.0
        assert r.average_stall_per_access == 0.0

    def test_stall_inside_window(self):
        r = RefreshModel(period=100, steal=4)
        assert r.stall_cycles(0.0) == 4.0
        assert r.stall_cycles(1.0) == 3.0
        assert r.stall_cycles(3.5) == 0.5
        assert r.stall_cycles(4.0) == 0.0
        assert r.stall_cycles(99.0) == 0.0
        assert r.stall_cycles(100.0) == 4.0  # next period

    def test_average_stall(self):
        r = RefreshModel(period=100, steal=4)
        assert r.average_stall_per_access == pytest.approx(16 / 200)
        assert r.duty == pytest.approx(0.04)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RefreshModel(period=0, steal=0)
        with pytest.raises(ValueError):
            RefreshModel(period=10, steal=10)

    def test_average_matches_empirical_mean(self):
        r = RefreshModel(period=50, steal=5)
        times = np.linspace(0, 50, 10_001)[:-1]
        empirical = np.mean([r.stall_cycles(t) for t in times])
        assert empirical == pytest.approx(r.average_stall_per_access, rel=1e-2)
