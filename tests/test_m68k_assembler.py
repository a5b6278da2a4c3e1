"""Assembler tests: parsing, layout, symbols, directives, diagnostics."""

import re

import pytest

from repro.errors import AssemblerError
from repro.m68k.addressing import Mode
from repro.m68k.assembler import assemble
from repro.m68k.instructions import Size


def first(program):
    return program.instruction_list()[0]


class TestOperandParsing:
    def parse_one(self, operand_text, mnemonic="TST.W"):
        prog = assemble(f"    {mnemonic} {operand_text}\n    HALT")
        return first(prog).operands[0]

    def test_data_register(self):
        op = self.parse_one("D3")
        assert op.mode is Mode.DREG and op.reg == 3

    def test_address_register_via_move(self):
        prog = assemble("    MOVE.W A5,D0\n    HALT")
        assert first(prog).operands[0].mode is Mode.AREG

    def test_indirect(self):
        op = self.parse_one("(A2)")
        assert op.mode is Mode.IND and op.reg == 2

    def test_postincrement(self):
        op = self.parse_one("(A4)+")
        assert op.mode is Mode.POSTINC and op.reg == 4

    def test_predecrement(self):
        op = self.parse_one("-(A1)")
        assert op.mode is Mode.PREDEC and op.reg == 1

    def test_displacement(self):
        op = self.parse_one("12(A3)")
        assert op.mode is Mode.DISP and op.reg == 3 and op.disp == 12

    def test_negative_displacement(self):
        op = self.parse_one("-4(A3)")
        assert op.mode is Mode.DISP and op.disp == -4

    def test_hex_displacement(self):
        op = self.parse_one("$10(A0)")
        assert op.disp == 16

    def test_index_mode(self):
        op = self.parse_one("4(A1,D2.W)")
        assert op.mode is Mode.INDEX
        assert op.reg == 1 and op.disp == 4 and op.index_reg == ("D", 2)

    def test_immediate_via_move(self):
        prog = assemble("    MOVE.W #42,D0\n    HALT")
        op = first(prog).operands[0]
        assert op.mode is Mode.IMM and op.value == 42

    def test_immediate_hex(self):
        prog = assemble("    MOVE.W #$FF,D0\n    HALT")
        assert first(prog).operands[0].value == 255

    def test_immediate_binary(self):
        prog = assemble("    MOVE.W #%1010,D0\n    HALT")
        assert first(prog).operands[0].value == 10

    def test_absolute_long_bare_symbol(self):
        prog = assemble(
            "    MOVE.W var,D0\n    HALT\n    .data\nvar: .dc.w 7"
        )
        op = first(prog).operands[0]
        assert op.mode is Mode.ABS_L
        assert op.value == 0x8000  # default data origin

    def test_absolute_short_suffix(self):
        op = self.parse_one("$400.W")
        assert op.mode is Mode.ABS_W and op.value == 0x400

    def test_sp_aliases(self):
        prog = assemble("    MOVE.W D0,-(SP)\n    MOVE.W (SP)+,D1\n    HALT")
        instrs = prog.instruction_list()
        assert instrs[0].operands[1].mode is Mode.PREDEC
        assert instrs[0].operands[1].reg == 7
        assert instrs[1].operands[0].mode is Mode.POSTINC


class TestLayoutAndSymbols:
    def test_addresses_advance_by_encoded_bytes(self):
        prog = assemble(
            """
            MOVEQ   #1,D0        ; 1 word
            MOVE.W  #5,D1        ; 2 words
            MOVE.W  D1,$2000     ; 3 words (abs.L dest)
            HALT
            """,
            text_origin=0x1000,
        )
        addrs = sorted(prog.instructions)
        assert addrs == [0x1000, 0x1002, 0x1006, 0x100C]

    def test_labels_resolve_to_addresses(self):
        prog = assemble(
            """
    start:  MOVEQ #0,D0
    loop:   ADDQ.W #1,D0
            DBRA D1,loop
            HALT
            """
        )
        assert prog.symbols["start"] == 0x1000
        assert prog.symbols["loop"] == 0x1002
        dbra = [i for i in prog.instruction_list() if i.mnemonic == "DBRA"][0]
        assert dbra.target == prog.symbols["loop"]

    def test_forward_reference(self):
        prog = assemble(
            """
            BRA  done
            NOP
    done:   HALT
            """
        )
        bra = first(prog)
        assert bra.target == prog.symbols["done"]

    def test_equ_and_expressions(self):
        prog = assemble(
            """
            .equ  BASE, $4000
            .equ  OFF, 8
            MOVE.W BASE+OFF,D0
            MOVE.W #BASE-OFF,D1
            HALT
            """
        )
        instrs = prog.instruction_list()
        assert instrs[0].operands[0].value == 0x4008
        assert instrs[1].operands[0].value == 0x4000 - 8

    def test_predefined_symbols(self):
        prog = assemble(
            "    MOVE.W D0,NETTX\n    HALT", predefined={"NETTX": 0xFF0000}
        )
        assert first(prog).operands[1].value == 0xFF0000

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x:  NOP\nx:  HALT")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError, match="undefined symbol"):
            assemble("    MOVE.W nowhere,D0\n    HALT")

    def test_entry_is_first_instruction(self):
        prog = assemble("    .org $2000\n    NOP\n    HALT")
        assert prog.entry == 0x2000


class TestDataSection:
    def test_dc_w(self):
        prog = assemble(
            """
            HALT
            .data
    tbl:    .dc.w  1,2,$FFFF
            """
        )
        assert prog.data == [(0x8000, bytes([0, 1, 0, 2, 0xFF, 0xFF]))]

    def test_dc_negative_value_wraps(self):
        prog = assemble("    HALT\n    .data\nv: .dc.w -1")
        assert prog.data[0][1] == b"\xff\xff"

    def test_ds_reserves_space(self):
        prog = assemble(
            """
            HALT
            .data
    a:      .ds.w  4
    b:      .dc.w  9
            """
        )
        assert prog.symbols["b"] == 0x8000 + 8

    def test_dc_in_text_rejected(self):
        with pytest.raises(AssemblerError, match="only allowed in .data"):
            assemble("    .dc.w 1")

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError, match="outside .text"):
            assemble("    .data\n    NOP")


class TestDirectivesAndDiagnostics:
    def test_timecat_tags_instructions(self):
        prog = assemble(
            """
            .timecat control
            MOVEQ #0,D0
            .timecat mult
            MULU  D1,D2
            HALT
            """
        )
        instrs = prog.instruction_list()
        assert instrs[0].timecat == "control"
        assert instrs[1].timecat == "mult"
        assert instrs[2].timecat == "mult"  # sticky until changed

    def test_unknown_timecat_rejected(self):
        with pytest.raises(AssemblerError, match="unknown .timecat"):
            assemble("    .timecat bogus\n    NOP")

    def test_unknown_mnemonic_reports_line(self):
        with pytest.raises(AssemblerError, match="line 2"):
            assemble("    NOP\n    FROB D0\n    HALT")

    def test_operand_validation_reports_line(self):
        with pytest.raises(AssemblerError):
            assemble("    MULU D0,A1\n    HALT")  # dest must be Dn

    @pytest.mark.parametrize("line, match", [
        ("LSL.W #9,D0", "shift count must be 1..8"),
        ("LSL.W #0,D0", "shift count must be 1..8"),
        ("ROXR.L #12,D3", "shift count must be 1..8"),
        ("ADDQ.W #0,D0", "data must be 1..8"),
        ("SUBQ.L #9,A0", "data must be 1..8"),
        ("ADD.B A0,D0", "byte ADD cannot use an address register"),
        ("SUB.B D0,A1", "byte SUB cannot use an address register"),
        ("CMP.B A2,D0", "byte CMP cannot use an address register"),
        ("ADDQ.B #1,A0", "byte ADDQ cannot use an address register"),
        ("CMPA.B D0,A0", "CMPA moves words or longs"),
        ("AND.W A0,D0", "AND source may not be an address register"),
        ("OR.L A1,D2", "OR source may not be an address register"),
        ("EOR.W (A0),D0", "EOR source must be a data register"),
        ("EOR.L A3,D1", "EOR source must be a data register"),
        # Forms with no 68000 encoding, named in the error.  Each used to
        # assemble and then raise IllegalInstructionError when it ran...
        ("ADD.W D0,A0", r"ADD\.W D0,A0: ADD cannot target .*\(use ADDA\)"),
        ("SUB.L D1,A2", r"SUB\.L D1,A2: SUB cannot target .*\(use SUBA\)"),
        ("AND.W D0,A0", r"AND\.W D0,A0: AND cannot target an address reg"),
        ("OR.W D0,A0", r"OR\.W D0,A0: OR cannot target an address reg"),
        ("CLR.W A0", r"CLR\.W A0: CLR cannot target an address reg"),
        ("NOT.W A0", r"NOT\.W A0: NOT cannot target an address reg"),
        ("NEG.L A1", r"NEG\.L A1: NEG cannot target an address reg"),
        ("NEGX.W A0", r"NEGX\.W A0: NEGX cannot target an address reg"),
        ("TAS.B A0", r"TAS\.B A0: TAS cannot target an address reg"),
        # ...wrote through PC-relative memory...
        ("ADDI.W #1,16(PC)", r"ADDI\.W #1,16\(PC\): ADDI destination not"),
        ("CMPI.W #1,16(PC)", r"CMPI\.W #1,16\(PC\): CMPI destination not"),
        ("ADDQ.W #1,16(PC)", r"ADDQ\.W #1,16\(PC\): ADDQ destination not"),
        ("ADD.W D0,16(PC)", r"ADD\.W D0,16\(PC\): ADD destination not"),
        # ...stored upward through one post-increment step, took one
        # pre-decrement step and loaded upward, or stored PC-relative...
        ("MOVEM.L D0/D1,(A0)+",
         r"MOVEM\.L D0/D1,\(A0\)\+: MOVEM cannot store to \(A0\)\+"),
        ("MOVEM.L -(A0),D0/D1",
         r"MOVEM\.L -\(A0\),D0/D1: MOVEM cannot load from -\(A0\)"),
        ("MOVEM.W D0,16(PC)", r"MOVEM\.W D0,16\(PC\): MOVEM cannot store"),
        # ...or ran as EXT.L.
        ("EXT.B D0", r"EXT\.B D0: EXT extends to a word or a long"),
    ])
    def test_illegal_forms_rejected(self, line, match):
        with pytest.raises(AssemblerError, match=match):
            assemble(f"    NOP\n    {line}\n    HALT")

    def test_long_index_register_rejected(self):
        # Only the word index is modelled; D1.L used to assemble as D1.W.
        with pytest.raises(AssemblerError, match="line 2.*D1.L"):
            assemble("    NOP\n    MOVE.W 0(A0,D1.L),D2\n    HALT")

    @pytest.mark.parametrize("operand, shown", [
        ("200(A0,D1.W)", "200(A0,D1.W)"),
        ("-129(A0,A1.W)", "-129(A0,A1.W)"),
        ("40000(A0)", "40000(A0)"),
        ("-32769(A0)", "-32769(A0)"),
        ("70000(PC)", "70000(PC)"),
        ("($12345).W", "(74565).W"),
        ("(-32769).W", "(-32769).W"),
    ])
    def test_field_out_of_range_rejected(self, operand, shown):
        with pytest.raises(AssemblerError,
                           match=rf"line 2.*out of range.*{re.escape(shown)}"):
            assemble(f"    NOP\n    MOVE.W {operand},D2\n    HALT")

    @pytest.mark.parametrize("operand", [
        "127(A0,D1.W)", "-128(A0,A1.W)", "32767(A0)", "-32768(A0)",
        "32767(PC)", "($FFFF).W", "(-32768).W",
    ])
    def test_field_edges_accepted(self, operand):
        assemble(f"    MOVE.W {operand},D2\n    HALT")

    def test_absolute_short_checked_once_its_symbol_resolves(self):
        with pytest.raises(AssemblerError, match="line 1.*out of range"):
            assemble("    MOVE.W (FAR).W,D0\n    HALT\n    .equ FAR,$12345")

    def test_quick_data_checked_once_a_symbol_resolves(self):
        with pytest.raises(AssemblerError, match="line 1.*1..8, got 9"):
            assemble("    LSL.W #N,D0\n    HALT\n    .equ N,9")

    def test_eor_immediate_assembles_as_eori(self):
        instr = first(assemble("    EOR.W #$00FF,D0\n    HALT"))
        assert instr.mnemonic == "EORI"

    def test_comments_and_blank_lines(self):
        prog = assemble(
            """
    * full-line comment
            NOP        ; trailing comment

            HALT
            """
        )
        assert len(prog.instructions) == 2

    def test_branch_size_suffix_tolerated(self):
        prog = assemble("loop:  BNE.S loop\n    HALT")
        assert first(prog).mnemonic == "BNE"

    def test_default_size_is_word(self):
        prog = assemble("    ADD D0,D1\n    HALT")
        assert first(prog).size is Size.WORD

    def test_listing_contains_addresses(self):
        prog = assemble("start:  NOP\n    HALT")
        listing = prog.listing()
        assert "start:" in listing and "NOP" in listing
