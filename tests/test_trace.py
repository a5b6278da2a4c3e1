"""Tests for the simulated-time trace renderers and ``pasm-trace``."""

import json

import pytest

from repro.machine import PASMMachine, PrototypeConfig
from repro.m68k.assembler import assemble
from repro.mc import EnqueueBlock, Loop
from repro.obs import (
    format_trace, machine_events, queue_occupancy, render_gantt,
)
from repro.tools import runner, trace_cli

CFG = PrototypeConfig()


def traced_serial_run(source):
    machine = PASMMachine(CFG, partition_size=1)
    program = assemble(source, predefined=CFG.device_symbols())
    machine.enable_tracing()
    machine.run_serial(program)
    return machine


class TestFormatTrace:
    def test_listing_contents(self):
        machine = traced_serial_run(
            """
            .timecat mult
            MOVE.W  #$FF,D0
            MULU    D0,D1
            .timecat control
            HALT
            """
        )
        records = machine.pe(0).cpu.trace_records
        text = format_trace(records)
        assert "MULU" in text and "mult" in text
        # The MULU with an 8-ones multiplier: 54 manual cycles.
        assert "54" in text

    def test_limit_truncates(self):
        machine = traced_serial_run("    NOP\n" * 30 + "    HALT")
        text = format_trace(machine.pe(0).cpu.trace_records, limit=5)
        assert "more records" in text
        assert text.count("NOP") == 5

    def test_elapsed_reflects_wait_states(self):
        machine = traced_serial_run("    NOP\n    HALT")
        rec = machine.pe(0).cpu.trace_records[0]
        # NOP: 4 manual cycles + 1 main-memory wait state (+refresh).
        assert rec.elapsed >= rec.timing.cycles + CFG.ws_main


class TestActivityGantt:
    def test_rows_and_legend(self):
        machine = traced_serial_run(
            """
            .timecat mult
            MOVE.W  #$FFFF,D0
            MULU    D0,D1
            MULU    D0,D2
            MULU    D0,D3
            HALT
            """
        )
        chart = render_gantt(machine_events(machine, label="serial"))
        assert "PE 0 |" in chart
        assert "M" in chart  # multiply-dominated buckets
        assert "M=mult" in chart

    def test_empty(self):
        assert render_gantt([]) == "(no matching lanes)"
        assert render_gantt({}) == "(no matching lanes)"


class TestQueueOccupancy:
    def test_simd_run_records_samples(self):
        machine = PASMMachine(CFG, partition_size=4)
        blocks = {
            "body": assemble("    MULU D1,D2").instruction_list(),
            "fini": assemble("    HALT").instruction_list(),
        }
        machine.run_simd(
            [Loop(20, (EnqueueBlock("body"),)), EnqueueBlock("fini")], blocks
        )
        queue = machine.queues[0]
        stats = queue_occupancy(
            queue.occupancy_samples, CFG.queue_capacity_words
        )
        assert stats.max_words >= 1
        assert 0 <= stats.fraction_empty <= 1
        assert len(stats.sparkline) == 60

    def test_queue_stays_nonfull_when_pe_bound(self):
        """The paper's superlinearity precondition: with a slow PE body the
        queue neither empties (after startup) nor fills."""
        machine = PASMMachine(CFG, partition_size=4)
        data = assemble(
            "    HALT\n    .data\n    .org $4000\nv: .dc.w $FFFF"
        )
        blocks = {
            "init": assemble("    MOVE.W $4000,D1",
                             predefined=CFG.device_symbols()).instruction_list(),
            "body": assemble("    MULU D1,D2").instruction_list(),
            "fini": assemble("    HALT").instruction_list(),
        }
        machine.run_simd(
            [EnqueueBlock("init"), Loop(50, (EnqueueBlock("body"),)),
             EnqueueBlock("fini")],
            blocks,
            data_programs=[data] * 4,
        )
        stats = queue_occupancy(
            machine.queues[0].occupancy_samples, CFG.queue_capacity_words
        )
        assert stats.fraction_full == 0.0
        assert stats.fraction_empty < 0.25  # startup only

    def test_empty_samples(self):
        stats = queue_occupancy([], 16)
        assert stats.mean_words == 0.0 and stats.fraction_empty == 1.0

    def test_str_rendering(self):
        stats = queue_occupancy([(0.0, 0), (10.0, 4), (20.0, 0)], 8,
                                end=30.0)
        text = str(stats)
        assert "mean" in text and "empty" in text
        assert stats.mean_words == pytest.approx((10 * 0 + 10 * 4 + 10 * 0) / 30)


# ---------------------------------------------------------------------------
# pasm-trace over a pasm-run --trace-out export
RING_SRC = """
        MOVE.W  #PEID,D0
        MOVE.W  SIMDSPACE,D7    ; barrier
        MOVE.B  D0,NETTX
        MOVE.B  NETRX,D3
        .timecat mult
        MULU    D0,D3
        HALT
"""


@pytest.fixture
def exported(tmp_path, capsys):
    """A 4-PE S/MIMD run exported by ``pasm-run --trace-out``."""
    source = tmp_path / "ring.s"
    source.write_text(RING_SRC)
    out = tmp_path / "run.json"
    assert runner.main([str(source), "--mode", "smimd", "-p", "4",
                        "--sync-words", "1", "--trace-out", str(out)]) == 0
    assert "trace written to" in capsys.readouterr().out
    return out


class TestTraceCli:
    def test_validate_accepts_the_export(self, exported, capsys):
        assert trace_cli.main(["validate", str(exported)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_a_corrupted_document(self, exported, capsys):
        doc = json.loads(exported.read_text())
        # Drop the first span end: its begin is left unmatched.
        ends = [i for i, ev in enumerate(doc["traceEvents"])
                if ev.get("ph") == "E"]
        del doc["traceEvents"][ends[0]]
        exported.write_text(json.dumps(doc))
        assert trace_cli.main(["validate", str(exported)]) == 1
        assert "pasm-trace:" in capsys.readouterr().err

    def test_summarize_lists_every_pe_lane(self, exported, capsys):
        assert trace_cli.main(["summarize", str(exported)]) == 0
        text = capsys.readouterr().out
        for pe in range(4):
            assert f"/ PE {pe} " in text
            assert f"/ PE {pe} waits" in text
        # The meta line carries what pasm-run passed to the export.
        meta = [line for line in text.splitlines()
                if line.startswith("meta:")]
        assert len(meta) == 1
        assert '"mode": "smimd"' in meta[0] and '"p": 4' in meta[0]

    def test_render_draws_one_row_per_lane_and_the_legend(
            self, exported, capsys):
        assert trace_cli.main(["render", str(exported), "--width", "40"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines if line.endswith("|")]
        names = sorted(row.split("|")[0].strip() for row in rows)
        assert names == sorted([f"PE {i}" for i in range(4)]
                               + [f"PE {i} waits" for i in range(4)])
        assert all(len(row.split("|")[1]) == 40 for row in rows)
        assert lines[-1].startswith("legend: ")
        assert "M=mult" in lines[-1] and "r=net_rx_wait" in lines[-1]

    def test_unreadable_file_exits_with_its_message(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="cannot read .*missing.json"):
            trace_cli.main(["render", str(missing)])
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read .*garbled.json"):
            trace_cli.main(["summarize", str(garbled)])
