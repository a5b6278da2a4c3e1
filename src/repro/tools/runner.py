"""``pasm-run``: assemble and execute a program on the simulated prototype.

Makes the machine usable as a tool, not just a harness for the paper's
experiments::

    pasm-run program.s                      # serial, one PE
    pasm-run program.s --mode mimd -p 4     # same text on 4 PEs
    pasm-run program.s --mode smimd -p 4 --sync-words 8
    pasm-run program.s --trace-out run.json --dump 0x4000:16

Programs use the standard device symbols (``NETTX``, ``NETRX``,
``NETSTAT``, ``SIMDSPACE``, ``TIMER``) plus ``PEID`` — each PE's logical
number, predefined per PE so one source can behave per-processor.  In the
parallel modes the shift circuit (PE i → PE (i−1) mod p) is established
before the run, as in the paper's experiments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.m68k.assembler import assemble
from repro.machine import ExecutionMode, MachineResult, PASMMachine, PrototypeConfig


class ProgramRunError(ReproError):
    """Raised when a program file cannot be run as requested."""


@dataclass
class RunOutcome:
    """Everything ``pasm-run`` knows after a run."""

    result: MachineResult
    machine: PASMMachine
    dumps: dict[int, dict[int, list[int]]] = field(default_factory=dict)
    registers: dict[int, dict[str, int]] = field(default_factory=dict)
    trace_events: list[dict] | None = None  #: per-PE lanes (``--trace-out``)

    def render(self) -> str:
        lines = [
            f"mode={self.result.mode.value} p={self.result.p} "
            f"cycles={self.result.cycles:.0f} "
            f"({self.result.seconds * 1e3:.3f} ms at 8 MHz) "
            f"instructions={self.result.instructions}",
        ]
        breakdown = self.result.breakdown()
        if breakdown:
            parts = ", ".join(
                f"{k}={v:.0f}" for k, v in sorted(breakdown.items())
            )
            lines.append(f"breakdown (mean cycles/PE): {parts}")
        for pe, dumps in sorted(self.dumps.items()):
            for addr, words in dumps.items():
                text = " ".join(f"{w:04X}" for w in words)
                lines.append(f"PE{pe} @{addr:#06x}: {text}")
        for pe, regs in sorted(self.registers.items()):
            d = " ".join(f"D{i}={regs[f'D{i}']:08X}" for i in range(8))
            a = " ".join(f"A{i}={regs[f'A{i}']:08X}" for i in range(8))
            lines.append(f"PE{pe} {d}")
            lines.append(f"PE{pe} {a}")
        return "\n".join(lines)


def _parse_dump(spec: str) -> tuple[int, int]:
    """Parse ``ADDR:COUNT`` (both may be hex with 0x prefix)."""
    try:
        addr_text, count_text = spec.split(":")
        return int(addr_text, 0), int(count_text, 0)
    except ValueError:
        raise ProgramRunError(
            f"bad --dump spec {spec!r}; expected ADDR:WORDCOUNT"
        ) from None


def run_program_file(
    path: str | Path,
    *,
    mode: str = "serial",
    p: int = 1,
    sync_words: int = 0,
    config: PrototypeConfig | None = None,
    dump: list[str] | None = None,
    show_registers: bool = False,
    max_cycles: float | None = None,
    trace: bool = False,
) -> RunOutcome:
    """Assemble ``path`` and run it; see the module docstring."""
    config = config or PrototypeConfig.calibrated()
    source = Path(path).read_text()
    try:
        exec_mode = ExecutionMode(mode)
    except ValueError:
        raise ProgramRunError(
            f"unknown mode {mode!r}; choose from "
            f"{[m.value for m in ExecutionMode]}"
        ) from None
    if exec_mode is ExecutionMode.SIMD:
        raise ProgramRunError(
            "pasm-run executes PE programs; SIMD mode needs an MC control "
            "program — use the repro.machine API (PASMMachine.run_simd)"
        )
    if exec_mode is ExecutionMode.SERIAL and p != 1:
        raise ProgramRunError("serial mode runs on one PE (drop -p)")

    machine = PASMMachine(config, partition_size=p)
    programs = []
    for logical in range(p):
        symbols = dict(config.device_symbols())
        symbols["PEID"] = logical
        programs.append(assemble(source, predefined=symbols))
    if p > 1:
        machine.connect_shift_circuit()
    if trace:
        machine.enable_tracing()

    if exec_mode is ExecutionMode.SERIAL:
        result = machine.run_serial(programs[0])
    elif exec_mode is ExecutionMode.MIMD:
        result = machine.run_mimd(programs)
    else:
        result = machine.run_smimd(programs, sync_words=max(sync_words, 1))

    if max_cycles is not None and result.cycles > max_cycles:
        raise ProgramRunError(
            f"program ran {result.cycles:.0f} cycles, over the "
            f"--max-cycles budget of {max_cycles:.0f}"
        )

    outcome = RunOutcome(result=result, machine=machine)
    if trace:
        from repro.obs.simtrace import machine_events

        outcome.trace_events = machine_events(
            machine,
            label=f"{exec_mode.value} p={p} {Path(path).name}",
        )
    for spec in dump or []:
        addr, count = _parse_dump(spec)
        for logical in range(p):
            words = machine.pe(logical).memory.read_words(addr, count)
            outcome.dumps.setdefault(logical, {})[addr] = [
                int(w) for w in words
            ]
    if show_registers:
        for logical in range(p):
            outcome.registers[logical] = machine.pe(logical).cpu.regs.snapshot()
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pasm-run",
        description="Assemble an MC68000 program and run it on the "
        "simulated PASM prototype.",
    )
    parser.add_argument("program", help="assembly source file")
    parser.add_argument(
        "--mode", default="serial",
        choices=["serial", "mimd", "smimd"],
        help="execution mode (SIMD needs an MC program; use the API)",
    )
    parser.add_argument("-p", type=int, default=1,
                        help="number of PEs (power of two)")
    parser.add_argument("--sync-words", type=int, default=16,
                        help="barrier tokens to provision in smimd mode")
    parser.add_argument("--dump", action="append", default=[],
                        metavar="ADDR:WORDS",
                        help="dump memory words after the run (repeatable)")
    parser.add_argument("--registers", action="store_true",
                        help="print final register values")
    parser.add_argument("--max-cycles", type=float, default=None,
                        help="fail if the run exceeds this many cycles")
    parser.add_argument("--trace-out", type=Path, default=None,
                        metavar="FILE",
                        help="export a per-PE Chrome trace-event timeline "
                             "(instruction categories, queue/network waits) "
                             "to FILE — open in Perfetto/chrome://tracing")
    parser.add_argument("--listing", action="store_true",
                        help="print the annotated disassembly and exit")
    args = parser.parse_args(argv)
    if args.listing:
        from repro.m68k.assembler import assemble
        from repro.m68k.disasm import disassemble
        from repro.machine import PrototypeConfig

        config = PrototypeConfig.calibrated()
        symbols = dict(config.device_symbols())
        symbols["PEID"] = 0
        try:
            program = assemble(Path(args.program).read_text(),
                               predefined=symbols)
        except ReproError as exc:
            print(f"pasm-run: {exc}", file=sys.stderr)
            return 1
        print(disassemble(program, device_symbols=config.device_symbols()))
        return 0
    try:
        outcome = run_program_file(
            args.program,
            mode=args.mode,
            p=args.p,
            sync_words=args.sync_words,
            dump=args.dump,
            show_registers=args.registers,
            max_cycles=args.max_cycles,
            trace=args.trace_out is not None,
        )
    except ReproError as exc:
        print(f"pasm-run: {exc}", file=sys.stderr)
        return 1
    if args.trace_out is not None:
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        tracer.extend(outcome.trace_events)
        count = tracer.write(args.trace_out, meta={
            "tool": "pasm-run", "program": str(args.program),
            "mode": args.mode, "p": args.p,
        })
        print(f"trace written to {args.trace_out} ({count} events)")
    print(outcome.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
