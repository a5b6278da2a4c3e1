#!/usr/bin/env python3
"""Looking inside a SIMD run: traces, queue occupancy, and the overlap
that makes superlinear speed-up possible.

The paper's superlinearity argument rests on a machine-level invariant:
"If the queue can remain non-empty and non-full at all times, it should be
possible to eliminate all of the time required for the control
operations."  This example runs a small SIMD matrix multiplication on the
instruction-level engine with full tracing and shows that invariant
holding: the Fetch Unit Queue's occupancy stays off the floor after
start-up, the PEs' activity timeline shows no control-category time at
all (the MCs run it), its wait lanes show each PE's fetch waiting on the
slowest sibling (the max over PEs the paper measures), and the
per-instruction trace exposes the data-dependent multiply times
directly.

    python examples/inspect_simd_overlap.py
"""

from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
from repro.m68k.disasm import disassemble
from repro.programs import build_matmul, generate_matrices
from repro.programs.loader import run_matmul
from repro.programs.parallel import build_parallel_programs
from repro.programs.data import MatmulLayout
from repro.obs import (
    format_trace, machine_events, queue_occupancy, render_gantt,
)

CFG = PrototypeConfig.calibrated()
N, P = 16, 4


def main() -> None:
    a, b = generate_matrices(N)
    machine = PASMMachine(CFG, partition_size=P)
    bundle = build_matmul(
        ExecutionMode.SIMD, N, P, device_symbols=CFG.device_symbols()
    )
    machine.enable_tracing()
    run = run_matmul(machine, bundle, a, b)

    print(f"SIMD {N}x{N} matmul on {P} PEs: {run.result.cycles:.0f} cycles")
    print("PE-side breakdown:",
          {k: round(v) for k, v in run.result.breakdown().items()})
    print("(control ≈ 0: every loop ran on the MC, overlapped)\n")

    # The queue invariant.
    queue = machine.queues[0]
    stats = queue_occupancy(
        queue.occupancy_samples, CFG.queue_capacity_words,
        end=run.result.cycles,
    )
    print(stats)
    print(f"MC busy {machine.mcs[0].busy_cycles:.0f} of "
          f"{run.result.cycles:.0f} cycles — the rest of its control work "
          "hid behind the queue\n")

    # A slice of PE0's instruction trace around the inner loop.
    records = machine.pe(0).cpu.trace_records
    inner = [r for r in records if r.instr.mnemonic == "MULU"][:6]
    print("first data-dependent multiplies on PE0 (elapsed varies with "
          "the broadcast max):")
    print(format_trace(inner, limit=6))
    print()

    # Activity timeline for all four PEs, with their fetch-wait lanes
    # (q = waiting on an empty Fetch Unit Queue).
    print(render_gantt(machine_events(machine, label=f"simd p={P}"),
                       width=70))
    print()

    # What the PEs were actually fed: the MIMD text for comparison.
    mimd = build_parallel_programs(
        MatmulLayout(N, P), added_multiplies=0, barrier=False,
        device_symbols=CFG.device_symbols(),
    )[0]
    listing = disassemble(mimd, device_symbols=CFG.device_symbols())
    print("for reference, the equivalent MIMD program (first 12 lines):")
    print("\n".join(listing.splitlines()[:12]))


if __name__ == "__main__":
    main()
