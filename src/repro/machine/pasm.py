"""The PASM machine: partitioned PEs, MCs, network, and the four run modes.

A :class:`PASMMachine` instance owns one simulation environment and one
partition, and runs one workload.  The mode runners return a
:class:`MachineResult` with the makespan, per-PE and per-category cycle
breakdowns (the data behind the paper's Figures 6–12), and queue/network
statistics.

Timing convention: PEs start executing at t = 0 and the result's ``cycles``
is the time the *last* PE halts, matching the paper's measurement of total
execution time with the MC68230 interval timers.  The one-time network
circuit set-up is reported separately (``net_setup_cycles``) and not
included, as in the paper ("the measurements made do not reflect any
significant influence from network reconfiguration overhead").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, DeadlockError, PEFailStopError
from repro.faults.plan import FaultPlan
from repro.fetch_unit import (
    FetchUnitController, FetchUnitQueue, MaskRegister, StampedController,
    sync_item,
)
from repro.m68k.assembler import AssembledProgram
from repro.m68k.instructions import Instruction
from repro.m68k.timing import CYCLE_SECONDS
from repro.machine.config import PrototypeConfig
from repro.machine.modes import ExecutionMode
from repro.machine.partition import Partition
from repro.mc import MCOp, MicroController
from repro.network import CircuitSwitchedNetwork, ExtraStageCubeTopology, NetworkFabric
from repro.pe import ProcessingElement
from repro.sim import AllOf, Environment
from repro.sim.localtime import resolve_fast_path


class _FailStopSignal(BaseException):
    """Internal kill signal thrown into a fail-stopped PE's process.

    A BaseException so no ``except Exception`` handler on the PE's
    execution path can accidentally resurrect a dead board.
    """


@dataclass
class MachineResult:
    """Outcome of one machine run."""

    mode: ExecutionMode
    p: int
    cycles: float
    per_pe_cycles: dict[int, float]
    per_pe_categories: dict[int, dict[str, float]]
    instructions: int
    queue_stats: dict[int, dict[str, float]] = field(default_factory=dict)
    net_setup_cycles: float = 0.0
    mc_stats: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Makespan in wall seconds on the 8 MHz prototype."""
        return self.cycles * CYCLE_SECONDS

    def breakdown(self) -> dict[str, float]:
        """Mean per-PE cycles by timing category.

        The categories sum (plus idle/stall skew) to roughly the makespan;
        this is the quantity plotted in the paper's Figures 8–10.
        """
        if not self.per_pe_categories:
            return {}
        cats: dict[str, float] = {}
        for per_cat in self.per_pe_categories.values():
            for cat, cyc in per_cat.items():
                cats[cat] = cats.get(cat, 0.0) + cyc
        n = len(self.per_pe_categories)
        return {cat: cyc / n for cat, cyc in cats.items()}


class PASMMachine:
    """One partition of the simulated prototype, good for one run."""

    def __init__(
        self,
        config: PrototypeConfig | None = None,
        partition_size: int = 4,
        *,
        fault_plan: FaultPlan | None = None,
        fast_path: bool | None = None,
    ) -> None:
        """The partition is ``partition_size`` PEs on the MCs numbered
        from 0 up (see :class:`~repro.machine.partition.Partition`).

        ``fast_path`` selects the engine tier: lockstep (local-time
        clocks on the PE and MC buses plus the computed SIMD rendezvous,
        see :mod:`repro.sim.lockstep`) when true, the pure-event
        reference schedule when false; ``None`` defers to
        ``$REPRO_PURE_EVENTS`` (default: lockstep).  Results are
        bit-identical across both tiers.

        ``fault_plan`` injects failures into this run: its network faults
        are applied to the circuit allocator (with the extra stage
        enabled/bypassed per the plan, and the extra-stage transit
        penalty charged on every byte when enabled), and its fail-stopped
        PEs go silent at their strike times — detected at the next
        synchronization point within ``fault_plan.failstop_timeout``
        cycles via :class:`~repro.errors.PEFailStopError`."""
        self.config = config or PrototypeConfig.calibrated()
        self.partition = Partition(self.config, partition_size)
        self.fault_plan = fault_plan
        self.fast_path = resolve_fast_path(fast_path)
        if fault_plan is not None and fault_plan.failstops:
            physical = {
                self.partition.physical_pe(logical)
                for logical in range(self.partition.size)
            }
            outside = sorted(
                fs.pe for fs in fault_plan.failstops if fs.pe not in physical
            )
            if outside:
                raise ConfigurationError(
                    f"fail-stopped PE(s) {outside} are not in this "
                    f"partition (physical PEs {sorted(physical)})"
                )
        topo = ExtraStageCubeTopology(self.config.n_pes)
        if fault_plan is not None:
            fault_plan.check_elements(topo)
        self.env = Environment()
        extra_enabled = (fault_plan.extra_stage_enabled
                         if fault_plan is not None else False)
        byte_latency = self.config.net_byte_latency
        if extra_enabled:
            byte_latency += self.config.net_extra_stage_cycles
        self.network = CircuitSwitchedNetwork(
            topo,
            extra_stage_enabled=extra_enabled,
            faults=set(fault_plan.network_faults())
            if fault_plan is not None else set(),
            setup_cycles=self.config.net_setup_cycles,
        )
        self.fabric = NetworkFabric(
            self.env, self.network, byte_latency=byte_latency,
            fast_path=self.fast_path,
        )

        # Fetch Units and MCs, one per partition MC.
        self.masks: dict[int, MaskRegister] = {}
        self.queues: dict[int, FetchUnitQueue] = {}
        self.controllers: dict[int, FetchUnitController] = {}
        self.mcs: dict[int, MicroController] = {}
        for mc in self.partition.mcs:
            slots = tuple(self.partition.logical_pes_of_mc(mc))
            mask = MaskRegister(slots)
            queue = FetchUnitQueue(
                self.env, self.config.queue_capacity_words, name=f"fuq{mc}",
                fast_path=self.fast_path,
            )
            controller = (StampedController if self.fast_path
                          else FetchUnitController)(
                self.env,
                queue,
                mask,
                cycles_per_word=self.config.controller_cycles_per_word,
                name=f"fuc{mc}",
            )
            self.masks[mc] = mask
            self.queues[mc] = queue
            self.controllers[mc] = controller
            self.mcs[mc] = MicroController(
                self.env, self.config, mask, controller, name=f"MC{mc}",
            )

        # PEs, indexed by logical number.
        self.pes: list[ProcessingElement] = []
        for logical in range(self.partition.size):
            physical = self.partition.physical_pe(logical)
            mc = self.partition.mc_of_logical(logical)
            self.pes.append(
                ProcessingElement(
                    self.env,
                    self.config,
                    physical,
                    port=self.fabric.ports[physical],
                    queue=self.queues[mc],
                    pe_slot=logical,
                    fast_path=self.fast_path,
                )
            )
        self._net_setup_cycles = 0.0
        self._circuits = []
        self._started = False

    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        return self.partition.size

    def pe(self, logical: int) -> ProcessingElement:
        return self.pes[logical]

    def enable_tracing(self) -> None:
        """Arm per-instruction and bus-wait tracing on every PE.

        Turns on :attr:`repro.m68k.cpu.CPU.trace` (per-instruction
        :class:`~repro.m68k.cpu.InstructionRecord` s) and the PE bus's
        wait-span recording, the data behind the exported per-PE trace
        lanes (see :mod:`repro.obs.simtrace`).  Call before running a
        workload; off by default because the record lists cost memory
        and per-instruction appends.
        """
        for pe in self.pes:
            pe.cpu.trace = True
            pe.bus.trace_waits = True

    def connect_shift_circuit(self) -> None:
        """Establish the algorithm's single network setting.

        PE i sends to PE (i-1) mod p for the whole run; the set-up cost is
        recorded but, as in the paper, excluded from execution time.
        """
        mapping = self.partition.shift_permutation()
        self._circuits = self.fabric.connect_permutation(mapping)
        self._net_setup_cycles = self.network.setup_cycles

    # ------------------------------------------------------------------
    def _collect(self, mode: ExecutionMode) -> MachineResult:
        per_pe_cycles = {}
        per_pe_categories = {}
        instructions = 0
        for logical, pe in enumerate(self.pes):
            per_pe_categories[logical] = dict(pe.cpu.category_cycles)
            per_pe_cycles[logical] = sum(pe.cpu.category_cycles.values())
            instructions += pe.cpu.instruction_count
        queue_stats = {
            mc: {
                "releases": q.releases,
                "words_enqueued": q.words_enqueued,
                "high_water": q.high_water,
                "empty_stall_cycles": q.empty_stall_cycles,
            }
            for mc, q in self.queues.items()
        }
        mc_stats = {
            mc: {"busy_cycles": m.busy_cycles, "blocked_cycles": m.blocked_cycles}
            for mc, m in self.mcs.items()
        }
        return MachineResult(
            mode=mode,
            p=self.p,
            # The makespan is the last PE's finish time.
            cycles=max(per_pe_cycles.values(), default=self.env.now),
            per_pe_cycles=per_pe_cycles,
            per_pe_categories=per_pe_categories,
            instructions=instructions,
            queue_stats=queue_stats,
            net_setup_cycles=self._net_setup_cycles,
            mc_stats=mc_stats,
        )

    @property
    def rerouted_circuits(self) -> int:
        """Circuits of the current setting routed via the exchanged extra
        stage — non-zero only in degraded (fault-routing) operation."""
        return sum(
            1 for c in self._circuits if c.path.extra_exchanged
        )

    def _start_pes(self):
        if self._started:
            raise ConfigurationError(
                "this PASMMachine already ran a workload; simulated time "
                "is monotonic — create a fresh machine per run"
            )
        self._started = True
        strikes: dict[int, float] = {}
        if self.fault_plan is not None:
            strikes = {fs.pe: fs.at for fs in self.fault_plan.failstops}
        if strikes:
            # A strike must find every PE where the event schedule has
            # it: no broadcast instruction runs ahead of its release.
            for queue in self.queues.values():
                queue.may_run_ahead = False
        procs = []
        for pe in self.pes:
            at = strikes.get(pe.physical_id)
            if at is None:
                procs.append(pe.run_process())
                continue
            # A dead board must absorb the releases still addressed to
            # it in its own generator, never be stepped by the release loop,
            # and no network stamp of it may pass the strike.
            pe.cpu.steppable = False
            pe.bus.flush_net = True
            proc = self.env.process(
                self._mortal(pe), name=f"PE{pe.physical_id}"
            )
            self.env.process(
                self._assassin(proc, at, pe),
                name=f"failstop:PE{pe.physical_id}",
            )
            procs.append(proc)
        return AllOf(self.env, procs)

    def _mortal(self, pe: ProcessingElement):
        """Run a PE that may fail-stop: after the kill signal the board goes
        silent forever (its process never completes, and any stale event
        callback that still resumes it is absorbed without side effects).

        The kill also withdraws the charge the board was sleeping through
        (on the fast tier, the flush to the end of its private run): its
        end is past the strike, where the dead board never gets, so it
        must not set the watchdog's detection instant either."""
        try:
            yield from pe.cpu.run()
        except _FailStopSignal:
            self.env.withdraw(self.env.active_process._resume)
            while True:
                yield self.env.event(name=f"dead:PE{pe.physical_id}")

    def _assassin(self, proc, at: float, pe: ProcessingElement):
        yield self.env.timeout(at)
        if not proc.triggered:
            proc.interrupt(_FailStopSignal())
            queue = pe.bus.queue
            if self.fast_path and queue is not None:
                # A stamped request whose arrival lies beyond the strike
                # never registered in the event schedule (the PE died
                # mid-charge): withdraw it so it cannot complete a mask.
                queue.cancel_lockstep_request(pe.bus.pe_slot, after=at)

    def _watched_run(self, done) -> None:
        """Advance the simulation to ``done``, bounding the wait on dead PEs.

        Without fail-stops this is exactly ``env.run(until=done)``.  With
        them, a dead PE poisons the next synchronization point (SIMD
        broadcast, S/MIMD barrier, blocking transfer) and the run would
        either deadlock or spin on housekeeping events forever; this loop
        detects both — the event queue draining, or simulated time passing
        the last strike plus ``failstop_timeout`` — and raises a
        structured :class:`~repro.errors.PEFailStopError` instead.
        """
        plan = self.fault_plan
        if plan is None or not plan.failstops:
            self.env.run(until=done)
            return
        env = self.env
        deadline = max(fs.at for fs in plan.failstops) + plan.failstop_timeout
        while not done.processed:
            nxt = env.peek()
            if nxt == float("inf") or nxt > deadline:
                if nxt == float("inf"):
                    # Lockstep: what the stamped channels and the queues
                    # settled, and the stamps parked on them (surviving
                    # PEs' and MCs' unflushed clocks), are events the
                    # event schedule's heap would have reached.
                    channels = (*self.fabric.pipes(), *self.queues.values(),
                                *self.controllers.values())
                    virtual = max(env.now, *(c.horizon() for c in channels))
                    detected = deadline if virtual > deadline else virtual
                else:
                    detected = deadline
                dead = tuple(sorted(
                    fs.pe for fs in plan.failstops if fs.at <= detected
                ))
                if not dead:  # quiescent before any strike: a real deadlock
                    raise DeadlockError(
                        f"simulation deadlocked waiting for {done!r} "
                        f"at t={env.now}"
                    )
                names = ", ".join(f"PE{pe}" for pe in dead)
                raise PEFailStopError(
                    f"fail-stopped {names} never reached the next "
                    f"synchronization point (detected at t={detected:.0f}, "
                    f"bounded wait {plan.failstop_timeout:.0f} cycles past "
                    f"the last strike)",
                    pes=dead,
                    detected_at=detected,
                    timeout=plan.failstop_timeout,
                )
            env.step()
        if not done.ok:
            raise done.value

    def _run(self, mode: ExecutionMode) -> MachineResult:
        """Start the loaded PEs, run to completion, and collect."""
        try:
            self._watched_run(self._start_pes())
            return self._collect(mode)
        finally:
            # The controllers wait for commands, and the network movers
            # for bytes, for good: stop them, so the queues and the
            # environment are freed with the machine, not by the cyclic
            # collector.
            for controller in self.controllers.values():
                controller.close()
            self.fabric.close()

    # ------------------------------------------------------------------
    def run_serial(self, program: AssembledProgram) -> MachineResult:
        """SISD baseline: the whole problem on one PE."""
        if self.p != 1:
            raise ConfigurationError(
                f"serial runs use a size-1 partition, not {self.p}"
            )
        self.pes[0].load_program(program)
        return self._run(ExecutionMode.SERIAL)

    def run_mimd(self, programs: list[AssembledProgram]) -> MachineResult:
        """Pure MIMD: every PE runs its own program asynchronously."""
        self._load_programs(programs)
        return self._run(ExecutionMode.MIMD)

    def run_smimd(
        self, programs: list[AssembledProgram], sync_words: int
    ) -> MachineResult:
        """Hybrid S/MIMD: MIMD programs + queue-based barriers.

        ``sync_words`` barrier tokens per MC group are made available
        (pre-enqueued up to queue capacity, topped up by a zero-cost feeder
        standing in for the otherwise-idle MC, as Section 3 describes).
        """
        self._load_programs(programs)
        for mc in self.partition.mcs:
            queue = self.queues[mc]
            mask = self.masks[mc]
            remaining = sync_words
            while remaining and queue.try_enqueue(sync_item(mask.enabled)):
                remaining -= 1
            if remaining and self.fast_path:
                # Each token is admitted at the release that frees its
                # space, as a blocked enqueue is on pure events.
                queue.stage([(sync_item(mask.enabled), 0)] * remaining,
                            self.env.now)
            elif remaining:
                self.env.process(
                    self._sync_feeder(queue, mask, remaining),
                    name=f"syncfeed{mc}",
                )
        return self._run(ExecutionMode.SMIMD)

    def _sync_feeder(self, queue, mask, remaining: int):
        for _ in range(remaining):
            yield from queue.enqueue(sync_item(mask.enabled))

    def run_simd(
        self,
        mc_program: list[MCOp] | tuple[MCOp, ...],
        blocks: dict[str, list[Instruction]],
        data_programs: list[AssembledProgram] | None = None,
    ) -> MachineResult:
        """SIMD: PEs consume broadcast instructions; MCs run control flow.

        Parameters
        ----------
        mc_program:
            The control program, executed identically by every partition MC
            (each drives its own Fetch Unit, so groups may drift by data-
            dependent amounts — exactly as on the prototype).
        blocks:
            Straight-line instruction blocks to register in Fetch Unit RAM.
        data_programs:
            Optional per-PE programs whose *data segments* are loaded into
            PE memory (their text, if any, is ignored by SIMD execution).
        """
        self._enter_simd(blocks, data_programs)
        for mc_id in self.partition.mcs:
            mc = self.mcs[mc_id]
            self.env.process(mc.run_program(mc_program), name=f"MC{mc_id}")
        return self._run(ExecutionMode.SIMD)

    def run_simd_assembly(
        self,
        mc_program: AssembledProgram,
        blocks: dict[str, list[Instruction]],
        block_ids: dict[int, str],
        data_programs: list[AssembledProgram] | None = None,
    ) -> MachineResult:
        """SIMD whose MCs execute *real assembled 68000 code*.

        ``mc_program`` drives the Fetch Unit through the memory-mapped
        registers of :mod:`repro.mc.assembly_mc`; ``block_ids`` maps the
        program's FUCTRL values to registered block names.
        """
        from repro.mc.assembly_mc import AssemblyMicroController

        self._enter_simd(blocks, data_programs)
        self.assembly_mcs = {}
        for mc_id in self.partition.mcs:
            amc = AssemblyMicroController(
                self.env, self.config, self.masks[mc_id],
                self.controllers[mc_id], block_ids, name=f"MCasm{mc_id}",
                fast_path=self.fast_path,
            )
            amc.load_program(mc_program)
            amc.run_process()
            self.assembly_mcs[mc_id] = amc
        return self._run(ExecutionMode.SIMD)

    def _enter_simd(
        self,
        blocks: dict[str, list[Instruction]],
        data_programs: list[AssembledProgram] | None,
    ) -> None:
        """Load PE data, register the broadcast blocks, and switch every
        PE to consuming its Fetch Unit queue."""
        if data_programs is not None:
            self._check_program_count(data_programs)
            for pe, prog in zip(self.pes, data_programs):
                pe.bus.load_program(prog)
        for controller in self.controllers.values():
            for name, instrs in blocks.items():
                controller.register_block(name, instrs)
        for pe in self.pes:
            pe.enter_simd_mode()

    def _load_programs(self, programs: list[AssembledProgram]) -> None:
        self._check_program_count(programs)
        for pe, prog in zip(self.pes, programs):
            pe.load_program(prog)

    def _check_program_count(self, programs) -> None:
        if len(programs) != self.p:
            raise ConfigurationError(
                f"need {self.p} per-PE programs, got {len(programs)}"
            )
