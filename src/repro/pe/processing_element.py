"""Processing Element model.

Each PE is a processor/memory pair plus the address-decode logic that makes
PASM's mode switching work:

* instruction fetches from **main RAM** run the PE's own (MIMD) program;
* any access to the reserved **SIMD instruction space** becomes a request
  to the MC's Fetch Unit Queue — an instruction fetch there receives the
  next broadcast instruction (SIMD mode), while a *data read* there is the
  barrier-synchronization trick (the PE proceeds only when all enabled PEs
  have read);
* the **network transfer registers** move bytes over the established
  circuit, blocking in hardware when not ready (SIMD's implicit
  synchronization) or polled via the status register (MIMD).

Mode switching is therefore "reduced to executing a jump instruction":
jumping into SIMD space starts consuming broadcast instructions; a
broadcast jump back to PE memory resumes the MIMD program.
"""

from __future__ import annotations

from repro.errors import BusError, ConfigurationError, SimulationError
from repro.fetch_unit.queue import FetchUnitQueue
from repro.m68k.assembler import AssembledProgram
from repro.m68k.bus import access_count
from repro.m68k.cpu import CPU
from repro.m68k.instructions import Instruction
from repro.machine.config import PrototypeConfig
from repro.memory.map import RegionKind
from repro.memory.module import MemoryModule
from repro.network.transfer import TransferPort
from repro.sim.events import PENDING
from repro.sim.localtime import LocalTimeBus


class PEBus(LocalTimeBus):
    """The PE's address decoder / bus timing model.

    With ``fast_path`` enabled (see :mod:`repro.sim.localtime`), private
    charges — main-RAM traffic and internal cycles — accrue in the local
    clock, and the bus flushes only for a sampling access (network
    status, timer).  It meets the Fetch Unit Queue in lockstep (see
    :mod:`repro.sim.lockstep`) and the network on its port's pipes
    (:class:`~repro.network.transfer.Pipe`): a ``NETTX`` write or
    ``NETRX`` read passes its bus-true stamp, the fast twins
    :meth:`try_write`/:meth:`try_read` serve it when the pipe has
    settled its term, and the generator protocol parks on the pipe's
    carrier otherwise; either way the bus continues locally from the
    settled instant plus the access.  ``flush_net`` (PEs with a
    scheduled fail-stop) flushes before each transfer access instead.
    The queue and the fabric must run on the same tier.
    """

    def __init__(
        self,
        env,
        config: PrototypeConfig,
        memory: MemoryModule,
        port: TransferPort | None,
        queue: FetchUnitQueue | None,
        pe_slot: int,
        name: str = "pe",
        fast_path: bool | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.map = config.memory_map()
        self.memory = memory
        self.port = port
        self.queue = queue
        self.pe_slot = pe_slot
        self.name = name
        self.instructions: dict[int, Instruction] = {}
        # Region decode caches (the map is immutable after build).  The
        # instruction stream has near-perfect region locality (PC walks
        # one region at a time), so fetches keep the last region.  Data
        # accesses keep the last region too — streaming pointers
        # ((A0)+/(A1)+) advance monotonically within one region, so a
        # bounds check beats per-address memoization — with a per-address
        # dict behind it for access patterns that alternate regions
        # (main RAM ↔ network ports in transfer blocks).
        self._fetch_region = None
        self._data_region = None
        self._data_regions: dict = {}
        # -- instrumentation ------------------------------------------------
        self.stream_accesses = 0
        self.data_accesses = 0
        self.queue_fetches = 0
        self.net_bytes_sent = 0
        self.net_bytes_received = 0
        self.sync_reads = 0
        self.lockstep_rendezvous = 0  #: stamped requests issued
        self._req_ev = None  #: recycled request event (one pending max)
        self._simd_ws = 0  #: SIMD-space wait states, stashed at request
        # -- tracing ---------------------------------------------------------
        #: When set, the four blocking sites record (kind, t0, t1) wait
        #: intervals: from the stamp to the settled instant on the fast
        #: tier (a lockstep fetch's in CPU.step_released), and between
        #: bus-true instants on pure events, so every interval is exact.
        self.trace_waits = False
        self.wait_spans: list[tuple[str, float, float]] = []
        self._init_local_clock(fast_path, config.refresh)
        #: Fast tier: flush the local clock before each network register
        #: access, so no stamp passes a scheduled fail-stop strike (set
        #: by PASMMachine for such PEs); False serves accesses stamped.
        self.flush_net = False
        if queue is not None and queue.fast_path != self.fast_path:
            raise ConfigurationError(
                f"{name}: bus and Fetch Unit Queue run on different engine "
                f"tiers (fast_path={self.fast_path}, "
                f"queue.fast_path={queue.fast_path})"
            )
        #: Main-RAM bounds the CPU may replay superinstruction chains in
        #: (see CPU.run); only the fast tier chains.
        if self.fast_path:
            main = self.map.find(RegionKind.MAIN_RAM)
            self.chain_bounds = (main.start, main.end)
        simd = self.map.find(RegionKind.SIMD_SPACE)
        self._simd_bounds = (simd.start, simd.end)

    # ------------------------------------------------------------------
    def load_program(self, program: AssembledProgram) -> None:
        self.instructions.update(program.instructions)
        for addr, chunk in program.data:
            self.memory.load(addr, chunk)

    def _fregion(self, addr: int):
        region = self._fetch_region
        if region is None or not (region.start <= addr < region.end):
            region = self.map.lookup(addr)  # raises on unmapped addresses
            self._fetch_region = region
        return region

    def _dregion(self, addr: int):
        region = self._data_region
        if region is not None and region.start <= addr < region.end:
            return region
        region = self._data_regions.get(addr)
        if region is None:
            region = self.map.lookup(addr)  # raises on unmapped addresses
            self._data_regions[addr] = region
        self._data_region = region
        return region

    # -- CPU bus protocol -------------------------------------------------
    # -- non-generator fast ops (fast path only; None/False = fall back
    # to the generator protocol) ----------------------------------------
    def try_fetch_instruction(self, addr: int):
        """Fetch + charge entirely locally, or None to use the generator.

        Hot path: the region lookup is inlined (same arithmetic as
        :meth:`_fregion`).
        """
        if not self.fast_path:
            return None
        region = self._fetch_region
        if region is None or not (region.start <= addr < region.end):
            region = self.map.lookup(addr)
            self._fetch_region = region
        if region.kind is not RegionKind.MAIN_RAM:
            return None
        instr = self.instructions.get(addr)
        if instr is None:
            return None  # generator path raises the BusError
        n = instr._encoded_words_cache
        if n is None:
            n = instr.encoded_words()
        self.stream_accesses += n
        cycles = self._ram_cycles(n, region.wait_states)
        self._local += cycles
        return instr

    def try_fetch_stream_words(self, addr: int, n: int) -> bool:
        if not self.fast_path:
            return False
        region = self._fregion(addr)
        self.stream_accesses += n
        if region.kind is RegionKind.MAIN_RAM:
            cycles = self._ram_cycles(n, region.wait_states)
        else:
            cycles = n * (4 + region.wait_states)
        self._local += cycles
        return True

    def try_read(self, addr: int, size: int):
        """Local read value, or None to use the generator protocol."""
        if not self.fast_path:
            return None
        region = self._data_region
        if region is None or not (region.start <= addr < region.end):
            region = self._dregion(addr)
        if region.kind is not RegionKind.MAIN_RAM:
            if region.kind is RegionKind.NET_RX and not self.flush_net:
                stamp = self.env.now + self._local
                got = self.port.rx_pipe.read(stamp)
                if got is not None:
                    return self._net_read_done(region, stamp, got)
            return None
        n = 2 if size == 4 else 1
        self.data_accesses += n
        cycles = self._ram_cycles(n, region.wait_states)
        self._local += cycles
        return self.memory.read(addr, size)

    def try_write(self, addr: int, value: int, size: int) -> bool:
        if not self.fast_path:
            return False
        region = self._data_region
        if region is None or not (region.start <= addr < region.end):
            region = self._dregion(addr)
        if region.kind is not RegionKind.MAIN_RAM:
            if (region.kind is RegionKind.NET_TX and size == 1
                    and not self.flush_net):
                stamp = self.env.now + self._local
                t = self.port.tx_pipe.write(stamp, value)
                if t is not None:
                    self._net_write_done(region, stamp, t)
                    return True
            return False
        n = 2 if size == 4 else 1
        self.data_accesses += n
        cycles = self._ram_cycles(n, region.wait_states)
        self._local += cycles
        self.memory.write(addr, value, size)
        return True

    def try_queue_fetch(self, addr: int, stepper):
        """Lockstep fast twin of the SIMD-space instruction fetch.

        Stamps the fetch at this PE's bus-true time and registers it
        (:meth:`request_queue_fetch`); ``None`` falls back to the
        generator protocol (not in SIMD space, no Fetch Unit attached,
        or pure events).  A traced PE takes this path too.
        """
        if not self.fast_path:
            return None
        region = self._fetch_region
        if region is None or not (region.start <= addr < region.end):
            region = self.map.lookup(addr)
            self._fetch_region = region
        if region.kind is not RegionKind.SIMD_SPACE:
            return None
        if self.queue is None:
            return None  # generator path raises the BusError
        self._simd_ws = region.wait_states
        arrival = self.env.now + self._local
        self._local = 0.0
        self.lockstep_rendezvous += 1
        return self.request_queue_fetch(arrival, stepper)

    def request_queue_fetch(self, arrival: float, stepper):
        """Register the SIMD-space fetch stamped ``arrival`` (the local
        clock already restarted from it) and return the event the CPU
        loop parks on directly: one ``yield``, no sub-generator frames.

        When this stamp completes the rendezvous the queue may resolve
        the release *synchronously*: the event comes back already fired
        and the CPU loop continues without parking at all.  While the
        loop is parked, the queue's release loop may step the PE through
        ``stepper`` (:meth:`~repro.m68k.cpu.CPU.step_released`); None
        keeps every release in the generator.
        """
        ev = self._req_ev
        if ev is not None and ev.callbacks is None:
            # Recycle: the previous request was delivered (carrier-fired,
            # never heap-scheduled), so the object is free again.
            ev.callbacks = []
            ev._value = PENDING
            ev._ok = True
        else:
            ev = self.env.event(name=f"req:{self.name}")
            self._req_ev = ev
        return self.queue.register_request_inline(self.pe_slot, arrival, ev,
                                                  stepper)

    # -- generator protocol ---------------------------------------------
    def fetch_instruction(self, addr: int):
        region = self._fregion(addr)
        if region.kind is RegionKind.MAIN_RAM:
            try:
                instr = self.instructions[addr]
            except KeyError:
                raise BusError(
                    f"{self.name}: no instruction at {addr:#x}"
                ) from None
            n = instr.encoded_words()
            self.stream_accesses += n
            yield from self.charge(self._ram_cycles(n, region.wait_states))
            return instr
        if region.kind is RegionKind.SIMD_SPACE:
            # Pure events only: the fast tier fetches here through
            # try_queue_fetch, which refuses only when no queue is
            # attached.  No local clock, so env.now is bus-true.
            if self.queue is None:
                raise BusError(f"{self.name}: no Fetch Unit attached")
            t0 = self.env.now
            item = yield from self.queue.request(self.pe_slot)
            if self.trace_waits and self.env.now > t0:
                self.wait_spans.append(("queue_wait", t0, self.env.now))
            if item.payload is None:
                raise SimulationError(
                    f"{self.name}: fetched a bare sync word as an instruction"
                )
            n = item.words
            self.queue_fetches += n
            self.stream_accesses += n
            # Queue fetches: static RAM, no refresh.
            yield self.env.sleep(n * (4 + region.wait_states))
            return item.payload
        raise BusError(
            f"{self.name}: cannot execute from {region.kind.value} at {addr:#x}"
        )

    def fetch_stream_words(self, addr: int, n: int):
        region = self._fregion(addr)
        self.stream_accesses += n
        if region.kind is RegionKind.MAIN_RAM:
            cycles = self._ram_cycles(n, region.wait_states)
        else:
            cycles = n * (4 + region.wait_states)
        yield from self.charge(cycles)

    def read(self, addr: int, size: int):
        region = self._dregion(addr)
        kind = region.kind
        if kind is RegionKind.MAIN_RAM:
            n = access_count(size)
            self.data_accesses += n
            yield from self.charge(self._ram_cycles(n, region.wait_states))
            return self.memory.read(addr, size)
        if kind is RegionKind.SIMD_SPACE:
            # Barrier: a data read from SIMD space consumes one queue word
            # and completes only when all enabled PEs have read it.
            if self.fast_path:
                # Lockstep rendezvous: no flush — pass the bus-true time
                # as the arrival stamp; the queue computes the release
                # instant and resumes us there with the clock rebased.
                arrival = self.env.now + self._local
                self._local = 0.0
                self.lockstep_rendezvous += 1
                item, released = yield self.queue.register_request_at(
                    self.pe_slot, arrival)
                self._local = released - self.env.now
                if self.trace_waits and released > arrival:
                    self.wait_spans.append(
                        ("barrier_wait", arrival, released))
            else:
                t0 = self.env.now
                item = yield from self.queue.request(self.pe_slot)
                if self.trace_waits and self.env.now > t0:
                    self.wait_spans.append(("barrier_wait", t0, self.env.now))
            if item.payload is not None:
                raise SimulationError(
                    f"{self.name}: barrier read consumed an instruction "
                    f"({item.payload})"
                )
            self.sync_reads += 1
            self.data_accesses += 1
            yield from self.charge(4 + region.wait_states)
            return 0
        if kind is RegionKind.NET_RX:
            if self.fast_path:
                # Stamped read: no flush (but for a PE that may fail-
                # stop); park only while the pipe cannot settle R_k.
                if self.flush_net:
                    yield from self.sync()
                stamp = self.env.now + self._local
                pipe = self.port.rx_pipe
                got = pipe.read(stamp)
                if got is None:
                    got = yield pipe.park_read(stamp)
                return self._net_read_done(region, stamp, got)
            t0 = self.env.now
            value = yield from self.port.read_rx()
            if self.trace_waits and self.env.now > t0:
                self.wait_spans.append(("net_rx_wait", t0, self.env.now))
            self.net_bytes_received += 1
            self.data_accesses += 1
            yield self.env.sleep(4 + region.wait_states)
            return value
        if kind is RegionKind.NET_STATUS:
            # Sampling access: flush, then issue the access charge as a
            # *real* event so the status sample happens at the same
            # event-loop point as on the pure-event path.
            yield from self.sync()
            self.data_accesses += 1
            c = 4 + region.wait_states
            yield self.env.sleep(c)
            if self.fast_path:
                return self.port.status_at(self.env.now, c)
            return self.port.status()
        if kind is RegionKind.TIMER:
            n = access_count(size)
            self.data_accesses += n
            # The timer *is* global time: charge the access, flush
            # everything, then sample env.now.
            yield from self.charge(n * (4 + region.wait_states))
            yield from self.sync()
            return int(self.env.now) & ((1 << (8 * size)) - 1)
        raise BusError(f"{self.name}: cannot read {kind.value} at {addr:#x}")

    def write(self, addr: int, value: int, size: int):
        region = self._dregion(addr)
        kind = region.kind
        if kind is RegionKind.MAIN_RAM:
            n = access_count(size)
            self.data_accesses += n
            yield from self.charge(self._ram_cycles(n, region.wait_states))
            self.memory.write(addr, value, size)
            return
        if kind is RegionKind.NET_TX:
            if size != 1:
                raise BusError(
                    f"{self.name}: network data path is 8 bits wide; "
                    f"{size}-byte write to NET_TX"
                )
            if self.fast_path:
                if self.flush_net:
                    yield from self.sync()
                stamp = self.env.now + self._local
                pipe = self.port.tx_pipe
                t = pipe.write(stamp, value)
                if t is None:
                    t = yield pipe.park_write(stamp, value)
                self._net_write_done(region, stamp, t)
                return
            t0 = self.env.now
            yield from self.port.write_tx(value)
            if self.trace_waits and self.env.now > t0:
                self.wait_spans.append(("net_tx_wait", t0, self.env.now))
            self.net_bytes_sent += 1
            self.data_accesses += 1
            yield self.env.sleep(4 + region.wait_states)
            return
        raise BusError(f"{self.name}: cannot write {kind.value} at {addr:#x}")

    # -- stamped network transfers (fast tier) ---------------------------
    def _net_read_done(self, region, stamp: float, got) -> int:
        """Finish a stamped NETRX read the pipe settled at ``R_k``
        (``got`` = ``(R_k, byte)``): the bus continues locally from
        ``R_k`` plus the access."""
        t, value = got
        if self.trace_waits and t > stamp:
            self.wait_spans.append(("net_rx_wait", stamp, t))
        self.port.bytes_received += 1
        self.net_bytes_received += 1
        self.data_accesses += 1
        c = 4 + region.wait_states
        self._local = t + c - self.env.now
        return value

    def _net_write_done(self, region, stamp: float, t: float) -> None:
        """Finish a stamped NETTX write the pipe settled at ``W_k =
        t``: the bus continues locally from ``t`` plus the access."""
        if self.trace_waits and t > stamp:
            self.wait_spans.append(("net_tx_wait", stamp, t))
        self.port.bytes_sent += 1
        self.net_bytes_sent += 1
        self.data_accesses += 1
        c = 4 + region.wait_states
        self._local = t + c - self.env.now


class ProcessingElement:
    """A PE: one MC68000 on a :class:`PEBus`."""

    def __init__(
        self,
        env,
        config: PrototypeConfig,
        physical_id: int,
        port: TransferPort | None = None,
        queue: FetchUnitQueue | None = None,
        pe_slot: int | None = None,
        fast_path: bool | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.physical_id = physical_id
        self.memory = MemoryModule(config.ram_size)
        self.bus = PEBus(
            env,
            config,
            self.memory,
            port,
            queue,
            pe_slot if pe_slot is not None else physical_id,
            name=f"PE{physical_id}",
            fast_path=fast_path,
        )
        self.cpu = CPU(env, self.bus, name=f"PE{physical_id}")

    def load_program(self, program: AssembledProgram, *, start_at=None) -> None:
        """Load code+data and point the CPU at the entry."""
        self.bus.load_program(program)
        self.cpu.reset(
            pc=start_at if start_at is not None else program.entry,
            sp=self.config.ram_size - 4,
        )

    def enter_simd_mode(self) -> None:
        """Point the CPU into the SIMD instruction space (mode switch)."""
        self.cpu.reset(pc=self.config.simd_space_base, sp=self.config.ram_size - 4)

    def run_process(self):
        """Create the PE's simulation process."""
        return self.env.process(self.cpu.run(), name=f"PE{self.physical_id}")
