"""Transfer registers and the byte-moving fabric.

The network appears to each PE as memory-mapped **transmit** and
**receive** registers plus a status register:

* writing the transmit register hands one byte to the network; the
  hardware refuses to overwrite an un-consumed byte (the write stalls the
  bus in SIMD mode, while MIMD programs poll TX_READY first);
* reading the receive register consumes one byte (stalling until one is
  valid in SIMD mode; MIMD programs poll RX_VALID first);
* the status register exposes ``TX_READY`` (bit 0) and ``RX_VALID``
  (bit 1) without blocking.

A :class:`NetworkFabric` owns one :class:`TransferPort` per terminal and
carries bytes over each established circuit from the source's transmit
register to the destination's receive register with a fixed transport
latency.  How it carries them depends on the engine tier:

* pure events (the reference): each register is a 1-deep
  :class:`~repro.sim.resources.Store` and a mover process per circuit
  gets a byte, waits out the latency and puts it;
* the fast tier: one :class:`Pipe` per circuit computes the same
  schedule as a max-plus recurrence over the PEs' bus-true access
  stamps, with no mover process, no register stores and no flush of the
  accessing PE's local clock, and a :class:`StatusRegister` per port
  answers a status read from the two pipes it samples.  Both are
  stamped channels (:mod:`repro.sim.channel`).
"""

from __future__ import annotations

from collections import deque

from repro.network.circuit import Circuit, CircuitSwitchedNetwork
from repro.sim import Environment, Store
from repro.sim.channel import NEG_INF as _NEG_INF
from repro.sim.channel import StampedChannel, carry
from repro.sim.lockstep import fire_event

#: Status-register bits.
TX_READY = 0x01
RX_VALID = 0x02

#: Status reads resumed one inside another; a deeper one waits for its
#: event, so the recursion stays shallow.
_MAX_WAKE_DEPTH = 8


class Pipe(StampedChannel):
    """One circuit's TX register, byte mover and RX register, stamped.

    A 1-deep TX register, a one-byte mover with latency ``L`` and a
    1-deep RX register form a tandem queue with blocking.  For byte k,
    with ``w_k``/``r_k`` the bus-true instants at which the writer and
    the reader access their registers, its event times are the max-plus
    recurrence

    * ``W_k = max(w_k, G_{k-1})`` — the write completes (TX is free);
    * ``G_k = max(W_k, P_{k-1})`` — the mover takes the byte;
    * ``P_k = max(G_k + L, R_{k-1})`` — the byte is delivered into RX;
    * ``R_k = max(r_k, P_k)`` — the read completes,

    exactly the instants at which the store-and-mover model of the pure
    event engine completes the same operations.  Each term is settled as
    soon as its inputs are known; each sequence runs at most one byte
    ahead of the next, so the pipe keeps one value of each plus the
    bytes in flight (at most four).

    ``settle(stamp, value)`` writes and ``settle(stamp)`` reads (the
    stamped-channel interface); a parked access's event is a *carrier*
    the pipe schedules at the instant its term settles.  ``latency``
    None is a terminal with no circuit: the first byte written stays in
    TX, and nothing ever arrives.  ``writer`` and ``reader`` are the
    ports at its ends.
    """

    __slots__ = (
        "env", "latency", "writer", "reader", "_bytes",
        "n_w", "W", "n_g", "G", "n_p", "P", "Pg", "n_r", "R",
        "_w_stamp", "_w_ev", "_r_stamp", "_r_ev", "carriers",
    )

    def __init__(self, env: Environment, latency: float | None,
                 writer: "TransferPort | None",
                 reader: "TransferPort | None") -> None:
        self.env = env
        self.latency = latency
        self.writer = writer
        self.reader = reader
        self._bytes: deque[int] = deque()  #: written, not yet read
        # Settled terms: counts, and the value of the last one (the
        # recurrence reads no older term).  ``Pg`` is G of the byte
        # whose delivery is ``P``.
        self.n_w = 0
        self.W = _NEG_INF
        self.n_g = 0
        self.G = _NEG_INF
        self.n_p = 0
        self.P = _NEG_INF
        self.Pg = _NEG_INF
        self.n_r = 0
        self.R = _NEG_INF
        # The one parked access per side (each side is one sequential PE).
        self._w_stamp = _NEG_INF
        self._w_ev = None
        self._r_stamp = _NEG_INF
        self._r_ev = None
        self.carriers = 0  #: parked accesses served by a carrier event

    # -- accesses ---------------------------------------------------------
    def settle(self, stamp: float, value: int | None = None):
        """``(W_k, None)`` for the write of ``value`` (None while
        ``G_{k-1}`` is unknown), or ``(R_k, byte)`` for a read (None
        while ``P_k`` is unknown)."""
        if value is None:
            if self.n_p == self.n_r:
                return None
            p = self.P
            t = stamp if stamp > p else p
            self.n_r += 1
            self.R = t
            value = self._bytes.popleft()
            self.reader.bytes_received += 1
            self._settle()
            return t, value
        if self.n_g < self.n_w:
            return None
        g = self.G
        t = stamp if stamp > g else g
        self._bytes.append(value & 0xFF)
        self.writer.bytes_sent += 1
        self.n_w += 1
        self.W = t
        self._settle()
        return t, None

    def park(self, stamp: float, value: int | None = None):
        """The carrier of a write (or read) :meth:`settle` refused."""
        ev = self.env.event(name="net:park")
        if value is None:
            self.reader.bytes_received += 1
            self._r_stamp = stamp
            self._r_ev = ev
            self.reader.pe_parks(stamp)
        else:
            self._bytes.append(value & 0xFF)
            self.writer.bytes_sent += 1
            self._w_stamp = stamp
            self._w_ev = ev
            self.writer.pe_parks(stamp)
        return ev

    def horizon(self) -> float:
        """Every settled term is an event on the pure tier's heap (the
        store hops at ``W``, ``G``, ``P`` and ``R``, and the mover's
        latency timeout at ``G + L`` even while the delivery waits on a
        read), and a parked access's stamp is bus-true time its PE
        flushed onto the heap before blocking."""
        t = self.W
        for u in (self.P, self.R):
            if u > t:
                t = u
        if self.latency is not None and self.G + self.latency > t:
            t = self.G + self.latency
        if self._w_ev is not None and self._w_stamp > t:
            t = self._w_stamp
        if self._r_ev is not None and self._r_stamp > t:
            t = self._r_stamp
        return t

    # -- status ----------------------------------------------------------
    def tx_ready(self, t: float) -> bool | None:
        """TX_READY sampled at instant ``t`` by the writer.

        Set iff no byte was written or the mover took the last one
        before ``t``.  A take at exactly ``t`` is a zero-delay hop
        scheduled at ``t``, after the sample.  A take not yet settled
        waits on a read not yet made: clear once its lower bound reaches
        ``t``, else None (undecided)."""
        if self.n_w == 0:
            return True
        if self.n_g == self.n_w:
            return self.G < t
        if self.latency is None:
            return False
        bound = max(self.G + self.latency, self.P, self.reader.clock)
        return False if bound >= t else None

    def rx_valid(self, t: float, c: float) -> bool | None:
        """RX_VALID sampled at instant ``t`` by the reader, by an access
        of ``c`` cycles.

        Set iff the next unread byte was delivered before ``t``, or at
        ``t`` by a latency timeout that was scheduled (at its take)
        before the sample's own ``c``-cycle access event.  A delivery
        not yet settled waits on a write not yet made: clear once its
        lower bound passes ``t``, else None (undecided)."""
        if self.n_p > self.n_r:
            p = self.P
            return p < t or (p == t and self.Pg < t - c)
        if self.latency is None:
            return False
        bound = max(self.writer.clock, self.P) + self.latency
        return False if bound > t else None

    # -- the recurrence ---------------------------------------------------
    def _settle(self) -> None:
        """Settle every term whose inputs are known, and schedule the
        carrier of a parked access whose term settled."""
        L = self.latency
        if L is None:
            return
        while True:
            progressed = False
            if self.n_w > self.n_g and self.n_p == self.n_g:
                w, p = self.W, self.P
                self.G = w if w > p else p
                self.n_g += 1
                progressed = True
            if self.n_g > self.n_p and self.n_r == self.n_p:
                g = self.G
                p = g + L
                if self.R > p:
                    p = self.R
                self.P = p
                self.Pg = g
                self.n_p += 1
                progressed = True
            ev = self._r_ev
            if ev is not None and self.n_p > self.n_r:
                p = self.P
                t = self._r_stamp if self._r_stamp > p else p
                self.n_r += 1
                self.R = t
                self._r_ev = None
                self.carriers += 1
                carry(self.env, ev, t, (t, self._bytes.popleft()))
                progressed = True
            ev = self._w_ev
            if ev is not None and self.n_g == self.n_w:
                g = self.G
                t = self._w_stamp if self._w_stamp > g else g
                self.n_w += 1
                self.W = t
                self._w_ev = None
                self.carriers += 1
                carry(self.env, ev, t, (t, None))
                progressed = True
            if not progressed:
                return


class StatusRegister(StampedChannel):
    """A port's status register on the fast tier, sampled from its pipes.

    A read stamped ``s`` samples at ``t = s + c``, the end of its
    ``c``-cycle access.  :meth:`settle` answers when both bits are
    decided (:meth:`Pipe.tx_ready`, :meth:`Pipe.rx_valid`); otherwise
    :meth:`park` schedules one event at ``t``, by which every stamp below
    ``t`` is in, so an undecided bit is clear.  A partner that parks
    itself having decided the read withdraws the event and resumes the
    reader at once (:meth:`poke`, :meth:`TransferPort.pe_parks`).
    """

    __slots__ = ("env", "port", "c", "_parked")

    def __init__(self, env: Environment, port: "TransferPort",
                 c: float) -> None:
        self.env = env
        self.port = port
        self.c = c  #: cycles of one access
        self._parked = None  #: ``(t, event, sample)`` of a parked read

    def settle(self, stamp: float):
        """``(stamp, status)`` once both bits are decided, else None."""
        status = self.sample(stamp + self.c)
        return None if status is None else (stamp, status)

    def park(self, stamp: float):
        """The event that fires with ``(stamp, status)`` at the sample."""
        t = stamp + self.c
        self.port.pe_parks(t)
        ev = self.env.event(name="net:status")

        def sample(ev) -> None:
            self._parked = None
            ev._value = stamp, self.sample(t, True)

        ev.callbacks.append(sample)
        self.env.schedule(ev, t - self.env.now)
        self._parked = (t, ev, sample)
        return ev

    def poke(self) -> None:
        """Resume the parked read now if it is decided (depth-bounded:
        the resumed PE's own park may poke others)."""
        parked, env = self._parked, self.env
        if (parked and env.resume_depth < _MAX_WAKE_DEPTH
                and self.sample(parked[0]) is not None):
            env.withdraw(parked[2])
            env.resume_depth += 1
            try:
                fire_event(parked[1], None)
            finally:
                env.resume_depth -= 1

    def sample(self, t: float, final: bool = False) -> int | None:
        """The status at ``t``, None while a bit is undecided; ``final``
        (every stamp below ``t`` is in) clears an undecided bit."""
        port = self.port
        tx = port.tx_pipe.tx_ready(t)
        rx = port.rx_pipe.rx_valid(t, self.c)
        if not final and (tx is None or rx is None):
            return None
        return (TX_READY if tx else 0) | (RX_VALID if rx else 0)


class TransferPort:
    """One PE's network interface registers.

    On the pure-event tier the registers are 1-deep stores and the
    generator methods below access them; on the fast tier the port
    holds the :class:`Pipe` its TX register feeds (``tx_pipe``) and the
    one its RX register drains (``rx_pipe``), and the PE bus accesses
    those directly.  ``clock`` is then a lower bound on every stamp the
    port's PE will yet make.
    """

    def __init__(self, env: Environment, terminal: int,
                 fast_path: bool = False) -> None:
        self.env = env
        self.terminal = terminal
        self.bytes_sent = 0
        self.bytes_received = 0
        self.clock = 0.0
        self.status_reg: StatusRegister | None = None  #: set by the PE bus
        if fast_path:
            self._tx = self._rx = None
            self.tx_pipe = Pipe(env, None, self, None)
            self.rx_pipe = Pipe(env, None, None, self)
        else:
            self._tx = Store(env, capacity=1, name=f"tx{terminal}")
            self._rx = Store(env, capacity=1, name=f"rx{terminal}")
            self.tx_pipe = self.rx_pipe = None

    def pe_parks(self, t: float) -> None:
        """The PE parks until at least ``t``: raise the clock to ``t``, and
        resume a partner's status read that its accesses so far decide —
        the writer's into this port's RX pipe (its TX_READY) and the
        reader's of its TX pipe (RX_VALID).  Resuming a reader only when
        its partner parks lets each run as far as it can."""
        self.clock = t
        for port in (self.rx_pipe.writer, self.tx_pipe.reader):
            if port is not None and port.status_reg is not None:
                port.status_reg.poke()

    # -- PE-side operations (generators; may block) ---------------------
    def write_tx(self, value: int):
        """Generator: hand a byte to the network (blocks while TX busy)."""
        self.bytes_sent += 1
        yield self._tx.put(value & 0xFF)

    def read_rx(self):
        """Generator: consume a received byte (blocks until RX valid)."""
        value = yield self._rx.get()
        self.bytes_received += 1
        return value

    def status(self) -> int:
        """Non-blocking status-register value (pure-event tier)."""
        s = 0
        if not self._tx.is_full:
            s |= TX_READY
        if not self._rx.is_empty:
            s |= RX_VALID
        return s


class NetworkFabric:
    """Carries bytes over established circuits.

    Parameters
    ----------
    env:
        Simulation environment.
    network:
        The circuit allocator (topology + faults + claims).
    byte_latency:
        Transport cycles for one byte from transmit to receive register
        through the established circuit.
    fast_path:
        Engine tier: True carries each circuit's bytes on a stamped
        :class:`Pipe`, False on a mover process between register stores.
    """

    def __init__(
        self,
        env: Environment,
        network: CircuitSwitchedNetwork,
        byte_latency: int = 8,
        fast_path: bool = False,
    ) -> None:
        self.env = env
        self.network = network
        self.byte_latency = byte_latency
        self.fast_path = fast_path
        self.ports = [
            TransferPort(env, t, fast_path)
            for t in range(network.topology.n_terminals)
        ]
        self._movers: list = []  #: mover processes (pure events)

    def connect(self, source: int, dest: int) -> Circuit:
        """Establish a circuit and start carrying bytes along it."""
        circuit = self.network.allocate(source, dest)
        self._carry(circuit)
        return circuit

    def connect_permutation(self, mapping: dict[int, int]) -> list[Circuit]:
        """Establish circuits for a (partial) permutation, all carrying."""
        circuits = self.network.allocate_permutation(mapping)
        for circuit in circuits:
            self._carry(circuit)
        return circuits

    def _carry(self, circuit: Circuit) -> None:
        source, dest = circuit.path.source, circuit.path.dest
        if self.fast_path:
            pipe = Pipe(self.env, self.byte_latency, self.ports[source],
                        self.ports[dest])
            self.ports[source].tx_pipe = pipe
            self.ports[dest].rx_pipe = pipe
        else:
            self._movers.append(self.env.process(
                self._mover(circuit), name=f"net:{source}->{dest}"))

    def close(self) -> None:
        """Break the run's reference cycles once the machine is done.

        A mover parked on its TX register is a cycle (process, generator
        frame, port, register store, waiter event), and so is a pipe with
        the ports at its ends; either would keep the environment alive
        until the cyclic collector ran."""
        for mover in self._movers:
            mover.generator.close()
        for pipe in self.pipes():
            pipe.writer = pipe.reader = None
        for port in self.ports:
            port.status_reg = None

    def pipes(self) -> list[Pipe]:
        """Every pipe a port accesses (fast tier; empty on pure events)."""
        if not self.fast_path:
            return []
        return list({id(p): p for port in self.ports
                     for p in (port.tx_pipe, port.rx_pipe)}.values())

    def _mover(self, circuit: Circuit):
        src_port = self.ports[circuit.path.source]
        dst_port = self.ports[circuit.path.dest]
        while True:
            value = yield src_port._tx.get()
            yield self.env.timeout(self.byte_latency)
            yield dst_port._rx.put(value)
