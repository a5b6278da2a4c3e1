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
  accessing PE's local clock.
"""

from __future__ import annotations

from collections import deque

from repro.network.circuit import Circuit, CircuitSwitchedNetwork
from repro.sim import Environment, Store

#: Status-register bits.
TX_READY = 0x01
RX_VALID = 0x02

_NEG_INF = float("-inf")


class Pipe:
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

    :meth:`write` and :meth:`read` serve an access whose term is already
    determined and return its completion instant; otherwise they return
    None and register nothing.  :meth:`park_write` / :meth:`park_read`
    then register the access on an event that the pipe schedules, as a
    *carrier*, at the instant the term settles.  ``latency`` None is a
    terminal with no circuit: the first byte written stays in TX, and
    nothing ever arrives.
    """

    __slots__ = (
        "env", "latency", "_bytes",
        "n_w", "W", "n_g", "G", "n_p", "P", "Pg", "n_r", "R",
        "_w_stamp", "_w_ev", "_r_stamp", "_r_ev", "carriers",
    )

    def __init__(self, env: Environment, latency: float | None) -> None:
        self.env = env
        self.latency = latency
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
    def write(self, stamp: float, value: int) -> float | None:
        """Complete the write of ``value`` stamped ``stamp`` and return
        ``W_k``, or None (nothing registered) while ``G_{k-1}`` is
        unknown."""
        if self.n_g < self.n_w:
            return None
        g = self.G
        t = stamp if stamp > g else g
        self._bytes.append(value & 0xFF)
        self.n_w += 1
        self.W = t
        self._settle()
        return t

    def read(self, stamp: float) -> tuple[float, int] | None:
        """Complete the read stamped ``stamp`` and return ``(R_k,
        byte)``, or None (nothing registered) while ``P_k`` is
        unknown."""
        if self.n_p == self.n_r:
            return None
        p = self.P
        t = stamp if stamp > p else p
        self.n_r += 1
        self.R = t
        value = self._bytes.popleft()
        self._settle()
        return t, value

    def park_write(self, stamp: float, value: int):
        """Register a write :meth:`write` refused; return the event that
        fires with ``W_k`` at ``W_k``."""
        ev = self.env.event(name="net:tx")
        self._bytes.append(value & 0xFF)
        self._w_stamp = stamp
        self._w_ev = ev
        return ev

    def park_read(self, stamp: float):
        """Register a read :meth:`read` refused; return the event that
        fires with ``(R_k, byte)`` at ``R_k``."""
        ev = self.env.event(name="net:rx")
        self._r_stamp = stamp
        self._r_ev = ev
        return ev

    def horizon(self) -> float:
        """The latest instant the pure event tier's heap reaches for this
        pipe (-inf if none): every settled term is an event there (the
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

    # -- status -----------------------------------------------------------
    def tx_ready(self, t: float) -> bool:
        """TX_READY sampled at instant ``t`` by the writer.

        Set iff no byte was written or the mover took the last one
        before ``t``.  A take at exactly ``t`` is a zero-delay hop
        scheduled at ``t``, after the sample; a take not yet settled
        lies beyond ``t``."""
        return self.n_w == 0 or (self.n_g == self.n_w and self.G < t)

    def rx_valid(self, t: float, c: float) -> bool:
        """RX_VALID sampled at instant ``t`` by the reader, by an access
        of ``c`` cycles.

        Set iff the next unread byte was delivered before ``t``, or at
        ``t`` by a latency timeout that was scheduled (at its take)
        before the sample's own ``c``-cycle access event.  A delivery
        not yet settled lies beyond ``t``."""
        if self.n_p == self.n_r:
            return False
        p = self.P
        return p < t or (p == t and self.Pg < t - c)

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
                self._carry(ev, t, (t, self._bytes.popleft()))
                progressed = True
            ev = self._w_ev
            if ev is not None and self.n_g == self.n_w:
                g = self.G
                t = self._w_stamp if self._w_stamp > g else g
                self.n_w += 1
                self.W = t
                self._w_ev = None
                self._carry(ev, t, t)
                progressed = True
            if not progressed:
                return

    def _carry(self, ev, t: float, value) -> None:
        """Fire parked ``ev`` with ``value`` at ``t`` (>= env.now: the
        stamp that settled it was taken no earlier)."""
        ev._value = value
        self.carriers += 1
        self.env.schedule(ev, t - self.env.now)


class TransferPort:
    """One PE's network interface registers.

    On the pure-event tier the registers are 1-deep stores and the
    generator methods below access them; on the fast tier the port
    holds the :class:`Pipe` its TX register feeds (``tx_pipe``) and the
    one its RX register drains (``rx_pipe``), and the PE bus accesses
    those directly.
    """

    def __init__(self, env: Environment, terminal: int,
                 fast_path: bool = False) -> None:
        self.env = env
        self.terminal = terminal
        self.bytes_sent = 0
        self.bytes_received = 0
        if fast_path:
            self._tx = self._rx = None
            self.tx_pipe = Pipe(env, None)
            self.rx_pipe = Pipe(env, None)
        else:
            self._tx = Store(env, capacity=1, name=f"tx{terminal}")
            self._rx = Store(env, capacity=1, name=f"rx{terminal}")
            self.tx_pipe = self.rx_pipe = None

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

    def status_at(self, t: float, c: float) -> int:
        """Status-register value sampled at instant ``t`` by an access of
        ``c`` cycles (fast tier)."""
        s = 0
        if self.tx_pipe.tx_ready(t):
            s |= TX_READY
        if self.rx_pipe.rx_valid(t, c):
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
            pipe = Pipe(self.env, self.byte_latency)
            self.ports[source].tx_pipe = pipe
            self.ports[dest].rx_pipe = pipe
        else:
            self._movers.append(self.env.process(
                self._mover(circuit), name=f"net:{source}->{dest}"))

    def close(self) -> None:
        """Stop the mover processes once the machine's run is over.

        A mover parked on its TX register is a reference cycle (process,
        generator frame, port, register store, waiter event) that would
        keep the environment alive until the cyclic collector ran."""
        for mover in self._movers:
            mover.generator.close()

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
