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

A :class:`NetworkFabric` owns one :class:`TransferPort` per terminal and a
mover process per established circuit that carries bytes from the source's
transmit register to the destination's receive register with a fixed
transport latency.
"""

from __future__ import annotations

from repro.network.circuit import Circuit, CircuitSwitchedNetwork
from repro.sim import Environment, Store

#: Status-register bits.
TX_READY = 0x01
RX_VALID = 0x02


class TransferPort:
    """One PE's network interface registers."""

    def __init__(self, env: Environment, terminal: int) -> None:
        self.env = env
        self.terminal = terminal
        self._tx = Store(env, capacity=1, name=f"tx{terminal}")
        self._rx = Store(env, capacity=1, name=f"rx{terminal}")
        self.bytes_sent = 0
        self.bytes_received = 0

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
        """Non-blocking status-register value."""
        s = 0
        if not self._tx.is_full:
            s |= TX_READY
        if not self._rx.is_empty:
            s |= RX_VALID
        return s

    @property
    def tx_ready(self) -> bool:
        return bool(self.status() & TX_READY)

    @property
    def rx_valid(self) -> bool:
        return bool(self.status() & RX_VALID)


class NetworkFabric:
    """Binds established circuits to byte-mover simulation processes.

    Parameters
    ----------
    env:
        Simulation environment.
    network:
        The circuit allocator (topology + faults + claims).
    byte_latency:
        Transport cycles for one byte from transmit to receive register
        through the established circuit.
    """

    def __init__(
        self,
        env: Environment,
        network: CircuitSwitchedNetwork,
        byte_latency: int = 8,
    ) -> None:
        self.env = env
        self.network = network
        self.byte_latency = byte_latency
        self.ports = [
            TransferPort(env, t) for t in range(network.topology.n_terminals)
        ]

    def connect(self, source: int, dest: int) -> Circuit:
        """Establish a circuit and start carrying bytes along it."""
        circuit = self.network.allocate(source, dest)
        self.env.process(
            self._mover(circuit), name=f"net:{source}->{dest}"
        )
        return circuit

    def connect_permutation(self, mapping: dict[int, int]) -> list[Circuit]:
        """Establish circuits for a (partial) permutation, all movers running."""
        circuits = self.network.allocate_permutation(mapping)
        for circuit in circuits:
            self.env.process(
                self._mover(circuit),
                name=f"net:{circuit.path.source}->{circuit.path.dest}",
            )
        return circuits

    def _mover(self, circuit: Circuit):
        src_port = self.ports[circuit.path.source]
        dst_port = self.ports[circuit.path.dest]
        while True:
            value = yield src_port._tx.get()
            yield self.env.timeout(self.byte_latency)
            yield dst_port._rx.put(value)
