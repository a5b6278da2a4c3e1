"""Circuit-switched resource allocation.

Being circuit switched, the PASM network dedicates every output link on a
path to its circuit until released.  Setting up a path is the
"time-consuming operation" the paper mentions; the matrix-multiplication
algorithm was designed to need only **one** setting (PE *i* → PE
*(i − 1) mod p*) for the entire run, so set-up cost never recurs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.errors import NetworkFaultError, RoutingConflictError
from repro.network.routing import Path, route
from repro.network.topology import ExtraStageCubeTopology, Fault


@dataclass(frozen=True)
class Circuit:
    """An established circuit (immutable handle)."""

    circuit_id: int
    path: Path


@dataclass
class CircuitSwitchedNetwork:
    """Allocates circuits over an Extra-Stage Cube topology.

    Parameters
    ----------
    topology:
        The static network structure.
    extra_stage_enabled:
        Whether the extra stage's boxes are active (normal operation
        bypasses them; enable for fault tolerance or extra permutation
        freedom).
    faults:
        Failed boxes/links, fixed for the allocator's lifetime (stored as
        a frozenset; its element bitmask is computed once).
    setup_cycles:
        Cost of establishing one circuit, charged by the machine model at
        path set-up time.
    """

    topology: ExtraStageCubeTopology
    extra_stage_enabled: bool = False
    faults: frozenset[Fault] = frozenset()
    setup_cycles: int = 100
    _claims: dict[tuple[int, int], int] = field(default_factory=dict)
    _circuits: dict[int, Circuit] = field(default_factory=dict)
    _ids: "count[int]" = field(default_factory=count)

    def __post_init__(self) -> None:
        self.faults = frozenset(self.faults)
        self._fault_mask = self.topology.fault_mask(self.faults)

    # ------------------------------------------------------------------
    def allocate(self, source: int, dest: int) -> Circuit:
        """Establish a circuit, trying both extra-stage settings on conflict."""
        last_error: Exception | None = None
        for prefer_exchange in (False, True):
            try:
                path = route(
                    self.topology,
                    source,
                    dest,
                    faults=self.faults,
                    extra_stage_enabled=self.extra_stage_enabled,
                    prefer_exchange=prefer_exchange,
                    fault_mask=self._fault_mask,
                )
            except NetworkFaultError as exc:
                last_error = exc
                break
            conflict = self._conflicting_link(path)
            if conflict is None:
                return self._commit(path)
            last_error = RoutingConflictError(
                f"link stage={conflict[0]} line={conflict[1]} busy for "
                f"circuit {source}->{dest}"
            )
            if not self.extra_stage_enabled:
                break  # only one candidate path exists
        assert last_error is not None
        raise last_error

    def release(self, circuit: Circuit) -> None:
        """Tear down a circuit, freeing its links."""
        stored = self._circuits.pop(circuit.circuit_id, None)
        if stored is None:
            raise RoutingConflictError(
                f"circuit {circuit.circuit_id} is not established"
            )
        for link in circuit.path.output_links():
            del self._claims[link]

    def release_all(self) -> None:
        """Tear down every circuit and drop any stray link claims.

        Clearing ``_claims`` explicitly also recovers claims orphaned by
        a partially failed :meth:`allocate_permutation` (e.g. when a
        release raised midway), so the allocator is always reusable.
        """
        for circuit in list(self._circuits.values()):
            self.release(circuit)
        self._claims.clear()

    def allocate_permutation(self, mapping: dict[int, int]) -> list[Circuit]:
        """Set up circuits for ``source -> dest`` pairs simultaneously.

        All circuits are established or none (atomic); sources must be
        distinct and destinations must be distinct (a partial permutation).
        """
        if len(set(mapping.values())) != len(mapping):
            raise RoutingConflictError("destinations are not distinct")
        established: list[Circuit] = []
        try:
            for source, dest in sorted(mapping.items()):
                established.append(self.allocate(source, dest))
        except (RoutingConflictError, NetworkFaultError):
            for circuit in established:
                self.release(circuit)
            raise
        return established

    def is_admissible(self, mapping: dict[int, int]) -> bool:
        """Can this (partial) permutation be passed in one circuit setting?"""
        try:
            circuits = self.allocate_permutation(mapping)
        except (RoutingConflictError, NetworkFaultError):
            return False
        for circuit in circuits:
            self.release(circuit)
        return True

    # ------------------------------------------------------------------
    def _conflicting_link(self, path: Path) -> tuple[int, int] | None:
        for link in path.output_links():
            if link in self._claims:
                return link
        return None

    def _commit(self, path: Path) -> Circuit:
        circuit = Circuit(next(self._ids), path)
        for link in path.output_links():
            self._claims[link] = circuit.circuit_id
        self._circuits[circuit.circuit_id] = circuit
        return circuit

    @property
    def active_circuits(self) -> list[Circuit]:
        return list(self._circuits.values())
