"""Tests for the Extra-Stage Cube network: topology, routing, circuits,
fault tolerance, and the byte-transfer fabric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkFaultError, RoutingConflictError
from repro.network import (
    CircuitSwitchedNetwork,
    ExtraStageCubeTopology,
    Fault,
    FaultKind,
    NetworkFabric,
    route,
)
from repro.network.transfer import RX_VALID, TX_READY
from repro.sim import Environment


def make_net(n=16, extra=False, faults=()):
    topo = ExtraStageCubeTopology(n)
    return CircuitSwitchedNetwork(
        topo, extra_stage_enabled=extra, faults=set(faults)
    )


class TestTopology:
    def test_structure_16(self):
        topo = ExtraStageCubeTopology(16)
        assert topo.n_bits == 4
        assert topo.n_stages == 5
        assert topo.stage_bits == [0, 3, 2, 1, 0]

    def test_box_pairing(self):
        topo = ExtraStageCubeTopology(16)
        # stage 1 controls bit 3: lines 2 and 10 share a box
        assert topo.box_of(1, 2) == topo.box_of(1, 10)
        assert topo.partner(1, 2) == 10
        # extra stage controls bit 0
        assert topo.partner(0, 6) == 7

    def test_boxes_per_stage(self):
        topo = ExtraStageCubeTopology(8)
        for stage in range(topo.n_stages):
            assert len(list(topo.boxes(stage))) == 4

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ExtraStageCubeTopology(12)
        with pytest.raises(ValueError):
            ExtraStageCubeTopology(1)


class TestRouting:
    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=100)
    def test_route_connects_any_pair(self, s, d):
        topo = ExtraStageCubeTopology(16)
        path = route(topo, s, d)
        assert path.lines[0] == s
        assert path.lines[-1] == d
        assert len(path.lines) == topo.n_stages + 1

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=50)
    def test_each_stage_moves_one_bit_at_most(self, s, d):
        topo = ExtraStageCubeTopology(16)
        path = route(topo, s, d)
        for stage in range(topo.n_stages):
            diff = path.lines[stage] ^ path.lines[stage + 1]
            assert diff in (0, 1 << topo.stage_bit(stage))

    def test_extra_stage_gives_two_paths(self):
        topo = ExtraStageCubeTopology(16)
        a = route(topo, 5, 9, extra_stage_enabled=True, prefer_exchange=False)
        b = route(topo, 5, 9, extra_stage_enabled=True, prefer_exchange=True)
        assert not a.extra_exchanged and b.extra_exchanged
        # Interior links (between extra stage and final stage) are disjoint.
        interior_a = set(list(a.output_links())[:-1])
        interior_b = set(list(b.output_links())[:-1])
        assert not (interior_a & interior_b)

    def test_route_avoids_link_fault_via_extra_stage(self):
        topo = ExtraStageCubeTopology(16)
        straight = route(topo, 3, 12, extra_stage_enabled=True)
        # Fail the straight path's first interior link.
        stage, line = list(straight.output_links())[1]
        fault = Fault(FaultKind.LINK, stage, line)
        detour = route(topo, 3, 12, faults={fault}, extra_stage_enabled=True)
        assert detour.extra_exchanged
        assert fault not in [
            Fault(FaultKind.LINK, s, l) for s, l in detour.output_links()
        ]

    def test_route_fails_without_extra_stage(self):
        topo = ExtraStageCubeTopology(16)
        straight = route(topo, 3, 12)
        stage, line = list(straight.output_links())[1]
        with pytest.raises(NetworkFaultError):
            route(topo, 3, 12, faults={Fault(FaultKind.LINK, stage, line)})

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(1, 3),
           st.integers(0, 15))
    @settings(max_examples=100)
    def test_single_interior_box_fault_tolerated(self, s, d, stage, box_line):
        """Any single faulty interior box still leaves a route (the ESC
        single-fault-tolerance property)."""
        topo = ExtraStageCubeTopology(16)
        fault = Fault(FaultKind.BOX, *topo.box_of(stage, box_line))
        path = route(topo, s, d, faults={fault}, extra_stage_enabled=True)
        assert path.lines[-1] == d
        assert fault not in [
            Fault(FaultKind.BOX, *b) for b in path.boxes(topo)
        ] or not path.extra_exchanged  # fault must not be on the used path
        # stronger: recompute blocked-ness
        used_boxes = {topo.box_of(st_, path.lines[st_])
                      for st_ in range(topo.n_stages)}
        assert (fault.stage, fault.line) not in used_boxes


class TestCircuits:
    def test_allocate_and_release(self):
        net = make_net()
        c = net.allocate(2, 5)
        assert c.path.source == 2 and c.path.dest == 5
        assert net.active_circuits == [c]
        net.release(c)
        assert net.active_circuits == []

    def test_conflict_detected(self):
        net = make_net()
        net.allocate(0, 0)  # loopback claims straight-through links
        # Another circuit to dest 0 must collide at the final output link.
        with pytest.raises(RoutingConflictError):
            net.allocate(1, 0)

    def test_release_frees_links(self):
        net = make_net()
        c = net.allocate(0, 7)
        net.release(c)
        net.allocate(1, 7)  # would conflict at the output if not freed

    def test_double_release_rejected(self):
        net = make_net()
        c = net.allocate(0, 7)
        net.release(c)
        with pytest.raises(RoutingConflictError):
            net.release(c)

    def test_extra_stage_resolves_conflict(self):
        """With the extra stage enabled, some conflicting pairs can coexist
        by sending one circuit through the exchanged entry."""
        topo = ExtraStageCubeTopology(16)
        plain = CircuitSwitchedNetwork(topo)
        esc = CircuitSwitchedNetwork(topo, extra_stage_enabled=True)
        # Find a pair of circuits that conflicts in the plain cube.
        plain.allocate(0, 8)
        conflicted = None
        for s in range(1, 16):
            for d in range(16):
                if d == 8:
                    continue
                try:
                    c = plain.allocate(s, d)
                    plain.release(c)
                except RoutingConflictError:
                    conflicted = (s, d)
                    break
            if conflicted:
                break
        assert conflicted is not None
        esc.allocate(0, 8)
        esc.allocate(*conflicted)  # must succeed via the extra stage
        assert len(esc.active_circuits) == 2

    def test_shift_permutation_admissible_full_machine(self):
        """The algorithm's PE i → PE (i-1) mod N permutation routes
        conflict-free in one setting — the property the paper's single
        path set-up relies on."""
        net = make_net(16)
        mapping = {i: (i - 1) % 16 for i in range(16)}
        assert net.is_admissible(mapping)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_shift_permutation_admissible_all_sizes(self, n):
        net = make_net(n)
        mapping = {i: (i - 1) % n for i in range(n)}
        assert net.is_admissible(mapping)

    def test_interleaved_partition_shift_admissible(self):
        """Logical shift within a 4-PE partition on physical PEs
        {mc, mc+4, mc+8, mc+12} (the PASM MC interleave) is admissible."""
        net = make_net(16)
        for mc in range(4):
            phys = [mc + 4 * k for k in range(4)]
            mapping = {phys[i]: phys[(i - 1) % 4] for i in range(4)}
            assert net.is_admissible(mapping), f"MC group {mc}"
            net.release_all()

    def test_permutation_atomicity_on_failure(self):
        net = make_net()
        net.allocate(0, 0)
        with pytest.raises(RoutingConflictError):
            net.allocate_permutation({1: 1, 2: 0})  # 2->0 conflicts
        # The partial attempt must not leave 1->1 established.
        assert len(net.active_circuits) == 1

    def test_non_injective_mapping_rejected(self):
        net = make_net()
        with pytest.raises(RoutingConflictError, match="not distinct"):
            net.allocate_permutation({0: 3, 1: 3})


class TestFabric:
    def test_byte_delivery(self):
        env = Environment()
        fabric = NetworkFabric(env, make_net(), byte_latency=8)
        fabric.connect(2, 1)
        received = []

        def sender():
            yield from fabric.ports[2].write_tx(0xAB)
            yield from fabric.ports[2].write_tx(0xCD)

        def receiver():
            v1 = yield from fabric.ports[1].read_rx()
            v2 = yield from fabric.ports[1].read_rx()
            received.append((v1, v2, env.now))

        env.process(sender())
        p = env.process(receiver())
        env.run(until=p)
        assert received[0][:2] == (0xAB, 0xCD)

    def test_latency_charged(self):
        env = Environment()
        fabric = NetworkFabric(env, make_net(), byte_latency=10)
        fabric.connect(0, 1)

        def sender():
            yield from fabric.ports[0].write_tx(1)

        def receiver():
            yield from fabric.ports[1].read_rx()
            return env.now

        env.process(sender())
        p = env.process(receiver())
        assert env.run(until=p) == 10

    def test_status_bits(self):
        env = Environment()
        fabric = NetworkFabric(env, make_net(), byte_latency=5)
        fabric.connect(0, 1)
        port0, port1 = fabric.ports[0], fabric.ports[1]
        assert port0.status() & TX_READY
        assert not port1.status() & RX_VALID

        def sender():
            yield from port0.write_tx(9)

        env.process(sender())
        env.run(until=20)
        assert port1.status() & RX_VALID

    def test_sender_blocks_when_receiver_slow(self):
        """TX backpressure: with a 1-deep receive register, a burst of
        sends stalls until the receiver drains."""
        env = Environment()
        fabric = NetworkFabric(env, make_net(), byte_latency=1)
        fabric.connect(0, 1)
        send_times = []

        def sender():
            for i in range(4):
                yield from fabric.ports[0].write_tx(i)
                send_times.append(env.now)

        def receiver():
            got = []
            for _ in range(4):
                yield env.timeout(100)
                got.append((yield from fabric.ports[1].read_rx()))
            return got

        env.process(sender())
        p = env.process(receiver())
        got = env.run(until=p)
        assert got == [0, 1, 2, 3]  # order preserved, nothing lost
        # Backpressure: the pipeline (tx + in-flight + rx) holds 3 bytes, so
        # the 4th send cannot complete before the receiver's first drain.
        assert send_times[-1] >= 100

    def test_16bit_element_as_two_bytes(self):
        """A 16-bit element crosses as two byte transfers and reassembles."""
        env = Environment()
        fabric = NetworkFabric(env, make_net(), byte_latency=3)
        fabric.connect(3, 2)
        value = 0xBEEF

        def sender():
            yield from fabric.ports[3].write_tx(value & 0xFF)
            yield from fabric.ports[3].write_tx(value >> 8)

        def receiver():
            low = yield from fabric.ports[2].read_rx()
            high = yield from fabric.ports[2].read_rx()
            return (high << 8) | low

        env.process(sender())
        p = env.process(receiver())
        assert env.run(until=p) == value

    def test_counters(self):
        env = Environment()
        fabric = NetworkFabric(env, make_net(), byte_latency=1)
        fabric.connect(0, 1)

        def sender():
            yield from fabric.ports[0].write_tx(1)

        def receiver():
            yield from fabric.ports[1].read_rx()

        env.process(sender())
        p = env.process(receiver())
        env.run(until=p)
        assert fabric.ports[0].bytes_sent == 1
        assert fabric.ports[1].bytes_received == 1
