"""Tests for the Fetch Unit: mask, queue release rule, block controller."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.fetch_unit import (
    FetchUnitController,
    FetchUnitQueue,
    MaskRegister,
    QueueItem,
    sync_item,
)
from repro.m68k.assembler import assemble
from repro.machine import PASMMachine
from repro.mc import EnqueueBlock, Loop
from repro.sim import Environment
from tests.engines import CFG


def instr_item(mask, words=1):
    """A queue item wrapping a real (NOP) instruction of ``words`` words."""
    from repro.m68k.instructions import Instruction

    return QueueItem(payload=Instruction("NOP"), words=words, mask=frozenset(mask))


class TestMaskRegister:
    def test_starts_all_enabled(self):
        m = MaskRegister((0, 1, 2, 3))
        assert m.enabled == frozenset({0, 1, 2, 3})

    def test_set_enabled_subset(self):
        m = MaskRegister((0, 1, 2, 3))
        m.set_enabled({1, 3})
        assert m.enabled == frozenset({1, 3})
        assert 1 in m and 0 not in m

    def test_unknown_slot_rejected(self):
        m = MaskRegister((0, 1))
        with pytest.raises(ConfigurationError):
            m.set_enabled({5})

    def test_set_from_bits(self):
        m = MaskRegister((4, 5, 6, 7))
        m.set_from_bits(0b0101)
        assert m.enabled == frozenset({4, 6})

    def test_enable_all(self):
        m = MaskRegister((0, 1))
        m.set_enabled({0})
        m.enable_all()
        assert m.enabled == frozenset({0, 1})


class TestQueueReleaseRule:
    def test_release_waits_for_all_enabled(self):
        env = Environment()
        q = FetchUnitQueue(env, 16)
        q.try_enqueue(instr_item({0, 1}))
        got = []

        def pe(slot, delay):
            yield env.timeout(delay)
            item = yield from q.request(slot)
            got.append((slot, env.now, item))

        env.process(pe(0, 5))
        env.process(pe(1, 20))
        env.run()
        # Both PEs receive the item at the moment the *last* one requested.
        assert [(s, t) for s, t, _ in sorted(got)] == [(0, 20), (1, 20)]

    def test_pe_not_in_mask_waits_for_its_item(self):
        env = Environment()
        q = FetchUnitQueue(env, 16)
        q.try_enqueue(instr_item({0}))
        q.try_enqueue(instr_item({0, 1}))
        got = []

        def pe(slot):
            item = yield from q.request(slot)
            got.append((slot, q.releases))

        env.process(pe(1))
        env.process(pe(0))
        env.run(until=1)
        # PE0 got the first item alone; then both must fetch the second.
        assert (0, 1) in got

        def pe0_again():
            yield from q.request(0)

        env.process(pe0_again())
        env.run()
        assert q.releases == 2
        assert (1, 2) in got

    def test_fetch_blocks_on_empty_queue(self):
        env = Environment()
        q = FetchUnitQueue(env, 16)
        got = []

        def pe(slot):
            item = yield from q.request(slot)
            got.append(env.now)

        def producer():
            yield env.timeout(50)
            q.try_enqueue(instr_item({0}))

        env.process(pe(0))
        env.process(producer())
        env.run()
        assert got == [50]
        assert q.empty_stall_cycles == pytest.approx(50)

    def test_capacity_blocks_enqueue(self):
        env = Environment()
        q = FetchUnitQueue(env, 4)
        assert q.try_enqueue(instr_item({0}, words=3))
        assert not q.try_enqueue(instr_item({0}, words=2))
        assert q.try_enqueue(instr_item({0}, words=1))
        assert q.space_left() == 0

    def test_blocking_enqueue_resumes_after_release(self):
        env = Environment()
        q = FetchUnitQueue(env, 2)
        q.try_enqueue(instr_item({0}, words=2))
        done = []

        def producer():
            yield from q.enqueue(instr_item({0}, words=2))
            done.append(env.now)

        def consumer():
            yield env.timeout(30)
            yield from q.request(0)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert done == [30]

    def test_fifo_order_preserved(self):
        env = Environment()
        q = FetchUnitQueue(env, 64)
        from repro.m68k.instructions import Instruction

        labels = []
        for name in ("A", "B", "C"):
            q.try_enqueue(
                QueueItem(Instruction("NOP", label=name), 1, frozenset({0}))
            )

        def pe():
            for _ in range(3):
                item = yield from q.request(0)
                labels.append(item.payload.label)

        env.process(pe())
        env.run()
        assert labels == ["A", "B", "C"]

    def test_double_request_rejected(self):
        env = Environment()
        q = FetchUnitQueue(env, 4)

        def pe():
            yield from q.request(0)

        env.process(pe())
        env.process(pe())
        with pytest.raises(SimulationError, match="pending request"):
            env.run()

    def test_empty_mask_rejected(self):
        env = Environment()
        q = FetchUnitQueue(env, 4)
        with pytest.raises(SimulationError):
            env.process(q.enqueue(QueueItem(None, 1, frozenset()))) and env.run()
            env.run()

    def test_oversized_item_rejected(self):
        env = Environment()
        q = FetchUnitQueue(env, 2)

        def producer():
            yield from q.enqueue(instr_item({0}, words=3))

        env.process(producer())
        with pytest.raises(SimulationError, match="exceeds queue capacity"):
            env.run()

    def test_sync_item_is_one_word(self):
        s = sync_item({0, 1})
        assert s.is_sync and s.words == 1 and s.mask == frozenset({0, 1})

    def test_high_water_statistic(self):
        env = Environment()
        q = FetchUnitQueue(env, 16)
        q.try_enqueue(instr_item({0}, words=3))
        q.try_enqueue(instr_item({0}, words=2))
        assert q.high_water == 5


class TestStatistics:
    """``queue_stats`` depend on instants, not on the order events at
    one instant are handled (see the ``repro.fetch_unit.queue``
    docstring)."""

    @staticmethod
    def run_schedule(requests, admits, producer_first=False):
        """Pure-event run: ``requests`` are ``(slot, t)`` PE requests,
        ``admits`` ``(mask, t)`` items enqueued at ``t``."""
        env = Environment()
        q = FetchUnitQueue(env, 16)

        def pe(slot, t):
            yield env.timeout(t)
            yield from q.request(slot)

        def producer():
            for mask, t in admits:
                yield env.timeout(t - env.now)
                q.try_enqueue(instr_item(mask))

        if producer_first:
            env.process(producer())
        for slot, t in requests:
            env.process(pe(slot, t))
        if not producer_first:
            env.process(producer())
        env.run()
        return q

    @pytest.mark.parametrize("producer_first", [False, True])
    def test_stall_ignores_same_instant_order(self, producer_first):
        """PE 0's request and the admit both land at t=50: the queue was
        never empty while PE 0 waited, whichever event is handled first."""
        q = self.run_schedule([(0, 50), (1, 80)], [({0, 1}, 50)],
                              producer_first)
        assert q.empty_stall_cycles == 0

    def test_masked_out_pe_adds_no_stall(self):
        """PE 1 waits from t=0, but the item admitted at 50 is not for
        it: only the empty queue from that item's release (60) to the
        admit of PE 1's item (100) is stall."""
        q = self.run_schedule([(1, 0), (0, 60)], [({0}, 50), ({1}, 100)])
        assert q.empty_stall_cycles == 40

    def test_admit_and_release_at_one_instant_count(self):
        """When the MC is the bottleneck, each ADDQ is released at the
        instant it is admitted; the queue did hold it, so ``high_water``
        reads 1."""
        machine = PASMMachine(CFG, partition_size=4, fast_path=False)
        blocks = {"body": assemble("    ADDQ.W #1,D2").instruction_list(),
                  "fini": assemble("    HALT").instruction_list()}
        machine.run_simd([Loop(20, (EnqueueBlock("body"),)),
                          EnqueueBlock("fini")], blocks)
        assert machine.queues[0].high_water == 1

    def test_occupancy_samples_one_value_per_instant(self):
        q = self.run_schedule([(0, 0)], [({0}, 50), ({0}, 70)])
        assert q.occupancy_samples == [(50, 0), (70, 1)]
        assert q.high_water == 1


class TestController:
    def make(self, env, capacity=64, cpw=4):
        q = FetchUnitQueue(env, capacity)
        mask = MaskRegister((0, 1))
        c = FetchUnitController(env, q, mask, cycles_per_word=cpw)
        return q, mask, c

    def block(self, source="    NOP\n    MOVE.W #1,D0\n    HALT"):
        return assemble(source).instruction_list()

    def test_block_transfer(self):
        env = Environment()
        q, mask, c = self.make(env)
        c.register_block("b", self.block())

        def mc():
            yield from c.submit_block("b")
            yield from c.drained()
            return env.now

        p = env.process(mc())
        done = env.run(until=p)
        # NOP(1) + MOVE #,Dn(2) + HALT(1) = 4 words at 4 cycles/word.
        assert q.words_used == 4
        assert done >= 16

    def test_mask_captured_at_enqueue_time(self):
        env = Environment()
        q, mask, c = self.make(env)
        c.register_block("b", self.block("    NOP\n    NOP"))

        def mc():
            mask.set_enabled({0})
            yield from c.submit_block("b")
            yield from c.drained()
            mask.set_enabled({0, 1})  # later change must not affect queue

        env.run(until=env.process(mc()))
        assert all(item.mask == frozenset({0}) for item in q._items)

    def test_control_flow_in_block_rejected(self):
        env = Environment()
        _, _, c = self.make(env)
        with pytest.raises(ConfigurationError, match="straight-line"):
            c.register_block("bad", assemble("x: BRA x\n    HALT").instruction_list())

    def test_unknown_block_rejected(self):
        env = Environment()
        _, _, c = self.make(env)

        def mc():
            yield from c.submit_block("nope")

        env.process(mc())
        with pytest.raises(ConfigurationError):
            env.run()

    def test_sync_words(self):
        env = Environment()
        q, mask, c = self.make(env)

        def mc():
            yield from c.submit_sync_words(3)
            yield from c.drained()

        env.run(until=env.process(mc()))
        assert q.words_used == 3
        assert all(item.is_sync for item in q._items)

    def test_mc_overlaps_with_transfer(self):
        """submit_block returns before the transfer finishes (the paper's
        'the MC CPU can proceed with other operations')."""
        env = Environment()
        q, mask, c = self.make(env, cpw=10)
        c.register_block("big", self.block("    NOP\n" * 20 + "    HALT"))

        def mc():
            yield from c.submit_block("big")
            return env.now

        p = env.process(mc())
        submit_done = env.run(until=p)
        assert submit_done < 20 * 10  # returned long before transfer end

    def test_empty_block_rejected(self):
        env = Environment()
        _, _, c = self.make(env)
        with pytest.raises(ConfigurationError):
            c.register_block("empty", [])
