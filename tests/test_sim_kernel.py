"""Unit tests for the discrete-event kernel (repro.sim)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import AllOf, AnyOf, Environment, Event, Store


def test_timeout_advances_time():
    env = Environment()

    def proc():
        yield env.timeout(10)
        assert env.now == 10
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 12.5
    assert env.now == 12.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_value_delivery():
    env = Environment()

    def proc():
        got = yield env.timeout(1, value="hello")
        return got

    p = env.process(proc())
    env.run()
    assert p.value == "hello"


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(7)
        return 42

    def parent():
        result = yield env.process(child())
        return result, env.now

    p = env.process(parent())
    env.run()
    assert p.value == (42, 7)


def test_interrupt_at_the_finish_instant_leaves_the_process_finished():
    """An interrupt raised at the instant a process finishes, but
    delivered after its last event, finds nothing left to interrupt."""
    env = Environment()
    procs = []

    def killer():
        yield env.timeout(5)  # scheduled first, so it fires first at 5
        procs[0].interrupt()

    def victim():
        yield env.sleep(5)
        return "done"

    env.process(killer())
    procs.append(env.process(victim()))
    env.run()
    assert procs[0].value == "done"


def test_withdraw_drops_the_later_events_of_a_callback():
    env = Environment()
    log = []

    def sleeper(name, delay):
        yield env.sleep(delay)
        log.append(name)

    a = env.process(sleeper("a", 0))
    env.process(sleeper("b", 3))
    env.step()  # a's bootstrap, arming its sleep due now
    env.step()  # b's bootstrap, arming its sleep due at 3
    env.withdraw(a._resume)  # a's sleep is due now: it stays
    b = [entry[2] for entry in env._queue if entry[0] == 3][0]
    env.withdraw(b.callbacks[0])
    env.run()
    assert log == ["a"] and env.now == 0


def test_processes_interleave_in_time_order():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("b", 5))
    env.process(worker("a", 3))
    env.process(worker("c", 9))
    env.run()
    assert log == [(3, "a"), (5, "b"), (9, "c")]


def test_event_succeed_resumes_waiter():
    env = Environment()
    ev = env.event()
    out = []

    def waiter():
        val = yield ev
        out.append((env.now, val))

    def trigger():
        yield env.timeout(4)
        ev.succeed("ok")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert out == [(4, "ok")]


def test_event_double_trigger_is_error():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_yield_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("v")
    env.run()  # process the event so callbacks is None

    def proc():
        val = yield ev
        return val

    p = env.process(proc())
    env.run()
    assert p.value == "v"


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            return str(exc)

    def trigger():
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    p = env.process(waiter())
    env.process(trigger())
    env.run()
    assert p.value == "boom"


def test_unwatched_process_failure_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("exploded")

    env.process(bad())
    with pytest.raises(ValueError, match="exploded"):
        env.run()


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_run_until_timeout_event_advances_time():
    """A Timeout carries its value from creation but *occurs* at its
    scheduled time; run(until=timeout) must wait for the occurrence."""
    env = Environment()
    env.run(until=env.timeout(2000))
    assert env.now == 2000


def test_run_until_time_stops_early():
    env = Environment()
    log = []

    def proc():
        for _ in range(10):
            yield env.timeout(10)
            log.append(env.now)

    env.process(proc())
    env.run(until=35)
    assert log == [10, 20, 30]
    assert env.now == 35


def test_deadlock_detection():
    env = Environment()
    ev = env.event()

    def waiter():
        yield ev

    p = env.process(waiter())
    with pytest.raises(DeadlockError):
        env.run(until=p)


def test_yielding_non_event_is_error():
    env = Environment()

    def proc():
        yield 17

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_allof_collects_values():
    env = Environment()

    def proc():
        vals = yield AllOf(env, [env.timeout(5, "a"), env.timeout(2, "b")])
        return vals, env.now

    p = env.process(proc())
    env.run()
    assert p.value == (["a", "b"], 5)


def test_anyof_returns_first():
    env = Environment()

    def proc():
        val = yield AnyOf(env, [env.timeout(5, "slow"), env.timeout(2, "fast")])
        return val, env.now

    p = env.process(proc())
    env.run()
    assert p.value == ("fast", 2)


def test_allof_empty_is_immediate():
    env = Environment()

    def proc():
        vals = yield AllOf(env, [])
        return vals

    p = env.process(proc())
    env.run()
    assert p.value == []


class TestStore:
    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)
                yield env.timeout(1)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == [0, 1, 2]

    def test_capacity_blocks_putter(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer():
            yield store.put("x")
            t0 = env.now
            yield store.put("y")  # must wait for consumer
            times.append((t0, env.now))

        def consumer():
            yield env.timeout(10)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert times == [(0, 10)]

    def test_getter_blocks_until_item(self):
        env = Environment()
        store = Store(env)
        out = []

        def consumer():
            item = yield store.get()
            out.append((env.now, item))

        def producer():
            yield env.timeout(6)
            yield store.put("z")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert out == [(6, "z")]

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Store(env, capacity=0)
