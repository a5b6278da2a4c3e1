"""The fast path's one invariant, tested from every angle: local-time
execution, the lockstep rendezvous and the decoded/handler caches are
*invisible*.

A machine with ``fast_path=True`` must produce, bit for bit, everything
the pure-event schedule produces — cycle counts, per-PE finish times,
instruction counts, per-category cycle accounting, queue/MC statistics,
and the result matrices — across all four execution modes, under
hypothesis-chosen shapes, and with an active fault plan (the fail-stop
watchdog must fire at the same instant either way).  The lockstep
rendezvous itself is probed further in
``test_lockstep_differential.py``; both suites share
:mod:`tests.engines`.

Plus unit tests for the machinery itself: the kernel's sleep-event free
list, the heap-event savings, the closed-form inline refresh stall, and
the :mod:`repro.perf` read side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.engines import ALL_MODES, CFG, MODE_IDS, signature
from repro.errors import PEFailStopError
from repro.faults import FaultPlan, PEFailStop
from repro.machine import ExecutionMode, PASMMachine
from repro.machine.partition import Partition
from repro.memory.dram import RefreshModel
from repro.perf import kernel_counters, machine_counters, percentile
from repro.programs.data import generate_matrices
from repro.programs.loader import build_matmul, run_matmul
from repro.sim import Environment
from repro.sim.localtime import resolve_fast_path


# ---------------------------------------------------------------------------
# Equivalence across the four modes
@pytest.mark.parametrize("mode,p", ALL_MODES, ids=MODE_IDS)
def test_fast_path_bit_identical(mode, p):
    fast = signature(mode, 16, p, "lockstep")
    pure = signature(mode, 16, p, "pure-events")
    assert fast == pure


@settings(deadline=None, max_examples=8)
@given(data=st.data())
def test_fast_path_bit_identical_random_shapes(data):
    """Hypothesis sweep: any (mode, p, n) with n a multiple of p, n<=16."""
    mode = data.draw(st.sampled_from(
        [ExecutionMode.SIMD, ExecutionMode.SMIMD, ExecutionMode.MIMD]))
    p = data.draw(st.sampled_from([4, 8, 16]))
    n = data.draw(st.sampled_from([k for k in (4, 8, 12, 16) if k % p == 0]))
    assert (signature(mode, n, p, "lockstep")
            == signature(mode, n, p, "pure-events"))


# ---------------------------------------------------------------------------
# Equivalence under an active fault plan: detection must not move
def _failstop_plan(p: int, logical: int) -> FaultPlan:
    victim = Partition(CFG, p).physical_pe(logical)
    return FaultPlan(failstops=(PEFailStop(victim, 0.0),),
                     failstop_timeout=10_000.0)


@pytest.mark.parametrize("mode", [ExecutionMode.SIMD, ExecutionMode.MIMD],
                         ids=lambda m: m.name)
def test_failstop_detection_identical_under_fast_path(mode):
    plan = _failstop_plan(4, logical=1)
    outcomes = []
    for engine in ("lockstep", "pure-events"):
        with pytest.raises(PEFailStopError) as exc_info:
            signature(mode, 16, 4, engine, fault_plan=plan)
        outcomes.append((exc_info.value.pes, exc_info.value.detected_at))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (plan.failstops[0].pe,)


def test_late_strike_equivalent_under_fast_path():
    """A strike after completion must not disturb either schedule."""
    plan = FaultPlan(failstops=(
        PEFailStop(Partition(CFG, 4).physical_pe(1), 10_000_000.0),))
    fast = signature(ExecutionMode.SMIMD, 16, 4, "lockstep",
                     fault_plan=plan)
    pure = signature(ExecutionMode.SMIMD, 16, 4, "pure-events",
                     fault_plan=plan)
    assert fast == pure


# ---------------------------------------------------------------------------
# The machinery: sleep pool, heap-event savings, counters
def test_sleep_events_are_recycled():
    env = Environment()

    def sleeper():
        for _ in range(5):
            yield env.sleep(3.0)

    env.process(sleeper())
    env.run()
    assert env.now == 15.0
    # An event returns to the free list only *after* its callbacks run,
    # and the callbacks are what request the next sleep — so the second
    # sleep also allocates; from the third on, every sleep reuses.
    assert env.sleep_reuses == 3
    counters = kernel_counters(env)
    assert counters["sleep_reuses"] == env.sleep_reuses
    assert counters["events_processed"] == counters["events_scheduled"]


def test_fast_path_absorbs_charges_without_heap_events():
    """A fast-path run schedules far fewer events than the pure run."""
    def events_for(fast):
        bundle = build_matmul(ExecutionMode.SERIAL, 8, 1,
                              device_symbols=CFG.device_symbols())
        a, b = generate_matrices(8)
        machine = PASMMachine(CFG, partition_size=1, fast_path=fast)
        run_matmul(machine, bundle, a, b)
        return machine_counters(machine)

    fast, pure = events_for(True), events_for(False)
    assert fast["events_scheduled"] < pure["events_scheduled"] / 4
    assert fast["fast_path"] and not pure["fast_path"]


def test_resolve_fast_path_env(monkeypatch):
    monkeypatch.delenv("REPRO_PURE_EVENTS", raising=False)
    assert resolve_fast_path(None) is True
    assert resolve_fast_path(False) is False
    monkeypatch.setenv("REPRO_PURE_EVENTS", "1")
    assert resolve_fast_path(None) is False
    assert resolve_fast_path(True) is True  # explicit flag wins


def test_inline_refresh_matches_stall_cycles():
    """The buses' closed-form refresh arithmetic == RefreshModel's."""
    model = RefreshModel(period=250, steal=2)
    period, steal = model.inline_constants()
    for now in [0.0, 0.5, 1.9, 2.0, 100.0, 249.0, 250.0, 251.5, 1000.25]:
        phase = now % period
        inline = steal - phase if phase < steal else 0.0
        assert inline == model.stall_cycles(now)


def test_percentile_matches_definition():
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 95) == 7.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert abs(percentile([1.0, 2.0, 3.0, 4.0], 95) - 3.85) < 1e-12
    with pytest.raises(ValueError):
        percentile([1.0], 101)
