"""Fault plans on the simulated machine: degraded routing and fail-stop.

The machine half of the fault campaign: a :class:`FaultPlan` flowing into
:class:`PASMMachine` (directly and through ``SimJobSpec``) must force
extra-stage rerouting with a verified product, charge the degraded
transit penalty, terminate fail-stopped runs with a structured error
instead of hanging, and reject plans it cannot honour.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    NetworkFaultError,
    PEFailStopError,
)
from repro.exec import SimJobSpec, execute_job, matmul_spec
from repro.faults import FaultPlan, PEFailStop, representative_fault_plan
from repro.faults.campaign import iter_single_faults
from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
from repro.machine.partition import Partition
from repro.network import ExtraStageCubeTopology, Fault, FaultKind
from repro.programs import build_matmul, generate_matrices
from repro.programs.loader import run_matmul
from tests.engines import signature

CFG = PrototypeConfig.calibrated()


def _shift_plan(p: int) -> FaultPlan:
    """The exhibits' representative degraded plan for a p-PE partition."""
    topo = ExtraStageCubeTopology(CFG.n_pes)
    return representative_fault_plan(
        topo, Partition(CFG, p).shift_permutation()
    )


def _failstop_plan(p: int, logical: int, at: float = 0.0,
                   timeout: float = 30_000.0) -> FaultPlan:
    victim = Partition(CFG, p).physical_pe(logical)
    return FaultPlan(failstops=(PEFailStop(victim, at),),
                     failstop_timeout=timeout)


def _run(mode: ExecutionMode, n: int, p: int, plan: FaultPlan | None):
    machine = PASMMachine(CFG, partition_size=p, fault_plan=plan)
    bundle = build_matmul(mode, n, p,
                          device_symbols=CFG.device_symbols())
    a, b = generate_matrices(n)
    return machine, run_matmul(machine, bundle, a, b)


# ---------------------------------------------------------------------------
# Degraded routing on the instruction-level engine
def test_degraded_micro_run_reroutes_and_verifies():
    plan = _shift_plan(4)
    machine, run = _run(ExecutionMode.SMIMD, 16, 4, plan)
    _, clean = _run(ExecutionMode.SMIMD, 16, 4, None)
    assert (run.product == clean.product).all()  # rerouting is invisible
    assert machine.rerouted_circuits > 0  # ...but genuinely happened
    assert run.result.cycles >= clean.result.cycles


def test_extra_stage_transit_penalty_is_charged():
    """The +net_extra_stage_cycles/byte lever works; at the calibrated 4
    cycles it hides behind per-element software overhead (the exhibit
    reports slowdown 1.0), so exaggerate it to observe the charge."""
    slow_cfg = CFG.with_overrides(net_extra_stage_cycles=500)
    plan = _shift_plan(4)
    machine = PASMMachine(slow_cfg, partition_size=4, fault_plan=plan)
    bundle = build_matmul(ExecutionMode.SMIMD, 16, 4,
                          device_symbols=slow_cfg.device_symbols())
    a, b = generate_matrices(16)
    degraded = run_matmul(machine, bundle, a, b)
    _, clean = _run(ExecutionMode.SMIMD, 16, 4, None)
    assert (degraded.product == clean.product).all()
    assert degraded.result.cycles > clean.result.cycles


def test_unroutable_plan_raises_structured_error():
    """With the extra stage disabled, a mid-stage link fault on the shift
    route leaves no circuit setting — the machine must refuse, not hang."""
    mapping = Partition(CFG, 4).shift_permutation()
    topo = ExtraStageCubeTopology(CFG.n_pes)
    source, dest = next(iter(sorted(mapping.items())))
    from repro.network import route

    path = route(topo, source, dest, extra_stage_enabled=False)
    dead_link = Fault(FaultKind.LINK, 1, path.lines[2])
    plan = FaultPlan(faults=(dead_link,), extra_stage_enabled=False)
    machine = PASMMachine(CFG, partition_size=4, fault_plan=plan)
    with pytest.raises(NetworkFaultError) as exc_info:
        machine.connect_shift_circuit()
    assert "link@stage1" in str(exc_info.value)


# ---------------------------------------------------------------------------
# Single-fault sweep, differentially: every degraded schedule the network
# can produce must be bit-identical on the lockstep and pure-event engines
_ALL_SINGLE_FAULTS = list(iter_single_faults(ExtraStageCubeTopology(CFG.n_pes)))


def _assert_fault_identical(fault: Fault) -> None:
    plan = FaultPlan(faults=(fault,))
    lockstep = signature(ExecutionMode.SMIMD, 8, 4, "lockstep",
                         fault_plan=plan)
    pure = signature(ExecutionMode.SMIMD, 8, 4, "pure-events",
                     fault_plan=plan)
    assert lockstep == pure
    # Degraded or not, the product must stay correct.
    clean = signature(ExecutionMode.SMIMD, 8, 4, "lockstep")
    assert lockstep["product"] == clean["product"]


@pytest.mark.parametrize("fault", _ALL_SINGLE_FAULTS[::8],
                         ids=lambda f: f"{f.kind.value}@s{f.stage}l{f.line}")
def test_single_fault_sample_identical_across_engines(fault):
    """Tier-1 sample of the single-fault universe (every 8th fault): a
    degraded S/MIMD run — extra-stage rerouting, transit penalties, and
    all — must produce the same signature on both engine extremes."""
    _assert_fault_identical(fault)


@pytest.mark.slow
@pytest.mark.parametrize("fault", _ALL_SINGLE_FAULTS,
                         ids=lambda f: f"{f.kind.value}@s{f.stage}l{f.line}")
def test_single_fault_sweep_identical_across_engines(fault):
    """The exhaustive sweep (104 faults x 2 engines), for the slow lane."""
    _assert_fault_identical(fault)


# ---------------------------------------------------------------------------
# Fail-stop detection
@pytest.mark.parametrize("mode", [ExecutionMode.SMIMD, ExecutionMode.SIMD])
def test_dead_pe_is_detected_not_hung(mode):
    plan = _failstop_plan(4, logical=1, at=0.0)
    victim = plan.failstops[0].pe
    with pytest.raises(PEFailStopError) as exc_info:
        _run(mode, 16, 4, plan)
    err = exc_info.value
    assert err.pes == (victim,)
    assert err.detected_at > 0
    assert err.timeout == plan.failstop_timeout
    assert f"PE{victim}" in str(err) or str(victim) in str(err)


def test_mimd_dead_pe_detected_at_deadline():
    """MIMD has no barriers; detection falls to the bounded-wait deadline."""
    plan = _failstop_plan(4, logical=2, at=0.0, timeout=5_000.0)
    with pytest.raises(PEFailStopError) as exc_info:
        _run(ExecutionMode.MIMD, 16, 4, plan)
    assert plan.failstops[0].pe in exc_info.value.pes


def test_late_strike_does_not_disturb_a_finished_run():
    healthy_cycles = _run(ExecutionMode.SMIMD, 16, 4, None)[1].result.cycles
    plan = _failstop_plan(4, logical=1, at=healthy_cycles + 10_000.0)
    _, run = _run(ExecutionMode.SMIMD, 16, 4, plan)
    assert run.result.cycles == healthy_cycles


def test_failstop_outside_partition_is_rejected():
    physical = sorted(Partition(CFG, 4).physical_pe(i) for i in range(4))
    outsider = next(pe for pe in range(CFG.n_pes) if pe not in physical)
    plan = FaultPlan(failstops=(PEFailStop(outsider),))
    with pytest.raises(ConfigurationError) as exc_info:
        PASMMachine(CFG, partition_size=4, fault_plan=plan)
    assert str(outsider) in str(exc_info.value)


_LAST_STAGE = ExtraStageCubeTopology(CFG.n_pes).n_stages - 1


@pytest.mark.parametrize("fault", [
    Fault(FaultKind.LINK, 1, -3),  # would shift by a negative count
    Fault(FaultKind.BOX, 1, -1),
    Fault(FaultKind.LINK, 1, "3"),  # not an int
    Fault(FaultKind.BOX, "1", 0),
    Fault(FaultKind.LINK, 0, CFG.n_pes + 4),  # would alias LINK(1, 4)
    Fault(FaultKind.BOX, _LAST_STAGE + 1, 0),
], ids=repr)
def test_network_fault_outside_the_esc_is_rejected(fault):
    # A non-int stage or line is refused by the plan itself, the rest
    # by the machine: either way before anything runs.
    with pytest.raises(ConfigurationError) as exc_info:
        PASMMachine(CFG, partition_size=4, fault_plan=FaultPlan(faults=(fault,)))
    assert repr(fault) in str(exc_info.value)


def test_final_stage_link_fault_is_accepted_and_blocks():
    """Outside the tolerance universe, but real input: a destination's
    only wire is dead, so routing to that PE must fail."""
    mapping = Partition(CFG, 4).shift_permutation()
    dest = next(iter(mapping.values()))
    plan = FaultPlan(faults=(Fault(FaultKind.LINK, _LAST_STAGE, dest),))
    machine = PASMMachine(CFG, partition_size=4, fault_plan=plan)
    with pytest.raises(NetworkFaultError):
        machine.connect_shift_circuit()


# ---------------------------------------------------------------------------
# Plans through the execution engine's job layer
def test_degraded_job_payload_reports_rerouting():
    spec = matmul_spec(ExecutionMode.SMIMD, 16, 4, engine="micro",
                       config=CFG, fault_plan=_shift_plan(4))
    payload = execute_job(spec)
    assert payload["verified"] is True
    assert payload["degraded"] is True
    assert payload["rerouted_circuits"] > 0


def test_macro_degraded_job_charges_and_checks_routability():
    plan = _shift_plan(4)
    clean = execute_job(matmul_spec(ExecutionMode.SMIMD, 64, 4,
                                    engine="macro", config=CFG))
    degraded = execute_job(matmul_spec(ExecutionMode.SMIMD, 64, 4,
                                       engine="macro", config=CFG,
                                       fault_plan=plan))
    assert degraded["degraded"] is True
    assert degraded["cycles"] >= clean["cycles"]
    # An inadmissible plan is refused up front.
    mapping = Partition(CFG, 4).shift_permutation()
    topo = ExtraStageCubeTopology(CFG.n_pes)
    from repro.network import route

    source, dest = next(iter(sorted(mapping.items())))
    path = route(topo, source, dest, extra_stage_enabled=False)
    bad = FaultPlan(faults=(Fault(FaultKind.LINK, 1, path.lines[2]),),
                    extra_stage_enabled=False)
    with pytest.raises(NetworkFaultError):
        execute_job(matmul_spec(ExecutionMode.SMIMD, 64, 4, engine="macro",
                                config=CFG, fault_plan=bad))


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("fault", [
    Fault(FaultKind.LINK, 0, CFG.n_pes + 4),  # would alias LINK(1, 4)
    Fault(FaultKind.BOX, _LAST_STAGE + 1, 0),
], ids=repr)
def test_macro_job_rejects_fault_outside_the_esc(fault, p):
    """The macro engine refuses what PASMMachine refuses, even at p=1
    where there is no shift permutation to route."""
    mode = ExecutionMode.SERIAL if p == 1 else ExecutionMode.SMIMD
    spec = matmul_spec(mode, 16, p, engine="macro", config=CFG,
                       fault_plan=FaultPlan(faults=(fault,)))
    with pytest.raises(ConfigurationError) as exc_info:
        execute_job(spec)
    assert repr(fault) in str(exc_info.value)


def test_macro_engine_rejects_failstop_plans():
    spec = matmul_spec(ExecutionMode.SMIMD, 64, 4, engine="macro",
                       config=CFG, fault_plan=_failstop_plan(4, 1))
    with pytest.raises(ConfigurationError, match="micro engine"):
        execute_job(spec)


# ---------------------------------------------------------------------------
# Spec hashing with plans aboard
def test_fault_plan_participates_in_spec_hash():
    base = matmul_spec(ExecutionMode.SMIMD, 16, 4, config=CFG)
    planned = matmul_spec(ExecutionMode.SMIMD, 16, 4, config=CFG,
                          fault_plan=_shift_plan(4))
    same = matmul_spec(ExecutionMode.SMIMD, 16, 4, config=CFG,
                       fault_plan=_shift_plan(4))
    assert base.content_hash != planned.content_hash
    assert planned.content_hash == same.content_hash


def test_spec_with_plan_round_trips():
    spec = matmul_spec(ExecutionMode.SMIMD, 16, 4, config=CFG,
                       fault_plan=_shift_plan(4))
    clone = SimJobSpec.from_dict(spec.to_dict())
    assert clone.fault_plan == spec.fault_plan
    assert clone.content_hash == spec.content_hash
    # Plan-free specs keep their historical hash shape: no fault_plan key.
    assert "fault_plan" not in matmul_spec(
        ExecutionMode.SMIMD, 16, 4, config=CFG
    ).to_dict()
