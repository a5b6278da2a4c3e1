"""Array-form timing formulas and broadcast-seam stress tests.

Two concerns the differential suite
(``tests/test_lockstep_differential.py``) covers only implicitly:

* the numpy cycle formulas themselves — ``MULU``/``MULS`` data-dependent
  internal times computed over whole operand arrays (as the macro
  model's operand statistics do) must match :mod:`repro.m68k.timing`'s
  scalar model element for element;
* the broadcast **seam** — a PE fail-stopping while broadcast words are
  in flight, and random SIMD programs that interleave broadcast compute
  with instructions whose effect differs per PE (flag-dependent stores,
  device reads), must schedule bit-identically on the lockstep engine
  and the pure-event engine.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PEFailStopError
from repro.faults import FaultPlan, PEFailStop
from repro.m68k.timing import muls_cycles, mulu_cycles
from repro.machine import ExecutionMode
from repro.machine.partition import Partition
from repro.utils.bitops import ones_count, transitions_count
from tests.engines import CFG, ENGINE_TIERS, signature
from tests.test_lockstep_differential import (
    _ALL,
    _POINTERS,
    _PRIVATE_VOCAB,
    _simd_plan,
    assert_tiers_agree,
    long_runs,
    simd_programs,
)

# ---------------------------------------------------------------------------
# The numpy timing formulas vs the scalar timing model.
operand_arrays = st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=64)


@settings(deadline=None, max_examples=50)
@given(mults=operand_arrays)
def test_vectorized_mulu_cycles_match_scalar(mults):
    """``38 + 2*popcount`` over an int64 array equals
    :func:`repro.m68k.timing.mulu_cycles` element-wise — the unsigned
    multiply's data-dependent internal time."""
    arr = np.asarray(mults, dtype=np.int64)
    vec = 38 + 2 * ones_count(arr, 16)
    assert vec.tolist() == [mulu_cycles(v) for v in mults]


@settings(deadline=None, max_examples=50)
@given(mults=operand_arrays)
def test_vectorized_muls_cycles_match_scalar(mults):
    """``38 + 2*(10/01 pattern count)`` over an array equals
    :func:`repro.m68k.timing.muls_cycles` element-wise."""
    arr = np.asarray(mults, dtype=np.int64)
    vec = 38 + 2 * transitions_count(arr, 16)
    assert vec.tolist() == [muls_cycles(v) for v in mults]


@settings(deadline=None, max_examples=50)
@given(mults=operand_arrays)
def test_bit_counting_int_array_agreement(mults):
    """The bitops primitives agree between their int and int64-array
    paths (the CPU uses the former, the operand statistics the latter)."""
    arr = np.asarray(mults, dtype=np.int64)
    assert ones_count(arr, 16).tolist() == [ones_count(v, 16) for v in mults]
    assert (transitions_count(arr, 16).tolist()
            == [transitions_count(v, 16) for v in mults])


# ---------------------------------------------------------------------------
# Seam stress: fail-stop mid-broadcast and random seam programs.
def test_fallback_failstop_mid_batch():
    """A PE fail-stopping while broadcast words are in flight: the victim
    dies holding its exact state, and every tier detects the fault at
    the same instant with the same victim set."""
    victim = Partition(CFG, 4).physical_pe(1)
    fplan = FaultPlan(failstops=(PEFailStop(victim, 20_000.0),),
                      failstop_timeout=8_000.0)
    outcomes = []
    for engine in ENGINE_TIERS:
        with pytest.raises(PEFailStopError) as exc_info:
            signature(ExecutionMode.SIMD, 16, 4, engine, fault_plan=fplan)
        outcomes.append((exc_info.value.pes, exc_info.value.detected_at))
    assert all(o == outcomes[0] for o in outcomes)
    assert outcomes[0][0] == (victim,)


_BROADCAST_VOCAB = (
    "    ADDQ.W  #1,D2",
    "    MULU    D1,D2",
    "    MULS    D1,D3",
    "    ADD.W   D3,D2",
    "    LSR.W   #2,D2",
) + _PRIVATE_VOCAB
_PER_PE_VOCAB = (
    "    SNE     D3",
    "    MOVE.W  TIMER,D3",
)


#: Seam programs: broadcast compute and per-PE-effect instructions,
#: half of the lines drawn from each, however many broadcast forms.
seam_programs = simd_programs(
    vocab=st.one_of(st.sampled_from(_BROADCAST_VOCAB),
                    st.sampled_from(_PER_PE_VOCAB)),
    max_body=4, max_trips=4, setup=_POINTERS)


@settings(deadline=None, max_examples=50)
@given(program=seam_programs)
# A one-PE item queued behind a slower item (found by the deep sweep).
@example(program=(
    _simd_plan([(_ALL, "b0", 3), ((0, 1, 2), "b1", 1), ((3,), "b2", 1)]),
    {"b0": "    ADDQ.W  #1,D2\n    MULS    D1,D3\n    MOVE.W  TIMER,D3\n"
           "    MULU    D1,D2",
     "b1": "    ADDQ.W  #1,D2",
     "b2": "    ADDQ.W  #1,D2\n    ADDQ.W  #1,D2"},
    [0, 0, 531, 0]))
def test_random_seam_programs_identical(program):
    """Random interleavings of broadcast compute and per-PE-effect
    instructions, random masks per block, random loop trips: the
    lockstep schedule equals the pure-event schedule signature for
    signature.

    The example: PE 3 requests its one-PE item at t=444 while PE 2's
    TIMER read holds the item ahead of it until 452, and lockstep
    computes the two releases in different cascades.  PE 3's item is
    released at 452, not at its request instant: a release is no
    earlier than the one before it (the run takes 464 cycles)."""
    assert_tiers_agree(program)


@pytest.mark.slow
@settings(deadline=None, max_examples=5_000)
@given(simd=simd_programs(), seam=seam_programs, long=long_runs)
def test_random_simd_and_seam_programs_identical_deep(simd, seam, long):
    """The random-program properties above, the long runs of
    register-only and private-memory items of
    ``tests/test_lockstep_differential.py`` included, at 5,000 examples
    each: full signatures, ``queue_stats`` included, agree on both
    tiers."""
    assert_tiers_agree(simd)
    assert_tiers_agree(seam)
    assert_tiers_agree(long)
