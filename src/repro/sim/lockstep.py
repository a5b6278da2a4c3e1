"""Batched lockstep execution for SIMD-space rendezvous.

The fast engine tier.  Local-time clocks (:mod:`repro.sim.localtime`)
remove heap events for *private* charges, but a SIMD broadcast fetch
would still be event-bound if every enabled PE flushed its local clock
(one sleep event) and parked on a per-slot request event that the Fetch
Unit Queue's release then succeeded (a second heap event per PE).

The lockstep engine exploits the very structure the paper measures: a
broadcast instruction completes at the *max over the enabled PEs* of its
data-dependent cost, so the release time of a queue item is a pure function
of already-known quantities — it can be *computed* instead of discovered by
event rendezvous:

* a PE requesting from the queue does not flush; it passes its bus-true
  **arrival stamp** (``env.now + local clock``) with the request and zeroes
  the local clock (:meth:`FetchUnitQueue.register_request_inline`, for
  an instruction fetch, traced or not, and a barrier read alike);
* the queue releases the head item at ``T_r = max(admit time, previous
  release, max of the mask's arrival stamps)`` — the exact instant the
  pure-event schedule would have assembled the rendezvous;
* delivery is batched: one **carrier** event fires at ``T_r`` and serves
  every waiting PE synchronously, so a p-PE broadcast instruction costs
  one heap event instead of ~2p — or none, when ``T_r`` precedes the
  next heap event and the release runs inline;
* one **release loop** (:meth:`FetchUnitQueue._run_releases`) releases
  the run of heads whose time has come, item by item, and *steps* each
  PE parked on an instruction fetch: it calls
  :meth:`repro.m68k.cpu.CPU.step_released`, which runs the released
  instruction on the PE and hands back the stamp of its next fetch, and
  the loop writes that stamp into the PE's still-registered request —
  its generator is not resumed.  This is the max-plus recurrence of the
  release times, ``R(j) = max(admit(j), R(j−1), max_i arrival_i(j))``,
  evaluated item-major, each PE's arrival computed by its own handler.
  Under DRAM refresh a PE's *cost* for an item that touches DRAM
  depends on ``R(j)`` modulo the refresh period, so on every PE's step
  ``j−1``; its *effect* does not.  An item the compiled handler's
  ``ahead`` admits (memory operands only in ``(An)``-family modes, no
  control flow, no divide) touches only the PE's registers and DRAM: a
  run of them, every PE of its mask parked, runs ahead item-major
  (:func:`repro.m68k.cpu.run_ahead`), cut before any access that would
  leave a PE's own DRAM, and the loop prices each item's DRAM accesses
  at its release, ``R(j) = max(admit(j), R(j−1) + max_i c_i(j−1))``.
  A PE goes back to its generator only at an edge: its handler hands
  back a generator (network, SIMD-space data or barrier access, a cold
  instruction family), its pc leaves SIMD space, it halts, or the item
  is a sync word.  A barrier read, a fetch by a CPU that is tracing,
  and a PE with a scheduled fail-stop are never stepped.

Everything that is not a queue rendezvous — network register traffic and
the MC's commands (stamped channels, :mod:`repro.sim.channel`), timer
sampling, MIMD-space execution, mask changes, fault-plan machinery —
goes through the local-time path, access by access. There is no modal
"driver": the handoff granularity is a single bus operation, so mixed
workloads (S-MIMD barriers between MIMD phases, SIMD blocks with network
transfers inside) fall back and re-enter naturally.

The tier is on whenever the fast path is (``fast_path=True``, the
default); ``REPRO_PURE_EVENTS=1`` or ``fast_path=False`` selects the
pure-event reference schedule instead, where the same rendezvous is
discovered on the event heap.

The equivalence contract: cycle counts, per-PE finish times and category
totals, result matrices, queue and MC statistics are bit-identical across
both tiers (see ``tests/test_lockstep_differential.py``).
"""

from __future__ import annotations


def fire_event(ev, value) -> None:
    """Deliver ``ev`` with ``value`` synchronously, bypassing the heap.

    The batched-delivery primitive: semantically ``ev.succeed(value)``
    followed immediately by the kernel processing it, without the heap
    round-trip.  Callers must be executing inside an event callback at the
    intended delivery time (the carrier pattern), so ``env.now`` is
    already correct.
    """
    ev._value = value
    ev._ok = True
    callbacks = ev.callbacks
    ev.callbacks = None
    if callbacks:
        for cb in callbacks:
            cb(ev)
