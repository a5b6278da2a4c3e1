"""The Fetch Unit Queue and its release-on-all-requests rule.

Items carry either a broadcast :class:`~repro.m68k.instructions.Instruction`
or a bare synchronization word (for the barrier mechanism).  Each item
occupies as many queue slots as its encoded word count — the queue is a
word FIFO in hardware — and remembers the mask under which it was enqueued.

PEs call :meth:`FetchUnitQueue.request`; the head item is released only
when *every* PE in its mask has a pending request.  PEs not in the mask
keep waiting for a later item that includes them (disabled PEs "do not
participate in the instruction and wait until an instruction is broadcast
for which they are enabled").

Lockstep tier (see :mod:`repro.sim.lockstep`): PEs instead register a
*stamped arrival* — their bus-true time — without flushing their local
clocks.  The release time of the head item is then computed directly,
``T_r = max(admit time, previous release, max of the mask's stamped
arrivals)``; a release due before the next heap event runs inline, and
any other waits for one **carrier** event at ``T_r``.  One **release
loop** (:meth:`FetchUnitQueue._run_releases`) then releases the run of
heads whose time has come, item by item, and serves each one's batch of
waiting PEs synchronously.  A PE parked on an instruction fetch is
*stepped*: the loop runs the released instruction on its CPU
(:meth:`~repro.m68k.cpu.CPU.step_released`), and the PE's request stays
registered, re-stamped for its next fetch, without its generator
resuming.  At most one heap event replaces the ~2·p (flush + succeed per
PE) the event rendezvous costs, and ~p generator resumptions go with it.
A run of register-only items, whose cost no release instant changes,
each PE runs ahead PE-major, and the loop releases it from the recorded
costs.

The statistics (``queue_stats``) are defined from instants both tiers
know — the admit instant ``a_k`` of item ``k``, its release instant
``T_r(k)`` and the arrival instants ``r_i(k)`` of the requests its mask's
PEs make for it — never from the order the simulator handles events at
one instant, and one pair of methods computes them on both tiers
(:meth:`FetchUnitQueue._record_admit`, whose books the lockstep staging
pump keeps inline, and :meth:`FetchUnitQueue._account_release`):

* **empty stall**: item ``k`` adds
  ``max(0, a_k − max(T_r(k−1), min_i r_i(k)))``, with ``T_r(0) = 0`` —
  the time the queue sat empty while a PE that fetches item ``k`` waited;
* **occupancy**: each admit adds the item's words and each release takes
  them away.  At one instant an item's admit counts before its release,
  and an earlier item's release before a later item's admit.
  ``occupancy_samples`` holds the value after each instant and
  ``high_water`` the running peak in that order, so an item admitted and
  released at one instant counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from repro.errors import SimulationError
from repro.m68k.instructions import Instruction
from repro.sim import Environment, Event
from repro.sim.lockstep import fire_event


@dataclass(frozen=True)
class QueueItem:
    """One queue entry: an instruction or a synchronization word."""

    payload: Instruction | None  #: None = bare data word (barrier token)
    words: int  #: queue slots occupied / PE fetch accesses required
    mask: frozenset[int]  #: PE slots that must fetch this item

    @property
    def is_sync(self) -> bool:
        return self.payload is None


def sync_item(mask) -> QueueItem:
    """A one-word synchronization token for the barrier mechanism."""
    return QueueItem(payload=None, words=1, mask=frozenset(mask))


class _Run:
    """A register-only run the release loop ran ahead: its mask's
    ``slots`` and CPUs, each PE's per-item ``costs``, their per-item
    max and min, each PE's stamp at the run's first item, the run's
    timecat, and the index of its next item to release."""

    __slots__ = ("slots", "cpus", "costs", "maxc", "minc", "starts", "cat",
                 "next")

    def __init__(self, slots, cpus, costs, starts, cat) -> None:
        self.slots, self.cpus, self.costs = slots, cpus, costs
        columns = list(zip(*costs))
        self.maxc = [max(col) for col in columns]
        self.minc = [min(col) for col in columns]
        self.starts, self.cat = starts, cat
        self.next = 0


class FetchUnitQueue:
    """Finite word-FIFO with the all-enabled-PEs release rule."""

    def __init__(
        self,
        env: Environment,
        capacity_words: int,
        name: str = "fuq",
        fast_path: bool = False,
    ) -> None:
        if capacity_words < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity_words}")
        self.env = env
        self.name = name
        self.capacity_words = capacity_words
        #: Engine tier: True runs the lockstep rendezvous (stamped
        #: requests, computed release instants), False the event one.
        self.fast_path = fast_path
        self._items: deque[QueueItem] = deque()
        self._words_used = 0
        self._requests: dict[int, Event] = {}
        #: ``CPU.step_released`` of the PEs whose pending request the
        #: release loop may step (lockstep only; one entry per pending
        #: request, so none outlives the run).
        self._steppers: dict[int, object] = {}
        #: Pure events: blocked :meth:`enqueue` calls, admitted in order
        #: as releases free space.
        self._space_waiters: deque[tuple[Event, QueueItem]] = deque()
        #: Lockstep: fail-stop strike instant by slot.  A stamp beyond it
        #: is never registered: the event schedule kills the board first.
        self._struck: dict[int, float] = {}
        #: Arrival instant of each pending request: env.now at
        #: :meth:`request` on pure events, the bus-true stamp on lockstep.
        self._arrivals: dict[int, float] = {}
        # -- lockstep rendezvous state -------------------------------------
        self._carrier_pending = False  #: a carrier event is on the heap
        self._carrier: Event | None = None  #: the last carrier scheduled
        self._releasing = False  #: inside the carrier's release loop
        #: Staged (item, transfer_cycles) pairs (:meth:`stage`); admit
        #: instants are computed as space frees.
        self._staged: deque[tuple[QueueItem, float]] = deque()
        #: Admit instant of the last staged item (the start of the
        #: staged block's first transfer until it is admitted).
        self._stage_clock = 0.0
        #: Called when the last staged item is admitted; it may stage
        #: the next block (the command register's next command).
        self.on_staged = None
        # -- statistics (module docstring) ---------------------------------
        self.releases = 0
        self.words_enqueued = 0
        #: Time the queue sat empty while a PE that fetches the next item
        #: waited, summed over items.
        self.empty_stall_cycles = 0.0
        self._last_release = 0.0  #: ``T_r`` of the last released item
        #: Per item, in queue order: its admit instant ``a_k`` (staged
        #: admits are computed before env.now reaches them), its words,
        #: and its release instant once released.  The FIFO admits and
        #: releases items in order, so each list is in time order too.
        self._admitted_at: list[float] = []
        self._item_words: list[int] = []
        self._released_at: list[float] = []
        self.lockstep_releases = 0  #: items released via computed rendezvous
        self.lockstep_batch_pes = 0  #: PE requests served by releases
        self.lockstep_carriers = 0  #: carrier events scheduled
        #: PE instructions the release loop stepped, the PE's generator
        #: left parked.
        self.broadcast_steps = 0
        #: Of those, register-only ones run ahead of their release.
        self.ahead_steps = 0
        #: False keeps the release loop from running register-only items
        #: ahead (set by a machine whose fault plan schedules a
        #: fail-stop: a strike must find each PE where the event
        #: schedule has it).
        self.may_run_ahead = True
        #: The register-only run being released, or None.
        self._run: _Run | None = None

    # -- statistics ----------------------------------------------------
    def _record_admit(self, t: float, item: QueueItem) -> None:
        """Put ``item`` on the books, admitted at ``t``."""
        self._items.append(item)
        self._admitted_at.append(t)
        self._item_words.append(item.words)
        self._words_used += item.words
        self.words_enqueued += item.words

    def _account_release(self, head: QueueItem, t_r: float,
                         first: float) -> None:
        """Take the head off the books, released at ``t_r``, and charge
        the empty stall of its wait: from the later of the previous
        release and its mask's first arrival ``first``, to its admit."""
        self._items.popleft()
        self._words_used -= head.words
        admitted = self._admitted_at[self.releases]
        since = max(self._last_release, first)
        if admitted > since:
            self.empty_stall_cycles += admitted - since
        self._last_release = t_r
        self._released_at.append(t_r)
        self.releases += 1

    def _walk(self, record=None) -> int:
        """Walk every admit and release in instant order with the tie
        rule of the module docstring — release ``j`` comes before admit
        ``k`` when ``T_r(j) < a_k``, or when they are equal and ``j < k``
        — and return the peak occupancy.  ``record(t, words)``, if
        given, sees the occupancy after each admit and release."""
        admitted, words = self._admitted_at, self._item_words
        released = self._released_at
        n = len(released)
        occupied = peak = j = 0
        for k, a in enumerate(admitted):
            while j < n and (released[j] < a or released[j] == a and j < k):
                occupied -= words[j]
                if record is not None:
                    record(released[j], occupied)
                j += 1
            occupied += words[k]
            if occupied > peak:
                peak = occupied
            if record is not None:
                record(a, occupied)
        if record is not None:
            for j in range(j, n):
                occupied -= words[j]
                record(released[j], occupied)
        return peak

    @property
    def high_water(self) -> int:
        return self._walk()

    @property
    def occupancy_samples(self) -> list[tuple[float, int]]:
        """``(t, words)``: the occupancy after each instant."""
        samples: list[tuple[float, int]] = []

        def record(t: float, words: int) -> None:
            if samples and samples[-1][0] == t:
                samples[-1] = (t, words)
            else:
                samples.append((t, words))

        self._walk(record)
        return samples

    # ------------------------------------------------------------------
    @property
    def words_used(self) -> int:
        return self._words_used

    @property
    def is_empty(self) -> bool:
        return not self._items

    def space_left(self) -> int:
        return self.capacity_words - self._words_used

    # ------------------------------------------------------------------
    def _check(self, item: QueueItem) -> None:
        if not item.mask:
            raise SimulationError("cannot enqueue an item with an empty mask")
        if item.words > self.capacity_words:
            raise SimulationError(
                f"item of {item.words} words exceeds queue capacity "
                f"{self.capacity_words}"
            )

    def enqueue(self, item: QueueItem):
        """Generator (pure events): append ``item``, blocking while the
        FIFO lacks space.  The lockstep tier stages items instead."""
        self._check(item)
        if item.words > self.space_left() or self._space_waiters:
            ev = self.env.event(name=f"space:{self.name}")
            self._space_waiters.append((ev, item))
            yield ev
        else:
            self._admit_at(item, self.env.now)

    def try_enqueue(self, item: QueueItem) -> bool:
        """Non-blocking enqueue; False when the FIFO lacks space."""
        if item.words > self.space_left() or self._space_waiters:
            return False
        self._admit_at(item, self.env.now)
        return True

    def _admit_at(self, item: QueueItem, t: float) -> None:
        """Admit ``item`` at recorded time ``t`` (>= env.now for staged
        admits whose transfer completes in the simulated future)."""
        self._record_admit(t, item)
        if not self._releasing:  # a release cascade re-checks the head
            self._try_release()

    # -- lockstep staging ------------------------------------------------
    def stage(self, entries, start: float) -> None:
        """Hand a block of ``(item, transfer_cycles)`` entries over for
        computed admission, the first transfer starting at ``start``.

        Replaces a transfer process's per-item timeout and blocking
        enqueue: each transfer starts when the previous item was
        admitted, and admission waits for FIFO space, which frees at
        computed release instants — the recurrence the event engine
        walks, in arithmetic.  Items that fit are admitted at once (in a
        release loop, by the loop's own pump); :attr:`on_staged` is
        called when the last one is.
        """
        if self._staged:
            raise SimulationError(
                f"{self.name}: a staged block is already in flight")
        for item, _ in entries:
            self._check(item)
        self._stage_clock = start
        self._staged.extend(entries)
        if not self._releasing:
            self._pump_staging(start)

    def _pump_staging(self, free_at: float) -> None:
        """Admit staged items whose transfer is done and that fit now.

        ``free_at`` is the (computed) time the triggering release freed
        space; an item whose transfer completed earlier is admitted at
        that instant, exactly when the blocking enqueue would unblock.
        """
        staged = self._staged
        while staged:
            item, cycles = staged[0]
            words = item.words
            if words > self.capacity_words - self._words_used:
                return
            ready = self._stage_clock + cycles
            if free_at > ready:
                ready = free_at
            staged.popleft()
            self._stage_clock = ready
            # The books of _record_admit, inline: one admit per release.
            self._items.append(item)
            self._admitted_at.append(ready)
            self._item_words.append(words)
            self._words_used += words
            self.words_enqueued += words
            if not self._releasing:  # a release cascade re-checks the head
                self._schedule_release()
            if not staged and self.on_staged is not None:
                self.on_staged()

    def horizon(self) -> float:
        """Simulated time the event engine reaches for this queue (-inf
        when none).  Fail-stop watchdog support: a pending request's
        stamped arrival is a surviving PE's unflushed clock, and in the
        event engine the transfer process admits each staged item at its
        instant and, before blocking on space, runs the next item's
        transfer timeout."""
        t = self._stage_clock
        if self._staged:
            t += self._staged[0][1]
        return max(t, *self._arrivals.values()) if self._arrivals else t

    # ------------------------------------------------------------------
    def request(self, pe_slot: int):
        """Generator (PE side): wait for the next item this PE may fetch."""
        if pe_slot in self._requests:
            raise SimulationError(
                f"PE slot {pe_slot} already has a pending request on {self.name}"
            )
        ev = self.env.event(name=f"req:{self.name}:{pe_slot}")
        self._requests[pe_slot] = ev
        self._arrivals[pe_slot] = self.env.now
        self._try_release()
        item = yield ev
        return item

    def register_request_inline(self, pe_slot: int, arrival: float,
                                ev: Event, stepper) -> Event:
        """Stamped request that may resolve the rendezvous *synchronously*.

        When this registration completes the head's mask and the release
        time precedes every pending heap event, the release cascade runs
        right here: the other waiters are served nested, and ``ev``
        comes back already fired (``callbacks is None``) with the
        ``(item, t_r)`` pair in its value — the caller continues without
        parking.  This is what lets the mask-completing PE *stream*
        through a broadcast block with zero heap events.

        ``stepper`` is the parked fetcher's ``CPU.step_released``, or
        None: while the PE is parked on ``ev``, the release loop may step
        it (see :meth:`_run_releases`).
        """
        if pe_slot in self._requests:
            raise SimulationError(
                f"PE slot {pe_slot} already has a pending request on {self.name}"
            )
        if self._struck and arrival > self._struck.get(pe_slot, arrival):
            return ev  # a dead board's request: it parks for good
        self._requests[pe_slot] = ev
        self._arrivals[pe_slot] = arrival
        if stepper is not None:
            self._steppers[pe_slot] = stepper
        if not self._releasing and not self._carrier_pending and self._items:
            self._run_releases()
        return ev

    def cancel_lockstep_request(self, pe_slot: int, after: float) -> None:
        """Withdraw a stamped request whose arrival lies strictly after
        ``after`` (fail-stop support).

        A PE struck at ``after`` dies mid-charge in the event schedule,
        *before* its request would have registered — the early-registered
        lockstep stamp must be withdrawn or it could wrongly complete a
        rendezvous mask.  A stamp at or before the strike stays: the
        pure-event flush sleep (scheduled earlier than the strike kicker)
        lands first at equal times, so that request did register.  No
        later stamp of the slot registers either: a release served
        before the kill reaches the board in lockstep may still run it
        on to its next request.
        """
        self._struck[pe_slot] = after
        arrival = self._arrivals.get(pe_slot)
        if arrival is not None and arrival > after:
            del self._arrivals[pe_slot]
            self._steppers.pop(pe_slot, None)
            del self._requests[pe_slot]
            if (self._carrier_pending and self._items
                    and pe_slot in self._items[0].mask):
                # The carrier was for the release this stamp completed,
                # which no longer happens.
                self.env.withdraw(self._carrier_fired)
                self._carrier_pending = False

    # ------------------------------------------------------------------
    def _try_release(self) -> None:
        """Release head items while their whole mask has requests pending."""
        if self.fast_path:
            self._schedule_release()
            return
        while self._items:
            head = self._items[0]
            if not head.mask <= self._requests.keys():
                return
            # All enabled PEs are waiting: release.
            self._account_release(head, self.env.now,
                                  min(self._arrivals[s] for s in head.mask))
            for slot in head.mask:
                del self._arrivals[slot]
                self._requests.pop(slot).succeed(head)
            self._refill_from_waiters()

    # -- lockstep rendezvous -------------------------------------------
    def _schedule_release(self) -> None:
        """At an admit: schedule the carrier once the head's release time
        is known.  The release loop is not run here, since an admit may
        come in the middle of a staging pump whose later items are not
        waiting for space."""
        if self._releasing or self._carrier_pending or not self._items:
            return
        mask = self._items[0].mask
        if mask <= self._requests.keys():
            arrivals = self._arrivals
            self._schedule_carrier(max(
                self._admitted_at[self.releases], self._last_release,
                *[arrivals[s] for s in mask]))

    def _schedule_carrier(self, t_r: float) -> None:
        self._carrier_pending = True
        self.lockstep_carriers += 1
        carrier = self._carrier
        if carrier is not None and carrier.callbacks is None:
            carrier.callbacks = [self._carrier_fired]  # fired: reuse it
        else:
            carrier = self._carrier = self.env.event(
                name=f"carrier:{self.name}")
            carrier.callbacks.append(self._carrier_fired)
        self.env.schedule(carrier, t_r - self.env.now)

    def _carrier_fired(self, _event: Event) -> None:
        self._carrier_pending = False
        self._run_releases()

    def _run_releases(self) -> None:
        """The release loop: release the run of heads whose time has
        come, item by item, each at ``T_r``: the latest of the head's
        admit, the previous release (the head is released no earlier
        than the item before it) and its mask's arrivals.

        A release whose ``T_r`` lies *before the next heap event* is
        fast-forwarded inline — simulated time becomes data carried in
        the recorded release time, and env.now only catches up when some
        other actor (an MC that waits, network, fault kicker) has an
        event pending.  The heap bound guarantees no foreign event could
        have interleaved, so the fast-forwarded schedule is the event
        schedule.  Any other release waits for a carrier at ``T_r``,
        which runs the loop on.

        Each release mirrors the event engine's: the books and
        statistics, the staging pump (the event engine's space-waiter
        refill happens before any succeed is *processed* there), and
        only then the PEs, served synchronously in mask-iteration order,
        the order the succeed events would pop.  A PE parked on an
        instruction fetch is *stepped*: its CPU runs the instruction here
        and, still in SIMD space, hands back the stamp of its next fetch,
        which stays registered on the same parked event.  Every other
        waiter — a barrier read, a sync word, a fetcher that is tracing
        or may fail-stop, the PE whose own registration ran this loop, or
        a step that reached an edge — is resumed with a value: the
        ``(item, t_r)`` pair, from which it rebases its local clock when
        ``t_r`` is ahead of env.now, or what the step handed back.  The
        loop is item-major: under DRAM refresh a PE's cost for an item
        that touches memory depends on that item's ``T_r``.  A
        register-only item's cost does not (SIMD space is static RAM,
        and it touches no memory), so when the head is one and every PE
        of its mask is parked for stepping, each PE runs the whole run
        of them ahead (:meth:`_start_run`) and the loop releases it from
        the recorded costs ``c_i(j)``: PE i asks for item ``j`` at
        ``T_r(j−1) + c_i(j−1)``, so ``T_r(j) = max(a_j, T_r(j−1) + max_i
        c_i(j−1))`` and the empty stall's first arrival is ``T_r(j−1) +
        min_i c_i(j−1)``, with the books, staging pump and heap bound of
        any release and no PE stepped.  A carrier that stops the run
        writes the PEs' arrivals back and resumes it; at its end
        (:meth:`_end_run`) each PE's next fetch is stamped.
        """
        self._releasing = True
        env = self.env
        items = self._items
        requests = self._requests
        arrivals = self._arrivals
        steppers = self._steppers
        admitted = self._admitted_at
        steps = 0
        try:
            while items:
                head = items[0]
                mask = head.mask
                if not mask <= requests.keys():
                    return
                run = self._run
                if run is None and self.may_run_ahead:
                    ins = head.payload
                    if ins is not None and getattr(
                            ins._exec_handler_cache, "register_only", False):
                        run = self._start_run(head)
                if run is not None and run.next:
                    # PE i asks for item j at T_r(j−1) + c_i(j−1).
                    t_prev = self._last_release
                    t_r = t_prev + run.maxc[run.next - 1]
                    first = t_prev + run.minc[run.next - 1]
                    if admitted[self.releases] > t_r:
                        t_r = admitted[self.releases]
                else:
                    stamps = [arrivals[s] for s in mask]
                    t_r = max(admitted[self.releases], self._last_release,
                              *stamps)
                    first = min(stamps)
                now = env.now
                if t_r < now:
                    t_r = now
                elif t_r > now and not t_r < env.peek():
                    if run is not None and run.next:
                        t_prev = self._last_release
                        for slot, c in zip(run.slots, run.costs):
                            arrivals[slot] = t_prev + c[run.next - 1]
                    self._schedule_carrier(t_r)
                    return
                self._account_release(head, t_r, first)
                self.lockstep_releases += 1
                if self._staged:
                    self._pump_staging(t_r)
                self.lockstep_batch_pes += len(mask)
                if run is not None:
                    run.next += 1
                    if run.next == len(run.maxc):
                        self._end_run(run, t_r)
                    continue
                step = head.payload is not None
                # Serving a PE touches no other slot's request (a resumed
                # generator's own registrations wait for this cascade),
                # so each slot leaves the books only when its PE is
                # resumed.
                for slot in mask:
                    ev = requests[slot]
                    stepper = steppers.get(slot)
                    if stepper is not None and step and ev.callbacks:
                        got = stepper(head, t_r, arrivals[slot])
                        if type(got) is float:
                            arrivals[slot] = got
                            steps += 1
                            continue
                    else:
                        got = (head, t_r)
                    del requests[slot]
                    steppers.pop(slot, None)
                    del arrivals[slot]
                    fire_event(ev, got)
        finally:
            self._releasing = False
            self.broadcast_steps += steps

    def _start_run(self, head: QueueItem) -> _Run | None:
        """Run the register-only run at the head ahead of its release,
        if every PE of its mask is parked for stepping: the admitted
        items from the head on that share its mask and timecat and are
        register-only, cut before the first that would take a PE's pc
        out of SIMD space.  Each PE runs the whole run PE-major
        (:meth:`~repro.m68k.cpu.CPU.run_ahead`); the run, with its
        costs, is pending until :meth:`_run_releases` has released its
        last item.  None when no run of two or more items starts.
        """
        mask = head.mask
        cat = head.payload.timecat
        steps = []
        offset = words = 0
        for item in self._items:
            ins = item.payload
            if (item.mask is not mask and item.mask != mask) or ins is None:
                break
            h = ins._exec_handler_cache
            if h is None or not h.register_only or ins.timecat != cat:
                break
            w = ins._encoded_words_cache
            if w is None:
                w = ins.encoded_words()
            steps.append((h, offset, offset + 2 * w, item.words))
            offset += 2 * w
            words += item.words
        if len(steps) < 2:
            return None
        requests, steppers = self._requests, self._steppers
        cpus = []
        for slot in mask:
            stepper = steppers.get(slot)
            if stepper is None or not requests[slot].callbacks:
                return None  # resumed with a value, not stepped
            cpu = stepper.__self__
            if cpu.bus.trace_waits:
                return None
            cpus.append(cpu)
        for cpu in cpus:  # the pc stays in SIMD space after each step
            room = cpu.bus._simd_bounds[1] - cpu.regs.pc
            while steps and steps[-1][2] >= room:
                words -= steps.pop()[3]
        if len(steps) < 2:
            return None
        costs = [cpu.run_ahead(steps, words) for cpu in cpus]
        self.ahead_steps += len(steps) * len(cpus)
        self.broadcast_steps += len(steps) * len(cpus)
        arrivals = self._arrivals
        self._run = _Run(list(mask), cpus, costs,
                         [arrivals[s] for s in mask], cat)
        return self._run

    def _end_run(self, run: _Run, t_r: float) -> None:
        """The run's last item was released at ``t_r``: stamp each PE's
        next fetch and add the run's time to its category, telescoped
        from its stamp at the run's first item."""
        arrivals = self._arrivals
        for slot, cpu, c, first in zip(run.slots, run.cpus, run.costs,
                                       run.starts):
            end = t_r + c[-1]
            arrivals[slot] = end
            cats = cpu.category_cycles
            cats[run.cat] = cats.get(run.cat, 0.0) + (end - first)
        self._run = None

    def _refill_from_waiters(self) -> None:
        """Pure events: admit blocked enqueues as far as space allows."""
        while self._space_waiters:
            ev, item = self._space_waiters[0]
            if item.words > self.capacity_words - self._words_used:
                return
            self._space_waiters.popleft()
            self._record_admit(self.env.now, item)
            ev.succeed()
