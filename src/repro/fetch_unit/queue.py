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
``T_r = max(admit time, max of the mask's stamped arrivals)``; a release
due before the next heap event runs inline, and any other waits for one
**carrier** event at ``T_r``.  Either way the whole batch of waiting PEs
is served synchronously, and a PE parked on an instruction fetch is
served by **broadcast step**: the queue runs the released instruction on
its CPU, and the PE's request stays registered, re-stamped for its next
fetch, without its generator resuming
(:meth:`FetchUnitQueue._release_head_now`).  At most one
heap event replaces the ~2·p (flush + succeed per PE) the event
rendezvous costs, and ~p generator resumptions go with it.
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
        #: CPUs whose pending request may be served by broadcast step
        #: (lockstep only; one entry per pending request, so none
        #: outlives the run).
        self._steppers: dict[int, object] = {}
        self._space_waiters: deque[tuple[Event, QueueItem]] = deque()
        #: Lockstep: fail-stop strike instant by slot.  A stamp beyond it
        #: is never registered: the event schedule kills the board first.
        self._struck: dict[int, float] = {}
        # -- lockstep rendezvous state -------------------------------------
        self._arrivals: dict[int, float] = {}  #: stamped bus-true arrivals
        #: Schedule instants of the stamped arrivals: the time the pure
        #: event engine *scheduled* the charge event that completes at
        #: the arrival (``arrival - last charge duration``).  Heap order
        #: at equal timestamps follows schedule order, so this is what
        #: breaks admit-vs-release ties in :meth:`_settle_admits`.
        self._scheds: dict[int, float] = {}
        self._carrier_pending = False  #: a carrier event is on the heap
        self._releasing = False  #: inside the carrier's release loop
        #: Release time at which the settled occupancy last hit zero —
        #: the event-schedule instant the queue became empty (clamps the
        #: empty-stall latch in :meth:`_settle_admits`).
        self._stats_empty_since = 0.0
        self._ls_stall_start: float | None = None  #: latched stall origin
        #: Per-item admit times, parallel to ``_items`` (lockstep only) —
        #: the release-time floor, since fast-forwarded admits may be
        #: recorded before env.now reaches them.
        self._admit_times: deque[float] = deque()
        #: Bulk-staged (item, transfer_cycles) pairs from the controller;
        #: admit times are computed analytically as space frees.
        self._staged: deque[tuple[QueueItem, float]] = deque()
        self._stage_clock = 0.0  #: admit-chain time of the staged block
        self._stage_done: Event | None = None  #: fired when staging drains
        # -- statistics ---------------------------------------------------
        self.releases = 0
        self.words_enqueued = 0
        self.empty_stall_cycles = 0.0  #: PE time spent waiting on empty queue
        self._all_arrived_at: float | None = None
        self._hw = 0
        #: (time, words_used) samples, recorded at every occupancy change.
        self._occ: list[tuple[float, int]] = []
        #: Lockstep: admits recorded at computed (possibly future) times,
        #: held back until every release that precedes them has been
        #: computed, then applied in true time order — staging admits
        #: words long before the lazy rendezvous computation pops earlier
        #: releases, and applying them eagerly would show occupancy peaks
        #: the event schedule never reaches.  Entries are
        #: ``(t, words, sample, sched)`` kept sorted by ``t``; ``sample``
        #: is False for space-waiter refills, which the event engine
        #: admits without an occupancy sample.  ``sched`` is the schedule
        #: instant of the admit's transfer-timeout event (staged free
        #: admits), or None for admits that happen *inside* an already
        #: executing event — space-bound refills, release cascades, and
        #: real-time enqueues — which therefore precede any tied release
        #: still sitting on the heap.
        self._pending_admits: list[tuple[float, int, bool, float | None]] = []
        self._stats_words = 0  #: settled occupancy (lockstep stats view)
        self.lockstep_releases = 0  #: items released via computed rendezvous
        self.lockstep_batch_pes = 0  #: PE requests served by releases
        self.lockstep_carriers = 0  #: carrier events scheduled
        #: PE instructions executed by broadcast step, the PE's generator
        #: left parked.
        self.broadcast_steps = 0
        #: Admit-vs-release settles at equal time *and* equal schedule
        #: instant: the event heap orders those by sequence, which the
        #: lockstep tier does not track, so it guesses admit-first and
        #: ``queue_stats`` may differ from pure events (the known
        #: lockstep tie).  Zero means the run's stats are exact.
        self.sched_ties = 0

    def _sample(self) -> None:
        self._occ.append((self.env.now, self._words_used))

    # -- statistics settlement (lockstep) ------------------------------
    def _push_admit(self, t: float, words: int, sample: bool = True,
                    sched: float | None = None) -> None:
        pend = self._pending_admits
        i = len(pend)
        while i > 0 and pend[i - 1][0] > t:
            i -= 1
        pend.insert(i, (t, words, sample, sched))

    def _settle_admits(self, limit: float, inclusive: bool = True,
                       enabler_sched: float = float("-inf"),
                       stall_view: tuple | None = None) -> None:
        """Apply pending admits up to ``limit`` to the stats view.

        The equal-time tie-break is causal, matching the event engine's
        heap order.  An admit that *enables* a release (the head admitted
        exactly at the release instant) is that release's last enabling
        event and processes first (``inclusive``).  An independent admit
        coinciding with an already-enabled release replays the heap's
        schedule order: at equal timestamps the event scheduled earlier
        pops first, so the admit's transfer timeout (scheduled one word
        transfer before ``t``) beats a release enabled by a *short*
        final charge and loses to one enabled by a *long* final charge.
        ``enabler_sched`` is the release's side of that comparison — the
        schedule instant of its last enabling arrival event; admits with
        ``sched`` None happened inside an already-executing event and
        always settle first.

        ``stall_view`` is ``(amin, asched)`` — the earliest arrival
        among the requesters registered in the event schedule and the
        schedule instant of that arrival's charge event — supplied when
        the settled occupancy is zero: the admit that turns it non-zero
        is the event engine's empty->non-empty transition, and any
        request registered against the empty queue before it starts the
        empty-stall clock (the pure engine latches ``_all_arrived_at``
        at its first such registration, clamped to the release that
        emptied the queue).  A request tying the admit's timestamp
        registered first only if its charge event was scheduled first
        (``asched < sched``).  A cascade admit — ``sched`` None landing
        exactly at the emptying release — refills synchronously inside
        that release's event and latches nothing.
        """
        pend = self._pending_admits
        while pend:
            t, words, sample, sched = pend[0]
            if t > limit:
                break
            if t == limit and not inclusive and sched is not None:
                if sched > enabler_sched:
                    break
                if sched == enabler_sched:
                    self.sched_ties += 1
            pend.pop(0)
            if (stall_view is not None and self._stats_words == 0
                    and self._ls_stall_start is None
                    and not (sched is None
                             and t == self._stats_empty_since)):
                amin, asched = stall_view
                if amin == t and asched == sched:
                    self.sched_ties += 1
                if amin < t or (amin == t and sched is not None
                                and asched < sched):
                    self._ls_stall_start = max(self._stats_empty_since,
                                               amin)
            self._stats_words += words
            if self._stats_words > self._hw:
                self._hw = self._stats_words
            if sample:
                self._occ.append((t, self._stats_words))

    @property
    def high_water(self) -> int:
        self._settle_admits(float("inf"))
        return self._hw

    @property
    def occupancy_samples(self) -> list[tuple[float, int]]:
        self._settle_admits(float("inf"))
        return self._occ

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
    def enqueue(self, item: QueueItem):
        """Generator: append ``item``, blocking while the FIFO lacks space."""
        if not item.mask:
            raise SimulationError("cannot enqueue an item with an empty mask")
        if item.words > self.capacity_words:
            raise SimulationError(
                f"item of {item.words} words exceeds queue capacity "
                f"{self.capacity_words}"
            )
        if item.words > self.space_left() or self._space_waiters:
            ev = self.env.event(name=f"space:{self.name}")
            self._space_waiters.append((ev, item))
            yield ev
        else:
            self._admit(item)

    def try_enqueue(self, item: QueueItem) -> bool:
        """Non-blocking enqueue; False when the FIFO lacks space."""
        if item.words > self.space_left() or self._space_waiters:
            return False
        self._admit(item)
        return True

    def _admit(self, item: QueueItem) -> None:
        self._admit_at(item, self.env.now)

    def _admit_at(self, item: QueueItem, t: float,
                  sched: float | None = None) -> None:
        """Admit ``item`` at recorded time ``t`` (>= env.now for staged
        admits whose transfer completes in the simulated future).

        ``sched`` is the schedule instant of the admit's heap event
        (staged transfers only); None marks an admit performed inside an
        already-executing event — see :meth:`_settle_admits`.  The
        empty-stall latch happens there too, when this admit *settles*
        in event-schedule order, not here at the (possibly leapfrogged)
        env step that computed it."""
        self._items.append(item)
        self._words_used += item.words
        self.words_enqueued += item.words
        if self.fast_path:
            self._admit_times.append(t)
            self._push_admit(t, item.words, sched=sched)
        else:
            self._hw = max(self._hw, self._words_used)
            self._occ.append((t, self._words_used))
        if not self._releasing:  # a release cascade re-checks the head
            self._try_release()

    # -- lockstep bulk staging -----------------------------------------
    def stage_block(self, entries):
        """Hand a whole command block over for computed admission.

        ``entries`` is a sequence of ``(item, transfer_cycles)`` pairs in
        transfer order.  Replaces the controller's per-item timeout +
        blocking-enqueue loop: admit times follow the same recurrence the
        event engine walks — each transfer starts when the previous item
        was admitted, and admission waits for FIFO space, which frees at
        computed release times — but entirely in arithmetic.

        Returns ``(t_end, None)`` when everything was admitted
        synchronously (``t_end`` = last admit time), or ``(None, event)``
        with an event that fires with ``t_end`` once releases free enough
        space.  The caller must re-join simulated time at ``t_end``
        before touching any other shared state.
        """
        if not self.fast_path:
            raise SimulationError(f"{self.name}: stage_block needs lockstep")
        if self._staged or self._stage_done is not None:
            raise SimulationError(
                f"{self.name}: a staged block is already in flight"
            )
        for item, _ in entries:
            if not item.mask:
                raise SimulationError(
                    "cannot enqueue an item with an empty mask")
            if item.words > self.capacity_words:
                raise SimulationError(
                    f"item of {item.words} words exceeds queue capacity "
                    f"{self.capacity_words}"
                )
        self._stage_clock = self.env.now
        self._staged.extend(entries)
        self._pump_staging(self.env.now)
        if not self._staged:
            return self._stage_clock, None
        ev = self.env.event(name=f"staged:{self.name}")
        self._stage_done = ev
        return None, ev

    def _pump_staging(self, free_at: float) -> None:
        """Admit staged items whose transfer is done and that fit now.

        ``free_at`` is the (computed) time the triggering release freed
        space; an item whose transfer completed earlier is admitted at
        that instant, exactly when the blocking enqueue would unblock.
        """
        staged = self._staged
        while staged:
            item, cycles = staged[0]
            if item.words > self.capacity_words - self._words_used:
                return
            start = self._stage_clock
            ready = start + cycles
            bound = ready < free_at
            if bound:
                ready = free_at
            staged.popleft()
            self._stage_clock = ready
            # A free admit's heap event (the transfer timeout) was
            # scheduled at the transfer start; a space-bound admit runs
            # inside the release cascade that freed its space (None).
            self._admit_at(item, ready, sched=None if bound else start)
        ev = self._stage_done
        if ev is not None:
            self._stage_done = None
            fire_event(ev, self._stage_clock)

    def stall_horizon(self) -> float:
        """Simulated time implied by a stalled staged transfer (-inf when
        none).  Deadlock-watchdog support: in the event engine the
        controller's last act before blocking on space is the next item's
        transfer timeout, so the heap drains no earlier than that."""
        if self._staged:
            return self._stage_clock + self._staged[0][1]
        return float("-inf")

    # ------------------------------------------------------------------
    def request(self, pe_slot: int):
        """Generator (PE side): wait for the next item this PE may fetch."""
        if pe_slot in self._requests:
            raise SimulationError(
                f"PE slot {pe_slot} already has a pending request on {self.name}"
            )
        ev = self.env.event(name=f"req:{self.name}:{pe_slot}")
        self._requests[pe_slot] = ev
        self._try_release()
        item = yield ev
        return item

    def register_request_at(self, pe_slot: int, arrival: float,
                            sched: float) -> Event:
        """Register a stamped lockstep request; return the event to park on.

        The PE does *not* flush its local clock first: ``arrival`` is its
        bus-true time (``env.now + local``) and the caller zeroes the
        local clock.  ``sched`` is the schedule instant of the arrival's
        final charge event.  The PE resumes, carrier-delivered, with the
        ``(item, t_r)`` release pair; ``t_r`` is the computed rendezvous
        instant (env.now may lag behind it during queue fast-forward),
        from which the caller rebases its local clock.
        """
        if pe_slot in self._requests:
            raise SimulationError(
                f"PE slot {pe_slot} already has a pending request on {self.name}"
            )
        ev = self.env.event(name=f"req:{self.name}:{pe_slot}")
        if self._struck and arrival > self._struck.get(pe_slot, arrival):
            return ev  # a dead board's request: it parks for good
        self._requests[pe_slot] = ev
        self._arrivals[pe_slot] = arrival
        self._scheds[pe_slot] = sched
        self._try_release()
        return ev

    def register_request_inline(self, pe_slot: int, arrival: float,
                                ev: Event, sched: float, cpu) -> Event:
        """Stamped request that may resolve the rendezvous *synchronously*.

        When this registration completes the head's mask and the release
        time precedes every pending heap event, the release cascade runs
        right here: the other waiters are served nested, and ``ev``
        comes back already fired (``callbacks is None``) with the
        ``(item, t_r)`` pair in its value — the caller continues without
        parking.  This is what lets the mask-completing PE *stream*
        through a broadcast block with zero heap events.  Callers that
        cannot consume an already-fired event must use
        :meth:`register_request_at` (carrier delivery only).

        ``cpu`` is the instruction fetcher parked on ``ev``, or None:
        while it is parked, a release may serve it by broadcast step (see
        :meth:`_release_head_now`).
        """
        if pe_slot in self._requests:
            raise SimulationError(
                f"PE slot {pe_slot} already has a pending request on {self.name}"
            )
        if self._struck and arrival > self._struck.get(pe_slot, arrival):
            return ev  # a dead board's request: it parks for good
        self._requests[pe_slot] = ev
        self._arrivals[pe_slot] = arrival
        self._scheds[pe_slot] = sched
        if cpu is not None:
            self._steppers[pe_slot] = cpu
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
            self._scheds.pop(pe_slot, None)
            self._steppers.pop(pe_slot, None)
            del self._requests[pe_slot]
            if (self._carrier_pending and self._items
                    and pe_slot in self._items[0].mask):
                # The carrier was for the release this stamp completed,
                # which no longer happens.
                self.env.withdraw(self._carrier_fired)
                self._carrier_pending = False

    def pending_arrival_max(self) -> float:
        """Latest stamped arrival among pending requests (-inf if none).

        Used by the fail-stop watchdog: when the heap drains, surviving
        PEs' unflushed local clocks — visible here as future stamps —
        are time that *would* have elapsed in the event schedule.
        """
        return max(self._arrivals.values(), default=float("-inf"))

    # ------------------------------------------------------------------
    def _try_release(self) -> None:
        """Release head items while their whole mask has requests pending."""
        if self.fast_path:
            self._try_release_lockstep()
            return
        while self._items:
            head = self._items[0]
            if not head.mask <= self._requests.keys():
                # Record when the full mask first assembled with an empty /
                # not-yet-matching queue for empty-stall statistics.
                return
            # All enabled PEs are waiting: release.
            if self._all_arrived_at is not None:
                self.empty_stall_cycles += self.env.now - self._all_arrived_at
                self._all_arrived_at = None
            self._items.popleft()
            self._words_used -= head.words
            self.releases += 1
            self._sample()
            waiters = [self._requests.pop(slot) for slot in head.mask]
            for ev in waiters:
                ev.succeed(head)
            self._refill_from_waiters()
        # Queue empty: if some mask could be satisfied later, note the time
        # all *current* requesters assembled (approximation: first moment
        # the queue is empty with requests outstanding).
        if self._requests and self._all_arrived_at is None:
            self._all_arrived_at = self.env.now

    # -- lockstep rendezvous -------------------------------------------
    def _head_release_time(self) -> float | None:
        """``T_r`` for the head item, or None while its mask is short."""
        head = self._items[0]
        if not head.mask <= self._requests.keys():
            return None
        t_r = self._admit_times[0]  #: rendezvous floor: head admit time
        arrivals = self._arrivals
        for slot in head.mask:
            a = arrivals.get(slot, 0.0)
            if a > t_r:
                t_r = a
        return t_r

    def _try_release_lockstep(self) -> None:
        """Schedule the carrier once the head's release time is known.

        Called at every stamped registration and every admit — the exact
        env-steps at which the event engine would learn the rendezvous is
        complete — so the carrier's heap position (and hence all
        same-timestamp tie-breaking) matches the succeed events it
        replaces.
        """
        if self._releasing or self._carrier_pending or not self._items:
            return
        t_r = self._head_release_time()
        if t_r is not None:
            self._schedule_carrier(t_r)

    def _schedule_carrier(self, t_r: float) -> None:
        self._carrier_pending = True
        self.lockstep_carriers += 1
        carrier = self.env.event(name=f"carrier:{self.name}")
        carrier.callbacks.append(self._carrier_fired)
        self.env.schedule(carrier, t_r - self.env.now)

    def _carrier_fired(self, _event: Event) -> None:
        self._carrier_pending = False
        self._run_releases()

    def _run_releases(self) -> None:
        """Batch-release every head whose time has come.

        Releases whose computed time lies *before the next heap event*
        are fast-forwarded inline — simulated time becomes data carried
        in the recorded release time, and env.now only catches up when
        some other actor (controller resync, network, fault kicker) has
        an event pending.  The heap bound guarantees no foreign event
        could have interleaved, so the fast-forwarded schedule is the
        event schedule.  Classic space waiters disable fast-forward:
        their wakeups are heap-delivered at env.now and must coincide
        with the release instant (S-MIMD sync feeder path).
        """
        self._releasing = True
        env = self.env
        try:
            t_cursor = env.now
            while self._items:
                t_r = self._head_release_time()
                if t_r is None:
                    return
                if t_r < t_cursor:
                    # Head became releasable mid-cascade; in the event
                    # engine its succeed fires at the enabling release.
                    t_r = t_cursor
                if t_r > env.now and (self._space_waiters
                                      or not t_r < env.peek()):
                    self._schedule_carrier(t_r)
                    return
                self._release_head_now(t_r)
                t_cursor = t_r
        finally:
            self._releasing = False

    def _settle_for_release(self, head: QueueItem, t_r: float,
                            inclusive: bool, probe: bool) -> None:
        """Settle the admits due at the release of ``head`` at ``t_r``,
        in the event engine's heap order (see :meth:`_settle_admits`),
        and run the staged admission the probe found tying with it."""
        arrivals = self._arrivals
        scheds = self._scheds
        neg_inf = float("-inf")
        enabler_sched = neg_inf
        tie = probe
        if not (inclusive or probe):
            # Does some pending *scheduled* admit land exactly at t_r?
            # (Entries are sorted; earlier ones settle unconditionally,
            # so the tie entry need not be at the front.)
            for t, _, _, sched in self._pending_admits:
                if t > t_r:
                    break
                if t == t_r and sched is not None:
                    tie = True
                    break
        if tie:
            # An admit ties with this release: find the schedule instant
            # of the latest arrival attaining t_r (the enabling event) to
            # replay the heap order.
            enabler_sched = max(
                (scheds.get(s, neg_inf) for s in head.mask
                 if arrivals.get(s) == t_r),
                default=neg_inf)
        stall_view = None
        if self._stats_words == 0 and self._ls_stall_start is None:
            # The first settle below is the event engine's empty->
            # non-empty transition: give _settle_admits the earliest
            # registered arrival (and the schedule instant of its charge
            # event) so it can latch the empty-stall origin.
            for s, a in arrivals.items():
                sc = scheds.get(s, neg_inf)
                if (stall_view is None or a < stall_view[0]
                        or (a == stall_view[0] and sc < stall_view[1])):
                    stall_view = (a, sc)
        self._settle_admits(t_r, inclusive, enabler_sched, stall_view)
        if probe and self._stage_clock == enabler_sched:
            self.sched_ties += 1
        if probe and self._stage_clock <= enabler_sched:
            # Admit-before-release: run the staged admission now, while
            # the head still occupies the queue, and settle it against
            # the same enabler — the occupancy peak spans both.
            item, cycles = self._staged.popleft()
            start = self._stage_clock
            self._stage_clock = t_r
            self._admit_at(item, t_r, sched=start)
            self._settle_admits(t_r, False, enabler_sched, stall_view)

    def _release_head_now(self, t_r: float) -> None:
        """Release the head at recorded time ``t_r`` (>= env.now) and
        serve its batch of PEs.

        Ordering mirrors the event engine's release exactly: stall
        accounting, pop + occupancy sample, staging pump / space-waiter
        refill (their state mutations happen before any succeed is
        *processed* there), and only then the PEs — served
        synchronously in mask-iteration order, the order the succeed
        events would pop.  A PE parked on an instruction fetch is served
        by *broadcast step*: its CPU executes the instruction here
        (:meth:`~repro.m68k.cpu.CPU.broadcast_step`) and, still in SIMD
        space, re-stamps the same request for its next fetch, so its
        generator is not resumed at all.  Every other waiter — a barrier
        read, a sync word, a fetcher that is tracing, capped or may
        fail-stop, the PE whose own registration ran this release, or a
        step that reached an edge — is resumed with a value: the
        ``(item, t_r)`` pair, from which it rebases its local clock when
        ``t_r`` is ahead of env.now, or what the step handed back.
        """
        head = self._items[0]
        inclusive = self._admit_times[0] == t_r
        staged = self._staged
        # Pre-release staging probe: does the next staged transfer
        # complete *exactly* at this release, fitting without the head's
        # space?  Then its timeout event and the release's enabling
        # arrival tie on the heap and schedule order decides who goes
        # first — the event engine may admit it before the release.
        probe = (
            not inclusive and bool(staged)
            and self._stage_clock + staged[0][1] == t_r
            and staged[0][0].words <= self.capacity_words - self._words_used
        )
        pend = self._pending_admits
        # With no admit due by t_r (a third of the releases of a SIMD
        # matmul) there is nothing to settle and no tie to order.
        due = bool(pend) and pend[0][0] <= t_r
        if due or probe:
            self._settle_for_release(head, t_r, inclusive, probe)
        self._items.popleft()
        self._admit_times.popleft()
        if self._ls_stall_start is not None:
            self.empty_stall_cycles += t_r - self._ls_stall_start
            self._ls_stall_start = None
        self._words_used -= head.words
        self.releases += 1
        self.lockstep_releases += 1
        self._stats_words -= head.words
        self._occ.append((t_r, self._stats_words))
        # Settled occupancy is the event-schedule view: zero here means
        # the queue is empty *in the event engine* right after this
        # release, even when leapfrogged computed admits (times <= t_r
        # but heap-ordered after the release) already sit in ``_items``.
        # The empty-stall clock restarts at whichever settle next turns
        # the stats non-zero (see _settle_admits), clamped to this
        # instant — requesters already registered (masked-out PEs, early
        # stampers) are what the pure engine's release-time latch sees.
        if self._stats_words == 0:
            self._stats_empty_since = t_r
        if self._staged or self._stage_done is not None:
            # The probe above may have drained staging; pumping with an
            # empty deque still fires the stage-done event.
            self._pump_staging(t_r)
        else:
            self._refill_from_waiters()
        mask = head.mask
        self.lockstep_batch_pes += len(mask)
        requests = self._requests
        steppers = self._steppers
        arrivals = self._arrivals
        scheds = self._scheds
        value = (head, t_r)
        step = head.payload is not None
        steps = 0
        # Serving a PE touches no other slot's request (a resumed
        # generator's own registrations wait for this cascade), so each
        # slot leaves the books only when its PE is resumed.
        for slot in mask:
            ev = requests[slot]
            cpu = steppers.get(slot)
            if cpu is not None and step and ev.callbacks:
                # Broadcast step: the PE is parked on ev, so run the
                # instruction on it here, in mask order.  Its request
                # stays on the books: unless the PE reached an edge, the
                # step re-stamped it for the PE's next fetch.
                got = cpu.broadcast_step(head, t_r, arrivals[slot])
                if got is None:
                    steps += 1
                    continue
            else:
                got = value
            del requests[slot]
            steppers.pop(slot, None)
            arrivals.pop(slot, None)
            scheds.pop(slot, None)
            fire_event(ev, got)
        self.broadcast_steps += steps

    def _refill_from_waiters(self) -> None:
        while self._space_waiters:
            ev, item = self._space_waiters[0]
            if item.words > self.capacity_words - self._words_used:
                return
            self._space_waiters.popleft()
            self._items.append(item)
            self._words_used += item.words
            self.words_enqueued += item.words
            if self.fast_path:
                self._admit_times.append(self.env.now)
                self._push_admit(self.env.now, item.words, sample=False)
            else:
                self._hw = max(self._hw, self._words_used)
            ev.succeed()
