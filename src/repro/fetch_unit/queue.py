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

Lockstep tier (see :mod:`repro.sim.lockstep`): PEs instead call
:meth:`FetchUnitQueue.request_at` with a *stamped arrival* — their
bus-true time — without flushing their local clocks.  The release time
of the head item is then computed directly, ``T_r = max(admit time, max
of the mask's stamped arrivals)``, and a single **carrier** event fires
at ``T_r``, resuming the whole batch of waiting PEs synchronously.  One
heap event replaces the ~2·p (flush + succeed per PE) the event
rendezvous costs.
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
        self._space_waiters: deque[tuple[Event, QueueItem]] = deque()
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
        self.lockstep_batch_pes = 0  #: PE resumptions delivered by carriers
        self.lockstep_carriers = 0  #: carrier events scheduled

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
            if (t == limit and not inclusive
                    and sched is not None and sched > enabler_sched):
                break
            pend.pop(0)
            if (stall_view is not None and self._stats_words == 0
                    and self._ls_stall_start is None
                    and not (sched is None
                             and t == self._stats_empty_since)):
                amin, asched = stall_view
                if amin < t or (amin == t and sched is not None
                                and asched < sched):
                    self._ls_stall_start = max(self._stats_empty_since,
                                               amin)
            self._stats_words += words
            if self._stats_words > self._hw:
                self._hw = self._stats_words
            if sample:
                self._occ.append((t, self._stats_words))

    def _has_admit_tie(self, t_r: float) -> bool:
        """True when some pending *scheduled* admit lands exactly at
        ``t_r`` (entries are sorted; earlier ones settle unconditionally,
        so the tie entry need not be at the front)."""
        for entry in self._pending_admits:
            t = entry[0]
            if t > t_r:
                return False
            if t == t_r and entry[3] is not None:
                return True
        return False

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
                            ev: Event | None = None,
                            sched: float | None = None) -> Event:
        """Register a stamped lockstep request; return the event to park on.

        Non-generator entry so the CPU's hot loop can park on the request
        with a single ``yield`` (no sub-generator frames).  ``ev`` lets
        the caller supply a recycled event object.  ``sched`` is the
        schedule instant of the arrival's final charge event (defaults
        to -inf: ties break release-first, the pre-sched behaviour).
        """
        if pe_slot in self._requests:
            raise SimulationError(
                f"PE slot {pe_slot} already has a pending request on {self.name}"
            )
        if ev is None:
            ev = self.env.event(name=f"req:{self.name}:{pe_slot}")
        self._requests[pe_slot] = ev
        self._arrivals[pe_slot] = arrival
        self._scheds[pe_slot] = float("-inf") if sched is None else sched
        self._try_release()
        return ev

    def register_request_inline(self, pe_slot: int, arrival: float,
                                ev: Event, sched: float) -> Event:
        """Stamped request that may resolve the rendezvous *synchronously*.

        When this registration completes the head's mask and the release
        time precedes every pending heap event, the release cascade runs
        right here: the other waiters are resumed nested, and ``ev``
        comes back already fired (``callbacks is None``) with the
        ``(item, t_r)`` pair in its value — the caller continues without
        parking.  This is what lets the mask-completing PE *stream*
        through a broadcast block with zero heap events.  Callers that
        cannot consume an already-fired event must use
        :meth:`register_request_at` (carrier delivery only).
        """
        if pe_slot in self._requests:
            raise SimulationError(
                f"PE slot {pe_slot} already has a pending request on {self.name}"
            )
        self._requests[pe_slot] = ev
        self._arrivals[pe_slot] = arrival
        self._scheds[pe_slot] = sched
        if not self._releasing and not self._carrier_pending and self._items:
            self._run_releases()
        return ev

    def request_at(self, pe_slot: int, arrival: float,
                   sched: float | None = None):
        """Generator (PE side, lockstep): stamped fetch request.

        The PE does *not* flush its local clock first: ``arrival`` is its
        bus-true time (``env.now + local``) and the caller zeroes the
        local clock at the call.  The PE resumes — carrier-delivered —
        with the ``(item, t_r)`` release pair as the yield value;
        ``t_r`` is the computed rendezvous instant (env.now may lag
        behind it during queue fast-forward) and the caller rebases its
        local clock from it.
        """
        pair = yield self.register_request_at(pe_slot, arrival, sched=sched)
        return pair

    def cancel_lockstep_request(self, pe_slot: int, after: float) -> None:
        """Withdraw a stamped request whose arrival lies strictly after
        ``after`` (fail-stop support).

        A PE struck at ``after`` dies mid-charge in the event schedule,
        *before* its request would have registered — the early-registered
        lockstep stamp must be withdrawn or it could wrongly complete a
        rendezvous mask.  A stamp at or before the strike stays: the
        pure-event flush sleep (scheduled earlier than the strike kicker)
        lands first at equal times, so that request did register.
        """
        arrival = self._arrivals.get(pe_slot)
        if arrival is not None and arrival > after:
            del self._arrivals[pe_slot]
            self._scheds.pop(pe_slot, None)
            del self._requests[pe_slot]

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

    def _release_head_now(self, t_r: float) -> None:
        """Release the head at recorded time ``t_r`` (>= env.now) and
        resume its batch of PEs.

        Ordering mirrors the event engine's release exactly: stall
        accounting, pop + occupancy sample, staging pump / space-waiter
        refill (their state mutations happen before any succeed is
        *processed* there), and only then the PE resumptions — delivered
        synchronously in mask-iteration order, the order the succeed
        events would pop.  Each waiter receives the ``(item, t_r)``
        pair so it can rebase its local clock when ``t_r`` is ahead of
        env.now.
        """
        head = self._items[0]
        head_admit = self._admit_times[0]
        inclusive = head_admit == t_r
        staged = self._staged
        # Pre-release staging probe: does the next staged transfer
        # complete *exactly* at this release, fitting without the head's
        # space?  Then its timeout event and the release's enabling
        # arrival tie on the heap and schedule order decides who goes
        # first — the event engine may admit it before the release.
        probe = bool(
            staged and not inclusive
            and self._stage_clock + staged[0][1] == t_r
            and staged[0][0].words <= self.capacity_words - self._words_used
        )
        arrivals = self._arrivals
        scheds = self._scheds
        neg_inf = float("-inf")
        enabler_sched = neg_inf
        if not inclusive and (probe or self._has_admit_tie(t_r)):
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
        self._settle_admits(t_r, inclusive=inclusive,
                            enabler_sched=enabler_sched,
                            stall_view=stall_view)
        if probe and self._stage_clock <= enabler_sched:
            # Admit-before-release: run the staged admission now, while
            # the head still occupies the queue, and settle it against
            # the same enabler — the occupancy peak spans both.
            item, cycles = staged.popleft()
            start = self._stage_clock
            self._stage_clock = t_r
            self._admit_at(item, t_r, sched=start)
            self._settle_admits(t_r, inclusive=False,
                                enabler_sched=enabler_sched,
                                stall_view=stall_view)
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
        waiters = [self._requests.pop(slot) for slot in head.mask]
        for slot in head.mask:
            arrivals.pop(slot, None)
            scheds.pop(slot, None)
        if self._staged or self._stage_done is not None:
            # The probe above may have drained staging; pumping with an
            # empty deque still fires the stage-done event.
            self._pump_staging(t_r)
        else:
            self._refill_from_waiters()
        self.lockstep_batch_pes += len(waiters)
        value = (head, t_r)
        for ev in waiters:
            fire_event(ev, value)

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
