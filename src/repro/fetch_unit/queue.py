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
any other waits for one **carrier** event at ``T_r``.  Either way the
whole batch of waiting PEs is served synchronously, and a PE parked on
an instruction fetch is served by **broadcast step**: the queue runs the
released instruction on its CPU, and the PE's request stays registered,
re-stamped for its next fetch, without its generator resuming
(:meth:`FetchUnitQueue._release_head_now`).  At most one heap event
replaces the ~2·p (flush + succeed per PE) the event rendezvous costs,
and ~p generator resumptions go with it.

The statistics (``queue_stats``) are defined from instants both tiers
know — the admit instant ``a_k`` of item ``k``, its release instant
``T_r(k)`` and the arrival instants ``r_i(k)`` of the requests its mask's
PEs make for it — never from the order the simulator handles events at
one instant, and one pair of methods computes them on both tiers
(:meth:`FetchUnitQueue._record_admit`,
:meth:`FetchUnitQueue._account_release`):

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
        #: Arrival instant of each pending request: env.now at
        #: :meth:`request` on pure events, the bus-true stamp on lockstep.
        self._arrivals: dict[int, float] = {}
        # -- lockstep rendezvous state -------------------------------------
        self._carrier_pending = False  #: a carrier event is on the heap
        self._releasing = False  #: inside the carrier's release loop
        #: Bulk-staged (item, transfer_cycles) pairs from the controller;
        #: admit times are computed analytically as space frees.
        self._staged: deque[tuple[QueueItem, float]] = deque()
        self._stage_clock = 0.0  #: admit-chain time of the staged block
        self._stage_done: Event | None = None  #: fired when staging drains
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
        #: PE instructions executed by broadcast step, the PE's generator
        #: left parked.
        self.broadcast_steps = 0

    # -- statistics ----------------------------------------------------
    def _record_admit(self, t: float, item: QueueItem) -> None:
        """Put ``item`` on the books, admitted at ``t``."""
        self._items.append(item)
        self._admitted_at.append(t)
        self._item_words.append(item.words)
        self._words_used += item.words
        self.words_enqueued += item.words

    def _account_release(self, head: QueueItem, t_r: float) -> None:
        """Take the head off the books, released at ``t_r``, and charge
        the empty stall of its wait: from the later of the previous
        release and its mask's first arrival, to its admit."""
        self._items.popleft()
        self._words_used -= head.words
        admitted = self._admitted_at[self.releases]
        arrivals = self._arrivals
        since = max(self._last_release, min(arrivals[s] for s in head.mask))
        if admitted > since:
            self.empty_stall_cycles += admitted - since
        self._last_release = t_r
        self._released_at.append(t_r)
        self.releases += 1

    def _occupancy(self):
        """Yield ``(t, words)`` after each admit and release, in instant
        order with the tie rule of the module docstring: release ``j``
        comes before admit ``k`` when ``T_r(j) < a_k``, or when they are
        equal and ``j < k``."""
        admitted, words = self._admitted_at, self._item_words
        released = self._released_at
        n = len(released)
        occupied = j = 0
        for k, a in enumerate(admitted):
            while j < n and (released[j] < a or released[j] == a and j < k):
                occupied -= words[j]
                yield released[j], occupied
                j += 1
            occupied += words[k]
            yield a, occupied
        for j in range(j, n):
            occupied -= words[j]
            yield released[j], occupied

    @property
    def high_water(self) -> int:
        return max((words for _, words in self._occupancy()), default=0)

    @property
    def occupancy_samples(self) -> list[tuple[float, int]]:
        """``(t, words)``: the occupancy after each instant."""
        samples: list[tuple[float, int]] = []
        for t, words in self._occupancy():
            if samples and samples[-1][0] == t:
                samples[-1] = (t, words)
            else:
                samples.append((t, words))
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
            ready = max(self._stage_clock + cycles, free_at)
            staged.popleft()
            self._stage_clock = ready
            self._admit_at(item, ready)
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
        self._arrivals[pe_slot] = self.env.now
        self._try_release()
        item = yield ev
        return item

    def register_request_at(self, pe_slot: int, arrival: float) -> Event:
        """Register a stamped lockstep request; return the event to park on.

        The PE does *not* flush its local clock first: ``arrival`` is its
        bus-true time (``env.now + local``) and the caller zeroes the
        local clock.  The PE resumes, carrier-delivered, with the
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
        self._try_release()
        return ev

    def register_request_inline(self, pe_slot: int, arrival: float,
                                ev: Event, cpu) -> Event:
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
                return
            # All enabled PEs are waiting: release.
            self._account_release(head, self.env.now)
            for slot in head.mask:
                del self._arrivals[slot]
                self._requests.pop(slot).succeed(head)
            self._refill_from_waiters()

    # -- lockstep rendezvous -------------------------------------------
    def _head_release_time(self) -> float | None:
        """``T_r`` for the head item, or None while its mask is short: the
        latest of its admit, its mask's arrivals and the previous release
        (the head is released no earlier than the item before it)."""
        head = self._items[0]
        if not head.mask <= self._requests.keys():
            return None
        t_r = max(self._admitted_at[self.releases], self._last_release)
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
            while self._items:
                t_r = self._head_release_time()
                if t_r is None:
                    return
                if t_r < env.now:
                    t_r = env.now
                if t_r > env.now and (self._space_waiters
                                      or not t_r < env.peek()):
                    self._schedule_carrier(t_r)
                    return
                self._release_head_now(t_r)
        finally:
            self._releasing = False

    def _release_head_now(self, t_r: float) -> None:
        """Release the head at recorded time ``t_r`` (>= env.now) and
        serve its batch of PEs.

        Ordering mirrors the event engine's release: the books and
        statistics, the staging pump or space-waiter refill (their state
        mutations happen before any succeed is *processed* there), and
        only then the PEs — served synchronously in mask-iteration
        order, the order the succeed events would pop.  A PE parked on
        an instruction fetch is served by *broadcast step*: its CPU
        executes the instruction here
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
        self._account_release(head, t_r)
        self.lockstep_releases += 1
        if self._staged or self._stage_done is not None:
            # Pumping an empty deque still fires the stage-done event.
            self._pump_staging(t_r)
        else:
            self._refill_from_waiters()
        mask = head.mask
        self.lockstep_batch_pes += len(mask)
        requests = self._requests
        steppers = self._steppers
        arrivals = self._arrivals
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
            fire_event(ev, got)
        self.broadcast_steps += steps

    def _refill_from_waiters(self) -> None:
        while self._space_waiters:
            ev, item = self._space_waiters[0]
            if item.words > self.capacity_words - self._words_used:
                return
            self._space_waiters.popleft()
            self._record_admit(self.env.now, item)
            ev.succeed()
