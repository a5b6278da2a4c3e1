"""The MC Fetch Unit: SIMD instruction broadcast hardware.

Per the paper (Section 3), each Micro Controller contains a Fetch Unit
with:

* a **Mask Register** selecting which of its PEs participate in following
  instructions — the mask value is enqueued alongside every word;
* a **Fetch Unit Controller** that autonomously moves a block of SIMD
  instructions from Fetch Unit RAM into the queue, word by word, so the MC
  CPU proceeds without waiting;
* a finite FIFO **Queue** from which PEs fetch: an item is *released only
  after every enabled PE has issued a request* for it.

That release rule is the source of three phenomena the paper measures:
per-instruction max-coupling in SIMD mode (variable-time instructions cost
the slowest PE's time), nearly-free barrier synchronization for MIMD
programs (a data read from SIMD space blocks until all PEs read), and —
because the queue buffers ahead — overlap of MC control flow with PE
computation (the superlinear-speed-up mechanism).
"""

from repro.fetch_unit.mask import MaskRegister
from repro.fetch_unit.queue import FetchUnitQueue, QueueItem, sync_item
from repro.fetch_unit.controller import FetchUnitController, StampedController

__all__ = [
    "MaskRegister",
    "FetchUnitQueue",
    "QueueItem",
    "sync_item",
    "FetchUnitController",
    "StampedController",
]
