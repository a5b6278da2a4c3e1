"""When does the Fetch Unit Queue keep the PEs fed?

The paper's superlinearity argument has a precondition: "If the queue can
remain non-empty and non-full at all times, it should be possible to
eliminate all of the time required for the control operations."  This
module states the condition quantitatively for a steady broadcast loop
and predicts which side of it a workload falls on:

* the PEs drain one block per ``pe_cycles`` (the block's execution time);
* the MC issues one block command per ``mc_cycles`` (its loop iteration);
* the Fetch Unit Controller transfers a block in ``words × rate`` cycles.

The queue stays non-empty exactly when the PE period is the largest of
the three; otherwise the PEs stall by the difference each iteration.
The micro engine's ``empty_stall_cycles`` statistic measures that same
quantity, :attr:`QueueFeedPrediction.pe_stall_per_block` summed over
items: the time the queue sat empty while a PE that fetches the next
item waited (:mod:`repro.fetch_unit.queue`).  ``tests/test_queue_model.py``
checks the prediction against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.m68k.instructions import Instruction
from repro.machine.config import PrototypeConfig
from repro.mc import MCCostModel
from repro.timing_model.fragments import CostEnv, static_cost


@dataclass(frozen=True)
class QueueFeedPrediction:
    """Steady-state prediction for one repeated broadcast block."""

    pe_cycles: float  #: PE execution time per block (queue fetch included)
    mc_cycles: float  #: MC issue time per block (loop iteration)
    controller_cycles: float  #: Fetch Unit transfer time per block
    block_words: int

    @property
    def bottleneck(self) -> str:
        slowest = max(self.pe_cycles, self.mc_cycles, self.controller_cycles)
        if slowest == self.pe_cycles:
            return "pe"
        if slowest == self.mc_cycles:
            return "mc"
        return "controller"

    @property
    def queue_stays_nonempty(self) -> bool:
        """The paper's precondition for hiding control flow."""
        return self.bottleneck == "pe"

    @property
    def pe_stall_per_block(self) -> float:
        """Expected PE stall per iteration when the feed can't keep up."""
        return max(
            0.0,
            max(self.mc_cycles, self.controller_cycles) - self.pe_cycles,
        )

    @property
    def effective_period(self) -> float:
        return max(self.pe_cycles, self.mc_cycles, self.controller_cycles)


def predict_queue_feed(
    config: PrototypeConfig,
    block: list[Instruction],
    *,
    mul_ones: float = 0.0,
) -> QueueFeedPrediction:
    """Predict the steady state for a block broadcast in an MC loop.

    ``mul_ones`` is the expected popcount of the multiplier for any
    data-dependent multiplies in the block (their base 38 cycles are
    counted by the static analysis).
    """
    env = CostEnv.for_mode(config, simd_stream=True)
    cost = static_cost(block, env, config)
    pe_cycles = cost.cycles + 2.0 * mul_ones * cost.var_multiplies

    mc = MCCostModel(config)
    mc_cycles = mc.device_write + mc.loop_back

    words = sum(i.encoded_words() for i in block)
    controller_cycles = words * config.controller_cycles_per_word
    return QueueFeedPrediction(
        pe_cycles=pe_cycles,
        mc_cycles=mc_cycles,
        controller_cycles=controller_cycles,
        block_words=words,
    )
