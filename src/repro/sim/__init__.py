"""Discrete-event simulation kernel.

A minimal, dependency-free engine in the style of simpy: simulation
processes are Python generators that ``yield`` events; the
:class:`~repro.sim.environment.Environment` advances virtual time (measured
in CPU clock cycles throughout this library) and resumes processes when the
events they wait on fire.

The kernel is deliberately small but fully general; the PASM machine model
(PEs, Micro Controllers, Fetch Unit, network) is built entirely on top of
it.
"""

from repro.sim.events import AllOf, AnyOf, Event, SleepEvent, Timeout
from repro.sim.environment import Environment, Process
from repro.sim.localtime import LocalTimeBus, resolve_fast_path
from repro.sim.lockstep import fire_event
from repro.sim.resources import Store

__all__ = [
    "Environment",
    "Process",
    "Event",
    "Timeout",
    "SleepEvent",
    "AllOf",
    "AnyOf",
    "Store",
    "LocalTimeBus",
    "resolve_fast_path",
    "fire_event",
]
