"""Declarative fault plans: failure as a schedulable, hashable input.

A :class:`FaultPlan` describes everything that goes wrong during one
simulated run — which network boxes/links are dead, whether the Extra
Stage is enabled to route around them, and which PEs *fail-stop* (go
silent) at which simulated cycle.  Plans are frozen, canonically ordered
and content-hashable, so a faulted run is exactly as cacheable and
parallelizable as a healthy one: the plan rides inside
:class:`~repro.exec.SimJobSpec` and participates in its content hash.

The plan is pure data.  Interpretation lives elsewhere:

* :class:`~repro.machine.PASMMachine` applies the network faults to its
  circuit allocator (forcing extra-stage rerouting or a structured
  :class:`~repro.errors.NetworkFaultError`) and arms a watchdog per
  fail-stopped PE so the dead PE is detected at the next barrier within
  ``failstop_timeout`` cycles instead of hanging the simulation;
* the macro timing model charges the extra-stage transit penalty
  (``PrototypeConfig.net_extra_stage_cycles``) when the plan enables the
  extra stage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network.topology import ExtraStageCubeTopology, Fault, FaultKind

#: Default bounded wait after a strike before the simulation gives up on
#: a fail-stopped PE (cycles).  Generous against the longest barrier
#: interval of the paper's workloads, tiny against a hung simulation.
DEFAULT_FAILSTOP_TIMEOUT = 50_000.0


def _fault_from_dict(d) -> Fault:
    try:
        return Fault(FaultKind(d["kind"]), d["stage"], d["line"])
    except (KeyError, TypeError, ValueError):
        raise ConfigurationError(
            f"malformed network fault {d!r}: expected a kind in "
            f"{[k.value for k in FaultKind]} with a stage and a line"
        ) from None


@dataclass(frozen=True)
class PEFailStop:
    """One PE going silent: ``pe`` (physical number) dies at cycle ``at``."""

    pe: int
    at: float = 0.0

    def __post_init__(self) -> None:
        if self.pe < 0:
            raise ConfigurationError(f"fail-stop PE must be >= 0, got {self.pe}")
        if self.at < 0:
            raise ConfigurationError(
                f"fail-stop strike time must be >= 0, got {self.at}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, canonical description of one run's injected failures.

    Attributes
    ----------
    faults:
        Dead network elements (boxes / output links), canonically sorted.
    extra_stage_enabled:
        Whether the Extra Stage's boxes are active.  Degraded operation
        enables it (that is the point of the ESC); disabling it while
        faults are present models the unprotected Generalized Cube.
    failstops:
        PEs that silently stop executing at a given cycle, sorted by PE.
    failstop_timeout:
        Bounded wait after the latest strike before the machine raises
        :class:`~repro.errors.PEFailStopError` for a run that can no
        longer complete.
    """

    faults: tuple[Fault, ...] = ()
    extra_stage_enabled: bool = True
    failstops: tuple[PEFailStop, ...] = ()
    failstop_timeout: float = DEFAULT_FAILSTOP_TIMEOUT

    def __post_init__(self) -> None:
        if self.failstop_timeout <= 0:
            raise ConfigurationError(
                f"failstop_timeout must be positive, got {self.failstop_timeout}"
            )
        for fault in self.faults:
            if not (isinstance(fault, Fault)
                    and isinstance(fault.kind, FaultKind)
                    and type(fault.stage) is int
                    and type(fault.line) is int):
                raise ConfigurationError(
                    f"network fault {fault!r} needs a FaultKind and an "
                    "int stage and line"
                )
        faults = tuple(sorted(
            set(self.faults),
            key=lambda f: (f.kind.value, f.stage, f.line),
        ))
        failstops = tuple(sorted(set(self.failstops), key=lambda s: (s.pe, s.at)))
        seen_pes = [s.pe for s in failstops]
        if len(set(seen_pes)) != len(seen_pes):
            raise ConfigurationError(
                f"duplicate fail-stop PEs in plan: {sorted(seen_pes)}"
            )
        object.__setattr__(self, "faults", faults)
        object.__setattr__(self, "failstops", failstops)

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """A plan that injects nothing (healthy run)."""
        return not self.faults and not self.failstops

    def network_faults(self) -> frozenset[Fault]:
        """The dead network elements as the routing layer consumes them."""
        return frozenset(self.faults)

    def check_elements(self, topo: ExtraStageCubeTopology) -> None:
        """Refuse network faults that name no element of ``topo``.

        Routing gives such a fault no bit, so it would be ignored
        silently; every engine refuses it here instead.
        """
        unknown = [f for f in self.faults if not topo.element_bit(f)]
        if unknown:
            raise ConfigurationError(
                f"network fault(s) {unknown} name no element of the "
                f"{topo.n_terminals}-terminal Extra-Stage Cube (int "
                f"stage 0..{topo.n_stages - 1}, int line "
                f"0..{topo.n_terminals - 1})"
            )

    def failstop_at(self, physical_pe: int) -> float | None:
        """Strike time for a physical PE, or None when it stays healthy."""
        for stop in self.failstops:
            if stop.pe == physical_pe:
                return stop.at
        return None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-able form (stable across construction orders)."""
        return {
            "faults": [
                {"kind": f.kind.value, "stage": f.stage, "line": f.line}
                for f in self.faults
            ],
            "extra_stage_enabled": self.extra_stage_enabled,
            "failstops": [{"pe": s.pe, "at": s.at} for s in self.failstops],
            "failstop_timeout": self.failstop_timeout,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (any key order)."""
        return cls(
            faults=tuple(_fault_from_dict(f) for f in d.get("faults", ())),
            extra_stage_enabled=d.get("extra_stage_enabled", True),
            failstops=tuple(
                PEFailStop(s["pe"], s["at"]) for s in d.get("failstops", ())
            ),
            failstop_timeout=d.get("failstop_timeout", DEFAULT_FAILSTOP_TIMEOUT),
        )

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON form of the plan."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable summary for error messages and logs."""
        parts = []
        if self.faults:
            parts.append(
                "faults=["
                + ", ".join(f"{f.kind.value}@s{f.stage}l{f.line}"
                            for f in self.faults)
                + "]"
            )
        parts.append(
            f"extra_stage={'on' if self.extra_stage_enabled else 'off'}"
        )
        if self.failstops:
            parts.append(
                "failstops=["
                + ", ".join(f"PE{s.pe}@{s.at:g}" for s in self.failstops)
                + "]"
            )
        return "FaultPlan(" + ", ".join(parts) + ")"
