"""Job specifications: the unit of work the execution engine schedules.

A :class:`SimJobSpec` is a complete, self-contained description of one
simulation run — machine configuration, execution mode, problem size,
processor count and program identity.  Two properties make the engine's
process-pool fan-out and on-disk caching safe:

* a spec is **deterministic**: executing the same spec always produces
  the same result payload, byte for byte (all stochastic inputs are
  seeded from fields of the spec);
* a spec has a **stable content hash**: the SHA-256 of its canonical
  JSON form (keys sorted at every nesting level), identical across
  processes, Python versions and dict insertion orders.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.errors import ConfigurationError, ExecError, ReproError
from repro.faults.plan import FaultPlan
from repro.machine.config import PrototypeConfig
from repro.memory.dram import RefreshModel
from repro.utils.rng import DEFAULT_SEED, derive_seed

#: Program identifiers understood by :func:`repro.exec.jobs.execute_job`.
PROGRAM_MATMUL = "matmul"
PROGRAM_MIPS = "mips"
PROGRAM_FAULTSWEEP = "faultsweep"

#: Execution-mode values a spec may carry (ExecutionMode.value strings).
_MODES = ("serial", "simd", "mimd", "smimd")
#: Substrate engines a spec may target ("auto" must be resolved first).
_ENGINES = ("micro", "macro")


def canonical_json(obj) -> str:
    """Serialize a JSON-able object with sorted keys and no whitespace.

    The canonical form is what gets hashed, so it must be invariant under
    dict key ordering — ``sort_keys=True`` applies recursively.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash_of(obj) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _is_int(value) -> bool:
    """A JSON integer: ``int`` but not ``bool`` (``True`` is an ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _params_pairs(params) -> tuple:
    """Normalise ``params`` input to a tuple of ``(key, value)`` pairs.

    Accepts a mapping (``to_dict`` output) or a list of ``[key, value]``
    pairs — the shape JSON gives a client that serialises the spec field
    directly, since tuples round-trip as lists.
    """
    if hasattr(params, "items"):
        return tuple(params.items())
    pairs = tuple(params)
    if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ConfigurationError(
            "params must be an object or a list of [key, value] pairs"
        )
    return tuple((k, v) for k, v in pairs)


def _config_from_dict(cfg) -> PrototypeConfig:
    """Rebuild a :class:`PrototypeConfig`, every field an integer.

    The dataclass itself does not check types (calibration builds
    configs in code); a config that arrives as JSON is checked here so a
    string or float never reaches the engines.
    """
    cfg = dict(cfg)
    refresh = dict(cfg.pop("refresh"))
    for name, value in [*cfg.items(), *refresh.items()]:
        if not _is_int(value):
            raise ConfigurationError(
                f"config field {name!r} must be an integer, got {value!r}"
            )
    return PrototypeConfig(**cfg, refresh=RefreshModel(**refresh))


@dataclass(frozen=True)
class SimJobSpec:
    """One independently schedulable simulation job.

    Attributes
    ----------
    program:
        Program identity: ``"matmul"`` (the paper's matrix multiply,
        timed on either substrate) or ``"mips"`` (Table 1's straight-line
        instruction-rate measurement).
    mode:
        Execution-mode value (``"serial"``/``"simd"``/``"mimd"``/``"smimd"``).
    n, p:
        Problem size and processor count.
    added_multiplies:
        Extra inner-loop multiplies (the Figure 7 knob).
    engine:
        Resolved substrate, ``"micro"`` or ``"macro"`` (never ``"auto"``:
        resolution depends on a study's threshold, not on the job).
    seed:
        Data-set seed; the per-job RNG seed is derived from it and the
        content hash (:attr:`job_seed`).
    b_max:
        Exclusive upper bound of the uniform B values (None = calibrated
        default).
    config:
        Machine parameters.
    params:
        Extra program-specific parameters as a sorted ``(key, value)``
        tuple (kept sorted so equal parameter sets hash equally no matter
        the insertion order).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` the job runs under
        (network faults, extra-stage setting, fail-stopped PEs).  ``None``
        — the overwhelmingly common case — is omitted from the canonical
        dictionary form entirely, so fault-free specs hash exactly as
        they did before the field existed.
    trace:
        Optional :class:`~repro.obs.TraceContext` carried alongside the
        job (excluded from identity: not hashed, not compared, not part
        of :meth:`to_dict`).  Tracing observes an execution, it does not
        change the result — the same spec traced or untraced must hit
        the same cache entry and dedup to the same in-flight job.
    """

    program: str
    mode: str
    n: int
    p: int
    added_multiplies: int = 0
    engine: str = "macro"
    seed: int = DEFAULT_SEED
    b_max: int | None = None
    config: PrototypeConfig = field(default_factory=PrototypeConfig.calibrated)
    params: tuple[tuple[str, object], ...] = ()
    fault_plan: FaultPlan | None = None
    trace: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.program, str):
            raise ConfigurationError(
                f"program must be a string, got {self.program!r}"
            )
        for name in ("n", "p", "added_multiplies", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                )
        if self.b_max is not None and not _is_int(self.b_max):
            raise ConfigurationError(
                f"b_max must be an integer or null, got {self.b_max!r}"
            )
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; choose from {_MODES}"
            )
        if self.engine not in _ENGINES:
            raise ConfigurationError(
                f"spec engine must be one of {_ENGINES}, got {self.engine!r}"
            )
        if self.n < 1 or self.p < 1 or self.added_multiplies < 0:
            raise ConfigurationError(
                f"invalid job geometry n={self.n} p={self.p} "
                f"m={self.added_multiplies}"
            )
        keys = [k for k, _ in self.params]
        if not all(isinstance(k, str) for k in keys) \
                or len(set(keys)) != len(keys):
            raise ConfigurationError(
                f"params keys must be distinct strings, got {keys!r}"
            )
        # Normalise params so construction order never changes the hash.
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical dictionary form (JSON-able, nested plain dicts)."""
        d = {
            "program": self.program,
            "mode": self.mode,
            "n": self.n,
            "p": self.p,
            "added_multiplies": self.added_multiplies,
            "engine": self.engine,
            "seed": self.seed,
            "b_max": self.b_max,
            "config": asdict(self.config),
            "params": {k: v for k, v in self.params},
        }
        if self.fault_plan is not None:
            d["fault_plan"] = self.fault_plan.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimJobSpec":
        """Rebuild a spec from :meth:`to_dict` output (any key order).

        A missing ``config`` falls back to the calibrated prototype —
        the same default the constructor applies — so hand-written specs
        (e.g. JSON posted to the serving layer) need not spell out the
        whole machine description.

        This is the one place that decides a spec is malformed: any
        input that does not describe a valid spec — not an object, a
        missing field, a value of the wrong type or out of range —
        raises one :class:`~repro.errors.ExecError` whose message starts
        with ``"malformed job spec"``, so callers catch
        :class:`~repro.errors.ReproError` only.
        """
        try:
            if not isinstance(d, dict):
                raise ConfigurationError(
                    f"expected a JSON object, got {type(d).__name__}"
                )
            config = d.get("config")
            return cls(
                program=d["program"],
                mode=d["mode"],
                n=d["n"],
                p=d["p"],
                added_multiplies=d.get("added_multiplies", 0),
                engine=d.get("engine", "macro"),
                seed=d.get("seed", DEFAULT_SEED),
                b_max=d.get("b_max"),
                config=(PrototypeConfig.calibrated() if config is None
                        else _config_from_dict(config)),
                params=_params_pairs(d.get("params") or {}),
                fault_plan=(FaultPlan.from_dict(d["fault_plan"])
                            if d.get("fault_plan") else None),
            )
        except (ReproError, AttributeError, LookupError, TypeError,
                ValueError) as exc:
            detail = str(exc) if isinstance(exc, ReproError) \
                else f"{type(exc).__name__}: {exc}"
            raise ExecError(f"malformed job spec: {detail}",
                            cause=exc) from exc

    @property
    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical JSON form of the spec."""
        return content_hash_of(self.to_dict())

    @property
    def job_seed(self) -> int:
        """Per-job RNG seed, derived from the data seed and the job hash.

        Programs needing randomness beyond their input data seed their
        :mod:`repro.utils.rng` generators from this, so a job draws the
        same stream whether it runs in-process or in a pool worker.
        """
        return derive_seed(self.seed, self.program, self.content_hash)

    def label(self) -> str:
        """Short human-readable identity for stats and error messages."""
        return (
            f"{self.program}/{self.engine} {self.mode} n={self.n} "
            f"p={self.p} m={self.added_multiplies}"
        )
