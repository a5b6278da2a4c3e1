"""Metric primitives: named counters, gauges, and latency summaries.

:class:`MetricsRegistry` is the write side of service observability —
the serving layer (:mod:`repro.serve`) increments counters on every
admission decision and observes per-job service latency into bounded
sample windows; ``GET /metrics`` renders the registry in the Prometheus
text exposition format.  The registry is deliberately tiny and
dependency-free:

* **counters** only go up (``inc``);
* **gauges** are set or adjusted (``set_gauge``/``add_gauge``);
* **summaries** keep a bounded window of observations and render
  p50/p95 quantile samples via :func:`repro.perf.percentile`.

All operations are thread-safe: the asyncio service loop, pool-callback
threads and test assertions may touch the same registry concurrently.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Mapping

#: Quantiles a summary renders (Prometheus ``quantile`` label values).
SUMMARY_QUANTILES = (0.5, 0.95)

#: Default bound on retained observations per summary series.
DEFAULT_WINDOW = 2048

_KINDS = ("counter", "gauge", "summary")


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            k,
            v.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
        )
        for k, v in key
    )
    return "{" + inner + "}"


class _Metric:
    """One named metric: all its label series plus metadata."""

    __slots__ = ("name", "kind", "help", "values", "windows", "count", "sum")

    def __init__(self, name: str, kind: str, help_: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_
        self.values: dict[tuple, float] = {}
        # summary-only state, per label series
        self.windows: dict[tuple, deque] = {}
        self.count: dict[tuple, int] = {}
        self.sum: dict[tuple, float] = {}


class MetricsRegistry:
    """A process-local, thread-safe registry of named metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    def _metric(self, name: str, kind: str, help_: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = _Metric(name, kind, help_)
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        elif help_ and not metric.help:
            metric.help = help_
        return metric

    def describe(self, name: str, kind: str, help_: str = "") -> None:
        """Pre-declare a metric so it renders even before first use."""
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        with self._lock:
            metric = self._metric(name, kind, help_)
            if kind != "summary":
                metric.values.setdefault((), 0.0)

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, *, help_: str = "",
            **labels) -> float:
        """Increment a counter; returns the new value."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease ({amount})")
        with self._lock:
            metric = self._metric(name, "counter", help_)
            key = _label_key(labels)
            metric.values[key] = metric.values.get(key, 0.0) + amount
            return metric.values[key]

    def set_gauge(self, name: str, value: float, *, help_: str = "",
                  **labels) -> None:
        with self._lock:
            metric = self._metric(name, "gauge", help_)
            metric.values[_label_key(labels)] = float(value)

    def add_gauge(self, name: str, delta: float, *, help_: str = "",
                  **labels) -> float:
        with self._lock:
            metric = self._metric(name, "gauge", help_)
            key = _label_key(labels)
            metric.values[key] = metric.values.get(key, 0.0) + delta
            return metric.values[key]

    def observe(self, name: str, value: float, *, window: int = DEFAULT_WINDOW,
                help_: str = "", **labels) -> None:
        """Record one observation into a bounded summary window."""
        with self._lock:
            metric = self._metric(name, "summary", help_)
            key = _label_key(labels)
            if key not in metric.windows:
                metric.windows[key] = deque(maxlen=window)
                metric.count[key] = 0
                metric.sum[key] = 0.0
            metric.windows[key].append(float(value))
            metric.count[key] += 1
            metric.sum[key] += float(value)

    # ------------------------------------------------------------------
    # Read side
    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge series (0.0 if never touched)."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return 0.0
            return metric.values.get(_label_key(labels), 0.0)

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across all its label series."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return 0.0
            return sum(metric.values.values())

    def samples(self, name: str, **labels) -> list[float]:
        """Retained observations of one summary series."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return []
            return list(metric.windows.get(_label_key(labels), ()))

    def quantile(self, name: str, q: float, **labels) -> float:
        """The ``q``-th quantile (0..1) over a summary's retained window."""
        from repro.perf import percentile

        return percentile(self.samples(name, **labels), 100.0 * q)

    # ------------------------------------------------------------------
    def render(self, extra: Iterable[str] = ()) -> str:
        """Prometheus text exposition of every metric in the registry."""
        from repro.perf import percentile

        with self._lock:
            snapshot = [
                (m.name, m.kind, m.help, dict(m.values),
                 {k: list(w) for k, w in m.windows.items()},
                 dict(m.count), dict(m.sum))
                for m in self._metrics.values()
            ]
        lines: list[str] = []
        for name, kind, help_, values, windows, counts, sums in sorted(snapshot):
            if help_:
                lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {kind}")
            if kind == "summary":
                for key in sorted(windows):
                    window = windows[key]
                    for q in SUMMARY_QUANTILES:
                        qkey = key + (("quantile", str(q)),)
                        lines.append(
                            f"{name}{_render_labels(qkey)} "
                            f"{percentile(window, 100.0 * q):.6g}"
                        )
                    lines.append(
                        f"{name}_count{_render_labels(key)} {counts[key]}"
                    )
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {sums[key]:.6g}"
                    )
            else:
                for key in sorted(values):
                    lines.append(
                        f"{name}{_render_labels(key)} {values[key]:.6g}"
                    )
        lines.extend(extra)
        return "\n".join(lines) + "\n"
