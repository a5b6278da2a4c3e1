"""Synchronous client for the simulation service.

Stdlib-only (``http.client``), one connection per request — simple and
robust under a server that sheds load.  The retry policy is the one an
inference-serving client would use:

* **retryable** responses (429 queue-full, 503 draining) and transport
  errors back off **exponentially with full jitter** — each delay is
  drawn uniformly from ``[0, min(cap, base * 2^attempt)]``, which
  decorrelates a thundering herd of identical clients;
* a ``Retry-After`` header is honored as a *floor* under the jittered
  delay: the server's own estimate of when capacity frees up wins over
  optimism;
* everything else (2xx, 4xx, job failures) returns/raises immediately.

**Fleet mode**: given ``base_urls`` (a list of instance URLs), the
client builds the same consistent-hash ring as ``pasm-router`` and
sends each job straight to the instance that owns its content hash —
skipping the router hop while preserving fleet-wide single-flight
dedup (identical submissions from every ring-aware party land on one
instance).  A transport error advances the ring to the next distinct
instance, exactly like the router's failover.  With a single URL (or
plain ``host``/``port``) behaviour is unchanged.

The RNG is injectable so tests can pin the jitter.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ReproError, ServeError
from repro.exec import SimJobSpec, content_hash_of
from repro.obs.ids import format_traceparent, new_request_id, new_span_id, new_trace_id
from repro.serve.config import default_port
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, parse_instance

#: HTTP statuses worth retrying: the server said "not now", not "no".
RETRYABLE = (429, 503)


class ServeClientError(ServeError):
    """A request that ultimately failed (after retries, if retryable).

    Attributes
    ----------
    status:
        Final HTTP status, or ``None`` for transport-level failures.
    attempts:
        Total attempts made (1 = no retries were needed/possible).
    """

    def __init__(self, message: str, *, status: int | None = None,
                 attempts: int = 1) -> None:
        self.status = status
        self.attempts = attempts
        super().__init__(message)


@dataclass
class HttpReply:
    """One raw exchange: status, headers (lower-cased), body bytes."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        try:
            return json.loads(self.body)
        except ValueError:
            return {"error": self.body.decode("utf-8", "replace")}

    def request_id(self) -> str | None:
        """The server-confirmed correlation ID of this exchange."""
        return self.headers.get("x-request-id")

    def trace_id(self) -> str | None:
        """Trace ID from the response ``traceparent``, if any."""
        header = self.headers.get("traceparent", "")
        parts = header.split("-")
        return parts[1] if len(parts) >= 4 else None

    def retry_after(self) -> float | None:
        value = self.headers.get("retry-after")
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:
            return None


class ServeClient:
    """Talk to a running ``pasm-serve`` instance.

    Parameters
    ----------
    host, port:
        Service address (port defaults to ``$REPRO_SERVE_PORT``/8137).
    base_urls:
        Optional list of instance URLs (``http://host:port``).  When
        given, requests are routed by job content hash over the same
        consistent-hash ring ``pasm-router`` uses, so the client can
        talk to a fleet directly; ``host``/``port`` are ignored.  A
        single-element list behaves exactly like ``host``/``port``.
    replicas:
        Virtual nodes per instance on the ring (must match the
        router's setting for placement agreement).
    timeout:
        Socket timeout per request.  Long-poll requests get the poll
        duration added on top automatically.
    max_retries:
        Ceiling on retries of *retryable* outcomes per request.
    backoff_base, backoff_cap:
        Exponential-backoff window: attempt ``k`` sleeps
        ``uniform(0, min(cap, base * 2**k))`` seconds (plus any
        ``Retry-After`` floor).
    rng:
        Source of jitter; pass ``random.Random(seed)`` for determinism.
    trace:
        Send a W3C ``traceparent`` header (fresh trace ID per logical
        request) so a ``--trace`` service records the job under the
        *client's* trace ID.  An ``X-Request-ID`` is always sent —
        correlation IDs are plain headers and cost nothing; ``trace``
        only controls whether the client proposes a trace.  The IDs of
        the most recent request are kept on :attr:`last_request_id` /
        :attr:`last_trace_id`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        *,
        base_urls: Sequence[str] | None = None,
        replicas: int = DEFAULT_REPLICAS,
        timeout: float = 30.0,
        max_retries: int = 8,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng: random.Random | None = None,
        sleep=time.sleep,
        trace: bool = False,
    ) -> None:
        self.ring: HashRing | None = None
        self._addrs: dict[str, tuple[str, int]] = {}
        if base_urls:
            parsed = [parse_instance(u) for u in base_urls]
            self._addrs = {base: (h, p) for base, h, p in parsed}
            self.ring = HashRing(list(self._addrs), replicas=replicas)
            host, port = self._addrs[self.ring.nodes[0]]
        self.host = host
        self.port = port if port is not None else default_port()
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.rng = rng or random.Random()
        self._sleep = sleep
        self.trace = trace
        self.retries_performed = 0  #: lifetime retry counter (telemetry)
        self.last_request_id: str | None = None
        self.last_trace_id: str | None = None

    # ------------------------------------------------------------------
    # Transport
    def _targets(self, key: str | None) -> list[tuple[str, int]]:
        """Instance addresses to try, owner first (ring failover order)."""
        if self.ring is None:
            return [(self.host, self.port)]
        return [self._addrs[b] for b in self.ring.nodes_for(key or "/")]

    def _request_once(self, method: str, path: str, body: bytes | None,
                      timeout: float, headers: dict[str, str] | None = None,
                      *, address: tuple[str, int] | None = None) -> HttpReply:
        host, port = address if address else (self.host, self.port)
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            all_headers = {"Content-Type": "application/json"} if body else {}
            if headers:
                all_headers.update(headers)
            conn.request(method, path, body=body, headers=all_headers)
            response = conn.getresponse()
            return HttpReply(
                status=response.status,
                headers={k.lower(): v for k, v in response.getheaders()},
                body=response.read(),
            )
        finally:
            conn.close()

    def _backoff_delay(self, attempt: int, floor: float | None) -> float:
        window = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        delay = self.rng.uniform(0.0, window)
        if floor is not None:
            delay = max(delay, floor)
        return delay

    def request(self, method: str, path: str, *, doc: dict | None = None,
                timeout: float | None = None,
                key: str | None = None) -> HttpReply:
        """One request with retry on 429/503/transport errors.

        Every logical request carries one ``X-Request-ID`` (held across
        its retries, so a shed-then-retried exchange tells one story in
        the server logs) and, with ``trace=True``, one ``traceparent``.

        In fleet mode ``key`` (the job content hash) picks the owning
        instance; a transport error advances to the next distinct ring
        node, while 429/503 retries stay on the same instance — it
        owns the key, shedding load is its call to make.
        """
        body = (json.dumps(doc).encode() if doc is not None else None)
        timeout = self.timeout if timeout is None else timeout
        self.last_request_id = new_request_id()
        self.last_trace_id = new_trace_id() if self.trace else None
        headers = {"X-Request-ID": self.last_request_id}
        if self.last_trace_id is not None:
            headers["traceparent"] = format_traceparent(
                self.last_trace_id, new_span_id()
            )
        targets = self._targets(key)
        target_idx = 0
        last: HttpReply | None = None
        last_exc: OSError | None = None
        for attempt in range(self.max_retries + 1):
            try:
                last = self._request_once(
                    method, path, body, timeout, headers,
                    address=targets[target_idx % len(targets)],
                )
                last_exc = None
            except OSError as exc:
                last, last_exc = None, exc
                reply_floor = None
                target_idx += 1  # dead instance: advance the ring
            else:
                if last.status not in RETRYABLE:
                    return last
                reply_floor = last.retry_after()
            if attempt == self.max_retries:
                break
            self.retries_performed += 1
            self._sleep(self._backoff_delay(attempt, reply_floor))
        if last is not None:
            raise ServeClientError(
                f"{method} {path} still refused after "
                f"{self.max_retries + 1} attempts: "
                f"{last.status} {last.json().get('error', '')}",
                status=last.status, attempts=self.max_retries + 1,
            )
        raise ServeClientError(
            f"{method} {path} unreachable after {self.max_retries + 1} "
            f"attempts: {last_exc!r}",
            attempts=self.max_retries + 1,
        )

    # ------------------------------------------------------------------
    # API surface
    @staticmethod
    def _spec_key(spec: SimJobSpec | dict) -> str:
        """The routing key of a submission — the job's content hash."""
        if isinstance(spec, SimJobSpec):
            return spec.content_hash
        try:
            return SimJobSpec.from_dict(spec).content_hash
        except ReproError:
            # Malformed spec: route it stably anyway; the owning
            # instance will answer with the structured 400.
            return content_hash_of(spec)

    @staticmethod
    def _exhibit_key(name: str, seed: int | None) -> str:
        # Mirrors repro.serve.broker.exhibit_key (kept inline so the
        # client stays importable without the broker stack).
        return content_hash_of({"exhibit": name, "seed": seed})

    def healthz(self) -> dict:
        return self._expect(self.request("GET", "/healthz"), 200).json()

    def metrics(self) -> str:
        return self._expect(self.request("GET", "/metrics"),
                            200).body.decode()

    def stats(self) -> str:
        return self._expect(self.request("GET", "/v1/stats"),
                            200).body.decode()

    def submit(self, spec: SimJobSpec | dict, *, lane: str = "interactive",
               wait: bool = False, timeout: float | None = None) -> dict:
        """Submit one job spec; returns the job document."""
        key = self._spec_key(spec)
        if isinstance(spec, SimJobSpec):
            spec = spec.to_dict()
        path = "/v1/jobs"
        if wait:
            poll = timeout if timeout is not None else self.timeout
            path += f"?wait=1&timeout={poll:g}"
        reply = self.request(
            "POST", path, doc={"spec": spec, "lane": lane},
            timeout=self.timeout + (poll if wait else 0.0),
            key=key,
        )
        return self._expect(reply, 200, 202).json()

    def job_trace(self, job: str) -> dict:
        """The job's Chrome trace-event document (``--trace`` services)."""
        return self._expect(
            self.request("GET", f"/v1/jobs/{job}/trace", key=job), 200
        ).json()

    def status(self, job: str, *, wait: bool = False,
               poll_timeout: float = 5.0) -> dict:
        path = f"/v1/jobs/{job}"
        if wait:
            path += f"?wait=1&timeout={poll_timeout:g}"
        reply = self.request("GET", path,
                             timeout=self.timeout + poll_timeout,
                             key=job)
        return self._expect(reply, 200, 202, 500).json()

    def result(self, job: str, *, timeout: float = 300.0,
               poll_timeout: float = 5.0) -> dict:
        """Long-poll a job to completion; returns its result payload."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.status(job, wait=True, poll_timeout=poll_timeout)
            if doc["state"] == "done":
                return doc["result"]
            if doc["state"] == "failed":
                raise ServeClientError(
                    f"job {job[:12]} failed: {doc.get('error', 'unknown')}",
                    status=500,
                )
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"job {job[:12]} still {doc['state']} after {timeout:g}s"
                )

    def run(self, spec: SimJobSpec | dict, *, lane: str = "interactive",
            timeout: float = 300.0) -> dict:
        """Submit + wait: the one-call path. Returns the result payload."""
        doc = self.submit(spec, lane=lane, wait=True, timeout=min(
            timeout, self.timeout
        ))
        if doc["state"] == "done":
            return doc["result"]
        if doc["state"] == "failed":
            raise ServeClientError(
                f"job {doc['job'][:12]} failed: "
                f"{doc.get('error', 'unknown')}",
                status=500,
            )
        return self.result(doc["job"], timeout=timeout)

    def exhibit(self, name: str, *, seed: int | None = None,
                timeout: float = 300.0) -> str:
        """The raw exhibit JSON text (byte-identical to the CLI file)."""
        seed_q = f"&seed={seed}" if seed is not None else ""
        deadline = time.monotonic() + timeout
        while True:
            poll = min(30.0, max(0.1, deadline - time.monotonic()))
            reply = self.request(
                "GET",
                f"/v1/exhibits/{name}?wait=1&timeout={poll:g}{seed_q}",
                timeout=self.timeout + poll,
                key=self._exhibit_key(name, seed),
            )
            if reply.status == 200 and "x-pasm-exhibit" in reply.headers:
                return reply.body.decode()
            doc = self._expect(reply, 200, 202).json()
            if "result" in doc and doc.get("state") == "done":
                return doc["result"]["json"]
            if doc.get("state") == "failed":
                raise ServeClientError(
                    f"exhibit {name} failed: {doc.get('error', 'unknown')}",
                    status=500,
                )
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"exhibit {name} not done after {timeout:g}s"
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _expect(reply: HttpReply, *statuses: int) -> HttpReply:
        if reply.status not in statuses:
            detail = reply.json().get("error") or repr(reply.body[:200])
            raise ServeClientError(
                f"unexpected {reply.status}: {detail}",
                status=reply.status,
            )
        return reply
