"""Blocking stdlib client for the synthesis service.

Used by the ``tools/repro_submit.py`` / ``tools/repro_status.py`` CLIs, the
``service-smoke`` CI job and the tier-1 service tests.

A client keeps one persistent ``http.client.HTTPConnection`` for its
requests (the server keeps connections alive between responses, see
:mod:`repro.service.http`) and holds a lock around each request, so one
client is safe to share across threads.  The server closes a connection
that stays idle for its read timeout; when a *reused* connection fails
before any status line arrives, the request is sent once more on a fresh
connection.  A failure on a fresh connection is never retried, and
neither is a timeout: it surfaces as :class:`ServiceError` with status 0.

:meth:`ServiceClient.stream` opens a connection of its own, since the
server ends every stream by closing it, and yields NDJSON events as the
server writes them.
"""

from __future__ import annotations

import base64
import http.client
import json
import pickle
import threading
import time
from pathlib import Path
from typing import Iterator

from repro.core.castan import CastanResult


class ServiceError(RuntimeError):
    """An error response from the service (status + server message).

    Transport failures — connection refused, a stream cut mid-flight —
    surface as ``status == 0`` so callers can tell "the server said no"
    from "there is no server" without catching raw ``OSError``.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to a running :mod:`repro.service` server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection = http.client.HTTPConnection(host, port, timeout=timeout)
        self._lock = threading.Lock()

    # -- plumbing -------------------------------------------------------------

    def _exchange(self, method: str, path: str, payload: bytes | None, headers: dict):
        """Send one request on the kept connection; ``(response, body bytes)``."""
        connection = self._connection
        reused = connection.sock is not None  # a closed connection reconnects on send
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
        except ConnectionError:
            connection.close()
            if not reused:
                raise
            # A stale keep-alive (the server closed it while idle): no status
            # line arrived, so the request was not answered.  Once, afresh.
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
        return response, response.read()

    def _request(self, method: str, path: str, body: dict | None = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        with self._lock:
            try:
                response, raw = self._exchange(method, path, payload, headers)
            except (OSError, http.client.HTTPException) as exc:
                self._connection.close()
                raise ServiceError(
                    0, f"cannot reach service at {self.host}:{self.port}: {exc}"
                ) from exc
        if response.headers.get_content_type() == "application/octet-stream":
            if response.status != 200:
                raise ServiceError(response.status, raw.decode(errors="replace"))
            return raw
        data = json.loads(raw) if raw else {}
        if response.status != 200:
            raise ServiceError(response.status, data.get("error", raw.decode(errors="replace")))
        return data

    def close(self) -> None:
        """Close the kept connection; a later request opens a fresh one."""
        with self._lock:
            self._connection.close()

    # -- API ------------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(
        self,
        nf_spec: str,
        config: dict | None = None,
        num_packets: int | None = None,
    ) -> dict:
        """Submit one job; returns its job dict (``cached`` marks a hit)."""
        body: dict = {"nf": nf_spec}
        if config:
            body["config"] = config
        if num_packets is not None:
            body["num_packets"] = num_packets
        return self._request("POST", "/jobs", body)

    def submit_many(
        self,
        nf_specs: list[str],
        config: dict | None = None,
        num_packets: int | None = None,
    ) -> list[dict]:
        """Submit a batch of jobs in one request (one job per NF)."""
        body: dict = {"nfs": list(nf_specs)}
        if config:
            body["config"] = config
        if num_packets is not None:
            body["num_packets"] = num_packets
        return self._request("POST", "/jobs", body)["jobs"]

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def result_meta(self, job_id: str) -> dict:
        """Stored metadata (summary + perf record) of a finished job."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def result(self, job_id: str) -> CastanResult:
        """The full stored :class:`CastanResult` of a finished job."""
        return pickle.loads(self._request("GET", f"/jobs/{job_id}/result.pkl"))

    def store_keys(self) -> list[str]:
        return self._request("GET", "/store")["keys"]

    def store_meta(self, key: str) -> dict:
        return self._request("GET", f"/store/{key}")

    def signature_keys(self) -> list[str]:
        """Keys of every distilled signature set on the store's sig shelf."""
        return self._request("GET", "/signatures")["keys"]

    def score(
        self,
        nf_spec: str,
        traffic: dict,
        config: dict | None = None,
        num_packets: int | None = None,
        options: dict | None = None,
    ) -> dict:
        """Submit one score job; returns its job dict (stream for windows).

        ``traffic`` is ``{"synthetic": N, "seed": s}`` for an in-class
        stream, ``{"pcap_path": ...}`` to upload a local capture (read and
        base64-encoded here — the server never touches client paths), or
        ``{"pcap_b64": ...}`` if the caller already encoded one.
        """
        traffic = dict(traffic)
        if "pcap_path" in traffic:
            raw = Path(traffic.pop("pcap_path")).read_bytes()
            traffic["pcap_b64"] = base64.b64encode(raw).decode()
        body: dict = {"nf": nf_spec, "traffic": traffic}
        if config:
            body["config"] = config
        if num_packets is not None:
            body["num_packets"] = num_packets
        if options:
            body["options"] = options
        return self._request("POST", "/score", body)

    def stream(self, job_id: str, timeout: float | None = None) -> Iterator[dict]:
        """Yield the job's NDJSON events (history replay, then live).

        The iterator ends after the terminal ``"end"`` event; ``timeout``
        bounds the *whole* stream (falls back to the client default).  A
        stream that dies before its terminal event — the server crashed,
        the connection dropped — raises :class:`ServiceError` (status 0)
        instead of ending silently, so a consumer can never mistake a
        truncated stream for a finished job.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout if timeout is not None else self.timeout
        )
        try:
            try:
                connection.request("GET", f"/jobs/{job_id}/stream")
                response = connection.getresponse()
            except OSError as exc:
                raise ServiceError(
                    0, f"cannot reach service at {self.host}:{self.port}: {exc}"
                ) from exc
            if response.status != 200:
                raw = response.read()
                data = json.loads(raw) if raw else {}
                raise ServiceError(response.status, data.get("error", ""))
            try:
                for line in response:
                    line = line.strip()
                    if not line:
                        continue
                    event = json.loads(line)
                    yield event
                    if event.get("event") == "end":
                        return
            except OSError as exc:
                raise ServiceError(
                    0, f"stream for {job_id} dropped mid-flight: {exc}"
                ) from exc
            raise ServiceError(
                0, f"stream for {job_id} ended before its terminal event"
            )
        finally:
            connection.close()

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Follow the job's stream to its end; returns the final job dict."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        for event in self.stream(job_id, timeout=timeout):
            if event.get("event") == "end":
                return event["job"]
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} did not finish within {timeout}s")
        raise ServiceError(500, f"stream for {job_id} ended without a terminal event")
