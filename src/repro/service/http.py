"""REST transport for the synthesis service (stdlib-only asyncio HTTP).

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` — no
framework, persistent connections, one ``Content-Length``-framed write per
response — which is all the job API needs and keeps the repo
dependency-free.

Endpoints (all JSON unless noted)::

    GET  /healthz                  liveness + job-state counts +
                                   connections accepted + requests served +
                                   nf_identity and config_address memos
                                   {"hits", "misses", "size"}
    POST /jobs                     submit {"nf": ...} or {"nfs": [...]},
                                   optional "config" overrides, "num_packets"
    POST /score                    submit a score job: {"nf": ..., "traffic":
                                   {"synthetic": N, "seed": s} or
                                   {"pcap_b64": ...}}, optional "config",
                                   "num_packets", "options" (scorer knobs);
                                   windows stream via /jobs/<id>/stream
    GET  /jobs                     every job, in submission order
    GET  /jobs/<id>                one job (404 "expired" once it has left the
                                   bounded job table, see MAX_TERMINAL_JOBS)
    POST /jobs/<id>/cancel         request cancellation
    GET  /jobs/<id>/stream         NDJSON event stream: full history replayed,
                                   then live "status"/"round" events, closed
                                   after the terminal "end" event
    GET  /jobs/<id>/result         stored result summary + perf record
    GET  /jobs/<id>/result.pkl     the pickled CastanResult itself (binary)
    GET  /store                    stored content addresses
    GET  /store/<key>              one stored entry's metadata
    GET  /signatures               stored signature-set keys (the sig shelf)

Framing.  A connection serves requests one after another (HTTP/1.1
persistent connections, RFC 9112 §9.3): every fixed-length response goes
out as one write of head and body with ``Content-Length`` and
``Connection: keep-alive``, and the server then reads the connection's next
request.  The connection closes after one response when the request says
``HTTP/1.0`` or ``Connection: close``, when the server cannot parse it (the
400 answers it, then the close), and after a 500.  A connection that sends
no complete request within :data:`REQUEST_READ_TIMEOUT` — idle between
requests or stalled mid-request — is closed without an answer.

The stream response carries no ``Content-Length``: it says ``Connection:
close`` and its body is framed by EOF, which every HTTP/1.1 client
(including stdlib ``http.client``) handles, and lets the server write
rounds the moment they happen.

:meth:`RestServer.close` closes the listening socket *and* every open
connection, so shutdown does not wait out an idle keep-alive connection
(from Python 3.12.1 on, ``asyncio.Server.wait_closed()`` waits for every
connection to go).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
from typing import NamedTuple

from repro.nf.registry import nf_identity
from repro.service.server import SynthesisService, config_address

#: Hard ceiling on request-body size (jobs are a few hundred bytes of JSON).
MAX_BODY_BYTES = 1 << 20
#: Seconds allowed for a connection's next request head + body to arrive:
#: how long an idle keep-alive connection stays open.
REQUEST_READ_TIMEOUT = 10.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """Routed straight into an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Stream(NamedTuple):
    """A route's answer that is the job's NDJSON event stream, not one response."""

    job_id: str


def _response_head(
    status: int, content_type: str, length: int | None, keep_alive: bool = False
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, dict, bool] | None:
    """Parse ``(method, path, body_json, keep_alive)`` from one request.

    ``None`` when the connection ends before a request line: the client
    closed it between requests.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode().split(maxsplit=2)
    except ValueError:
        raise HttpError(400, f"malformed request line {request_line!r}") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode().partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, f"malformed header line {line!r}") from None
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        # Unread chunks would be parsed as the connection's next request.
        raise HttpError(400, "chunked request bodies are not supported; send Content-Length")
    raw_length = headers.get("content-length", "0") or "0"
    if not raw_length.isascii() or not raw_length.isdigit():
        raise HttpError(400, f"malformed Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise HttpError(400, f"request body too large ({length} bytes)")
    body: dict = {}
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
    tokens = {token.strip().lower() for token in headers.get("connection", "").split(",")}
    keep_alive = version.strip() == "HTTP/1.1" and "close" not in tokens
    return method.upper(), target.split("?", 1)[0], body, keep_alive


def _get_job(service: SynthesisService, job_id: str):
    try:
        return service.lookup(job_id)
    except KeyError as exc:  # "unknown job ..." or "job ... expired: ..."
        raise HttpError(404, exc.args[0]) from None


async def _stream_job(
    service: SynthesisService, writer: asyncio.StreamWriter, job_id: str
) -> None:
    """NDJSON event stream: replayed history, then live events, then EOF.

    The connection runs it with no await after :func:`_route` found the job,
    so the job cannot have expired in between, and subscribing before the
    first await keeps it from expiring while it streams.
    """
    queue = service.subscribe(job_id)
    try:
        writer.write(_response_head(200, "application/x-ndjson", None))
        await writer.drain()
        while True:
            event = await queue.get()
            writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
            await writer.drain()
            if event.get("event") == "end":
                return
    finally:
        service.unsubscribe(job_id, queue)


def _submit(service: SynthesisService, body: dict) -> dict:
    specs = body.get("nfs")
    if specs is None:
        if "nf" not in body:
            raise HttpError(400, "submission needs 'nf' (one spec) or 'nfs' (a list)")
        specs = [body["nf"]]
    if not isinstance(specs, list) or not all(isinstance(s, str) for s in specs):
        raise HttpError(400, "'nfs' must be a list of NF spec strings")
    config = body.get("config") or {}
    num_packets = body.get("num_packets")
    try:
        jobs = [service.submit(spec, config, num_packets) for spec in specs]
    except (KeyError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise HttpError(400, str(message)) from None
    if "nf" in body and "nfs" not in body:
        return jobs[0].to_dict()
    return {"jobs": [job.to_dict() for job in jobs]}


def _submit_score(service: SynthesisService, body: dict) -> dict:
    if "nf" not in body:
        raise HttpError(400, "score submission needs 'nf'")
    traffic = body.get("traffic")
    if not isinstance(traffic, dict):
        raise HttpError(400, "score submission needs a 'traffic' object")
    traffic = dict(traffic)
    if "pcap_b64" in traffic:
        try:
            traffic["pcap_bytes"] = base64.b64decode(
                traffic.pop("pcap_b64"), validate=True
            )
        except (binascii.Error, TypeError, ValueError) as exc:
            raise HttpError(400, f"'pcap_b64' is not valid base64: {exc}") from None
    try:
        job = service.submit_score(
            body["nf"],
            body.get("config") or {},
            traffic=traffic,
            num_packets=body.get("num_packets"),
            scorer_options=body.get("options") or {},
        )
    except (KeyError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise HttpError(400, str(message)) from None
    return job.to_dict()


def _stored_entry(service: SynthesisService, job_id: str, read):
    """``read(cache_key)`` of a done job's stored entry (its meta or its pickle)."""
    job = _get_job(service, job_id)
    if job.state != "done":
        raise HttpError(409, f"job {job_id} is {job.state}, not done")
    entry = read(job.cache_key)
    if entry is None:
        raise HttpError(404, f"job {job_id}: stored entry {job.cache_key} vanished")
    return entry


def _memo_counters(memo) -> dict:
    info = memo.cache_info()
    return {"hits": info.hits, "misses": info.misses, "size": info.currsize}


def _route(rest: "RestServer", method: str, path: str, body: dict):
    """The 200 answer to one request: a JSON payload, raw bytes or a :class:`_Stream`."""
    service = rest.service
    parts = [part for part in path.split("/") if part]

    if method == "GET" and parts == ["healthz"]:
        return {
            "ok": True,
            "jobs": service.counts(),
            "connections": rest.connections,
            "requests": rest.requests,
            # The pay-or-go counters of the hit path's two memos.
            "nf_identity": _memo_counters(nf_identity),
            "config_address": _memo_counters(config_address),
        }
    if parts == ["jobs"]:
        if method == "POST":
            return _submit(service, body)
        if method == "GET":
            return {"jobs": [job.to_dict() for job in service.job_list()]}
        raise HttpError(405, f"{method} not allowed on /jobs")
    if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
        return _get_job(service, parts[1]).to_dict()
    if len(parts) == 3 and parts[0] == "jobs":
        job_id, action = parts[1], parts[2]
        if action == "cancel" and method == "POST":
            _get_job(service, job_id)
            return service.cancel(job_id).to_dict()
        if action == "stream" and method == "GET":
            _get_job(service, job_id)
            return _Stream(job_id)
        if action == "result" and method == "GET":
            return _stored_entry(service, job_id, service.store.get_meta)
        if action == "result.pkl" and method == "GET":
            # The stored pickle as written: the server never unpickles a result.
            return _stored_entry(service, job_id, service.store.get_pickle)
        raise HttpError(404, f"unknown endpoint {method} {path}")
    if parts == ["score"]:
        if method != "POST":
            raise HttpError(405, f"{method} not allowed on /score")
        return _submit_score(service, body)
    if parts == ["signatures"] and method == "GET":
        return {"keys": service.store.signature_keys()}
    if parts == ["store"] and method == "GET":
        return {"keys": service.store.keys()}
    if len(parts) == 2 and parts[0] == "store" and method == "GET":
        meta = service.store.get_meta(parts[1])
        if meta is None:
            raise HttpError(404, f"no stored entry {parts[1]!r}")
        return meta
    raise HttpError(404, f"unknown endpoint {method} {path}")


class RestServer(asyncio.AbstractServer):
    """The REST front end of one :class:`SynthesisService`, bound to a port.

    ``connections`` counts the connections accepted and ``requests`` the
    responses written; ``GET /healthz`` serves both, so ``requests -
    connections`` is how many requests rode an already open connection.
    """

    def __init__(self, service: SynthesisService) -> None:
        self.service = service
        self.connections = 0
        self.requests = 0
        self.listener: asyncio.AbstractServer | None = None  # bound by serve()
        self._open: set[asyncio.StreamWriter] = set()

    @property
    def sockets(self):
        return self.listener.sockets

    def close(self) -> None:
        """Stop listening and close every open connection, idle or not."""
        self.listener.close()
        for writer in self._open:
            writer.close()

    async def wait_closed(self) -> None:
        await self.listener.wait_closed()

    async def serve_forever(self) -> None:
        """Serve until cancelled, then close (connections too) and wait."""
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            self.close()
            await self.wait_closed()

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until either side closes it."""
        self.connections += 1
        self._open.add(writer)
        try:
            while await self._respond(reader, writer):
                pass
        except (TimeoutError, asyncio.IncompleteReadError, ConnectionError):
            pass  # idle past the timeout, or the client went away mid-exchange
        finally:
            self._open.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> bool:
        """Answer the connection's next request; whether the connection stays open."""
        try:
            async with asyncio.timeout(REQUEST_READ_TIMEOUT):
                request = await _read_request(reader)
        except HttpError as exc:  # unparseable: answer, then close
            return await self._send(writer, exc.status, {"error": exc.message}, False)
        if request is None:
            return False  # the client closed the connection between requests
        method, path, body, keep_alive = request
        try:
            payload = _route(self, method, path, body)
        except HttpError as exc:
            return await self._send(writer, exc.status, {"error": exc.message}, keep_alive)
        except Exception as exc:  # defensive: the server must survive handlers
            return await self._send(writer, 500, {"error": f"internal error: {exc!r}"}, False)
        if isinstance(payload, _Stream):
            self.requests += 1
            await _stream_job(self.service, writer, payload.job_id)
            return False
        return await self._send(writer, 200, payload, keep_alive)

    async def _send(
        self, writer: asyncio.StreamWriter, status: int, payload, keep_alive: bool
    ) -> bool:
        """Write one fixed-length response — raw bytes or a JSON payload — in
        one write; returns ``keep_alive``."""
        if isinstance(payload, bytes):
            content_type, body = "application/octet-stream", payload
        else:
            content_type = "application/json"
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        writer.write(_response_head(status, content_type, len(body), keep_alive) + body)
        await writer.drain()
        self.requests += 1
        return keep_alive


async def serve(
    service: SynthesisService, host: str = "127.0.0.1", port: int = 8321
) -> RestServer:
    """Start the service core and bind the REST front end.

    Returns the listening :class:`RestServer`; ``port=0`` binds an ephemeral
    port (``server.sockets[0].getsockname()[1]`` reveals it — the tests and
    the smoke tool use exactly that).
    """
    await service.start()
    rest = RestServer(service)
    rest.listener = await asyncio.start_server(rest.handle_connection, host=host, port=port)
    return rest
