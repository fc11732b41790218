"""REST transport for the synthesis service (stdlib-only asyncio HTTP).

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` — no
framework, one request per connection, ``Connection: close`` framing — which
is all the job API needs and keeps the repo dependency-free.

Endpoints (all JSON unless noted)::

    GET  /healthz                  liveness + job-state counts + store size +
                                   nf_identity memo {"hits", "misses", "size"}
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

The stream response carries no ``Content-Length``: with ``Connection:
close`` the body is framed by EOF, which every HTTP/1.1 client (including
stdlib ``http.client``) handles, and lets the server write rounds the
moment they happen.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json

from repro.nf.registry import nf_identity
from repro.service.server import SynthesisService

#: Hard ceiling on request-body size (jobs are a few hundred bytes of JSON).
MAX_BODY_BYTES = 1 << 20
#: Seconds allowed for reading one request head + body.
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


def _response_head(status: int, content_type: str, length: int | None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


async def _send_json(writer: asyncio.StreamWriter, status: int, payload) -> None:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    writer.write(_response_head(status, "application/json", len(body)))
    writer.write(body)
    await writer.drain()


async def _send_bytes(writer: asyncio.StreamWriter, status: int, body: bytes) -> None:
    writer.write(_response_head(status, "application/octet-stream", len(body)))
    writer.write(body)
    await writer.drain()


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, dict]:
    """Parse ``(method, path, body_json)`` from one request."""
    request_line = await reader.readline()
    if not request_line:
        raise HttpError(400, "empty request")
    try:
        method, target, _version = request_line.decode().split(maxsplit=2)
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
    return method.upper(), target.split("?", 1)[0], body


def _get_job(service: SynthesisService, job_id: str):
    try:
        return service.lookup(job_id)
    except KeyError as exc:  # "unknown job ..." or "job ... expired: ..."
        raise HttpError(404, exc.args[0]) from None


async def _stream_job(
    service: SynthesisService, writer: asyncio.StreamWriter, job_id: str
) -> None:
    """NDJSON event stream: replayed history, then live events, then EOF."""
    _get_job(service, job_id)
    queue = service.subscribe(job_id)  # before the first await: the job cannot expire in between
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


async def _route(
    service: SynthesisService,
    method: str,
    path: str,
    body: dict,
    writer: asyncio.StreamWriter,
) -> None:
    parts = [part for part in path.split("/") if part]

    if method == "GET" and parts == ["healthz"]:
        memo = nf_identity.cache_info()  # the pay-or-go counter of the hit path's memo
        await _send_json(
            writer,
            200,
            {
                "ok": True,
                "jobs": service.counts(),
                "store_entries": len(service.store),
                "nf_identity": {"hits": memo.hits, "misses": memo.misses, "size": memo.currsize},
            },
        )
    elif parts == ["jobs"]:
        if method == "POST":
            await _send_json(writer, 200, _submit(service, body))
        elif method == "GET":
            await _send_json(
                writer, 200, {"jobs": [job.to_dict() for job in service.job_list()]}
            )
        else:
            raise HttpError(405, f"{method} not allowed on /jobs")
    elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
        await _send_json(writer, 200, _get_job(service, parts[1]).to_dict())
    elif len(parts) == 3 and parts[0] == "jobs":
        job_id, action = parts[1], parts[2]
        if action == "cancel" and method == "POST":
            _get_job(service, job_id)
            await _send_json(writer, 200, service.cancel(job_id).to_dict())
        elif action == "stream" and method == "GET":
            await _stream_job(service, writer, job_id)
        elif action == "result" and method == "GET":
            await _send_json(writer, 200, _stored_entry(service, job_id, service.store.get_meta))
        elif action == "result.pkl" and method == "GET":
            # The stored pickle as written: the server never unpickles a result.
            blob = _stored_entry(service, job_id, service.store.get_pickle)
            await _send_bytes(writer, 200, blob)
        else:
            raise HttpError(404, f"unknown endpoint {method} {path}")
    elif parts == ["score"]:
        if method != "POST":
            raise HttpError(405, f"{method} not allowed on /score")
        await _send_json(writer, 200, _submit_score(service, body))
    elif parts == ["signatures"] and method == "GET":
        await _send_json(writer, 200, {"keys": service.store.signature_keys()})
    elif parts == ["store"] and method == "GET":
        await _send_json(writer, 200, {"keys": service.store.keys()})
    elif len(parts) == 2 and parts[0] == "store" and method == "GET":
        meta = service.store.get_meta(parts[1])
        if meta is None:
            raise HttpError(404, f"no stored entry {parts[1]!r}")
        await _send_json(writer, 200, meta)
    else:
        raise HttpError(404, f"unknown endpoint {method} {path}")


async def handle_connection(
    service: SynthesisService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            method, path, body = await asyncio.wait_for(
                _read_request(reader), timeout=REQUEST_READ_TIMEOUT
            )
            await _route(service, method, path, body, writer)
        except HttpError as exc:
            await _send_json(writer, exc.status, {"error": exc.message})
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except (ConnectionResetError, BrokenPipeError):
            pass  # client dropped the response; nothing to do
        except Exception as exc:  # defensive: the server must survive handlers
            try:
                await _send_json(writer, 500, {"error": f"internal error: {exc!r}"})
            except (ConnectionResetError, BrokenPipeError):
                pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve(
    service: SynthesisService, host: str = "127.0.0.1", port: int = 8321
) -> asyncio.AbstractServer:
    """Start the service core and bind the REST front end.

    Returns the listening ``asyncio`` server; ``port=0`` binds an ephemeral
    port (``server.sockets[0].getsockname()[1]`` reveals it — the tests and
    the smoke tool use exactly that).
    """
    await service.start()

    async def _handler(reader, writer):
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(_handler, host=host, port=port)
