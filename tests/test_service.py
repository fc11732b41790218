"""Tests for the synthesis service (repro.service) and worker leases.

Covers the service's contract end to end, at smoke scale:

* the content-addressed :class:`ResultStore` round-trips results and keys
  them by ``(config content hash, NF fingerprint, packet count)``;
* a cache hit serves a result whose canonical digest is byte-identical to
  a fresh in-process run of the same job;
* an analysis worker writes the in-process result to the store itself and
  sends back only JSON, so the server never unpickles a result;
* the REST API boots, streams per-round progress, rejects bad submissions
  eagerly, and settles cancellations;
* score jobs run in the same leased worker as analyses: cancel,
  ``job_timeout`` and ``shutdown()`` revoke them mid-stream, and a
  malformed capture fails the job with the worker's traceback;
* :class:`WorkerLease` detects wall-clock overruns and dead heartbeats and
  can revoke its worker.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import pickle
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.nf.registry import get_nf
from repro.service.client import ServiceClient, ServiceError
import repro.service.http as http_module
from repro.service.http import serve
from repro.service.lease import WorkerLease, make_context
from repro.service.server import SynthesisService
from repro.service.store import ResultStore, canonical_result_digest, perf_record, result_key
from repro.service.worker import run_job_worker

SMOKE_CONFIG = {
    "max_states": 40,
    "deadline_seconds": None,
    "search_mode": "beam",
}
SMOKE_PACKETS = 3
NF = "lpm-patricia"


def smoke_config() -> CastanConfig:
    return CastanConfig.from_dict(SMOKE_CONFIG)


def analyze_smoke(nf_spec: str):
    return Castan(smoke_config()).analyze(get_nf(nf_spec), num_packets=SMOKE_PACKETS)


# -- result store -------------------------------------------------------------


def test_result_key_is_a_function_of_config_nf_and_packets():
    config = smoke_config()
    key = result_key(config, "nf-fp", 3)
    assert key == result_key(config, "nf-fp", 3)
    assert key != result_key(config, "nf-fp", 4)
    assert key != result_key(config, "other-fp", 3)
    other = CastanConfig.from_dict({**SMOKE_CONFIG, "max_states": 41})
    assert key != result_key(other, "nf-fp", 3)


def test_store_round_trip(tmp_path):
    result = analyze_smoke(NF)
    store = ResultStore(tmp_path / "store")
    key = store.key_for(get_nf(NF), smoke_config(), SMOKE_PACKETS)
    assert not store.has(key)
    meta = store.put(key, result)
    assert store.has(key)
    assert store.keys() == [key]
    assert len(store) == 1

    loaded, loaded_meta = store.get(key)
    assert canonical_result_digest(loaded) == canonical_result_digest(result)
    assert loaded_meta == meta
    assert meta["result"]["result_digest"] == canonical_result_digest(result)
    assert meta["perf"]["states_explored"] == result.states_explored
    # re-putting the same key is idempotent
    store.put(key, result)
    assert len(store) == 1
    # An entry without its pickle (half-written by hand) is a miss.
    (tmp_path / "store" / key[:2] / key / "result.pkl").unlink()
    assert store.get_meta(key) is None
    assert not store.has(key)


def test_store_put_that_loses_the_race_keeps_the_stored_entry(tmp_path, monkeypatch):
    """A put whose rename lands on an entry another writer already renamed
    into place succeeds with that entry's metadata, not ``ENOTEMPTY``."""
    result = analyze_smoke(NF)
    store = ResultStore(tmp_path / "store")
    key = store.key_for(get_nf(NF), smoke_config(), SMOKE_PACKETS)
    first = store.put(key, result, perf=perf_record(result, label="service:job-0001"))
    # The second writer sees no entry until it renames (the first writer's
    # rename lands in between), whatever it checks beforehand.
    entry = tmp_path / "store" / key[:2] / key
    exists = Path.exists
    with monkeypatch.context() as patch:
        patch.setattr(Path, "exists", lambda path: path != entry and exists(path))
        second = store.put(key, result, perf=perf_record(result, label="service:job-0002"))
    assert second == first == store.get_meta(key)
    assert second["perf"]["label"] == "service:job-0001"
    assert store.keys() == [key]
    assert [path.name for path in store.root.iterdir()] == [key[:2]]  # no staging left
    # An entry that is not whole is no lost race: the rename's error stands.
    (entry / "meta.json").unlink()
    with pytest.raises(OSError):
        store.put(key, result)


def test_store_refuses_keys_that_are_not_addresses(tmp_path):
    # A meta.json and a result.pkl planted two levels above the store root:
    # the key ".." would name that directory as an entry.
    (tmp_path / "meta.json").write_text(json.dumps({"planted": True}))
    (tmp_path / "result.pkl").write_bytes(pickle.dumps("planted"))
    store = ResultStore(tmp_path / "a" / "store")
    for key in ("..", "../..", "ab", "0" * 63, "0" * 65, "F" * 64, 7):
        assert not store.has(key)
        assert store.get(key) is None
        assert store.get_meta(key) is None
        assert store.get_pickle(key) is None
        assert store.get_signatures(key) is None
        with pytest.raises(ValueError, match="not a store key"):
            store.put(key, None)
    assert store.keys() == []


def test_canonical_digest_ignores_timing_but_not_content(tmp_path):
    result = analyze_smoke(NF)
    clone = pickle.loads(pickle.dumps(result))
    clone.analysis_seconds = result.analysis_seconds + 100.0
    assert canonical_result_digest(clone) == canonical_result_digest(result)
    clone.best_state_cost += 1
    assert canonical_result_digest(clone) != canonical_result_digest(result)


# -- worker process -----------------------------------------------------------


def _drain_worker(job, store) -> list:
    """Run ``job``'s worker in a fresh process; its events up to the terminal one."""
    context = make_context()
    progress = context.Queue()
    process = context.Process(target=run_job_worker, args=(progress, job, store), daemon=True)
    process.start()
    try:
        events = [progress.get(timeout=120)]
        while events[-1][0] not in ("done", "error"):
            events.append(progress.get(timeout=120))
    finally:
        process.join(timeout=30)
    return events


@pytest.mark.parametrize("nf_spec", ["chain-gateway", "nat-hash-table"])
def test_analysis_worker_stores_the_in_process_result(nf_spec, tmp_path):
    """An analysis job's worker process writes the same result an in-process
    ``Castan.analyze`` computes, and sends back only JSON."""
    store = ResultStore(tmp_path / "store")
    job = SynthesisService(store).submit(nf_spec, SMOKE_CONFIG, num_packets=SMOKE_PACKETS)
    events = _drain_worker(job, store)
    kind, payload = events[-1]
    assert kind == "done", payload
    assert "round" in [event[0] for event in events]
    assert set(payload) == {"result", "perf"}
    assert json.loads(json.dumps(payload)) == payload
    assert payload["perf"]["label"] == f"service:{job.job_id}"

    stored, meta = store.get(job.cache_key)
    local = analyze_smoke(nf_spec)
    assert canonical_result_digest(stored) == canonical_result_digest(local)
    assert payload["result"]["result_digest"] == canonical_result_digest(local)
    assert stored.metrics.stage_cycles == local.metrics.stage_cycles
    assert bool(local.metrics.stage_cycles) == nf_spec.startswith("chain")
    assert meta["perf"] == payload["perf"]


def test_score_worker_labels_the_analysis_it_stores(tmp_path):
    """A score job that misses the store analyses, and the entry it writes
    carries the job's label, as an analysis job's entry does."""
    store = ResultStore(tmp_path / "store")
    job = SynthesisService(store).submit_score(NF, SMOKE_CONFIG, {"synthetic": 20}, SMOKE_PACKETS)
    kind, payload = _drain_worker(job, store)[-1]
    assert kind == "done", payload
    key = store.key_for(get_nf(NF), smoke_config(), SMOKE_PACKETS)
    assert store.get_meta(key)["perf"]["label"] == f"service:{job.job_id}"


# -- live server --------------------------------------------------------------


class ServerHandle:
    def __init__(self, port: int, service: SynthesisService):
        self.port = port
        self.service = service
        self.client = ServiceClient(port=port, timeout=120.0)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A real server on an ephemeral port, backed by a throwaway store.

    The store sits two levels below a directory of its own, so a test can
    plant files where the key ``..`` would point.
    """
    store_root = tmp_path_factory.mktemp("service") / "a" / "store"
    loop = asyncio.new_event_loop()
    started = threading.Event()
    state: dict = {}

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            service = SynthesisService(
                ResultStore(store_root),
                max_concurrent_jobs=1,
                job_timeout=120.0,
                lease_timeout=60.0,
            )
            web = await serve(service, port=0)
            state["service"] = service
            state["server"] = web
            state["port"] = web.sockets[0].getsockname()[1]
            started.set()

        loop.run_until_complete(boot())
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(20), "service did not boot"
    handle = ServerHandle(state["port"], state["service"])
    yield handle

    async def teardown() -> None:
        state["server"].close()
        await state["server"].wait_closed()
        await state["service"].shutdown()

    handle.client.close()
    asyncio.run_coroutine_threadsafe(teardown(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)
    loop.close()


def test_health(server):
    health = server.client.health()
    assert health["ok"] is True
    assert set(health["nf_identity"]) == {"hits", "misses", "size"}


def test_health_does_not_walk_the_store(server, monkeypatch):
    def refuse():
        raise AssertionError("/healthz listed the store")

    monkeypatch.setattr(server.service.store, "keys", refuse)
    assert server.client.health()["ok"] is True


def test_a_store_key_that_is_not_an_address_answers_404(server):
    # An entry planted where the key ".." points: above the store root.
    planted = server.service.store.root.parent.parent
    (planted / "meta.json").write_text(json.dumps({"planted": True}))
    (planted / "result.pkl").write_bytes(pickle.dumps("planted"))
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        for key in ("..", "ab", "A" * 64):
            connection.request("GET", f"/store/{key}")
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 404, (key, body)
    finally:
        connection.close()
        (planted / "meta.json").unlink()
        (planted / "result.pkl").unlink()


def test_submit_stream_and_cache_hit_identity(server):
    """The tentpole invariant: served results == fresh runs, hit or miss."""
    job = server.client.submit(NF, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS)
    assert job["cached"] is False

    events = list(server.client.stream(job["job_id"]))
    kinds = [event["event"] for event in events]
    assert kinds.count("round") >= SMOKE_PACKETS  # per-round progress arrived
    assert kinds[-1] == "end"
    final = events[-1]["job"]
    assert final["state"] == "done"
    assert final["attempts"] == 1
    # the end event says why the search stopped: 40 states of beam ran out
    assert final["result"]["stop_reason"] == final["perf"]["stop_reason"] == "budget"

    # an unchanged resubmission is served from the store, born terminal
    again = server.client.submit(NF, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS)
    assert again["cached"] is True
    assert again["state"] == "done"
    assert again["cache_key"] == final["cache_key"]
    assert again["result"]["result_digest"] == final["result"]["result_digest"]

    # both served results are canonically identical to a fresh local run
    fresh = analyze_smoke(NF)
    served = server.client.result(again["job_id"])
    assert canonical_result_digest(served) == canonical_result_digest(fresh)
    assert final["result"]["result_digest"] == canonical_result_digest(fresh)

    # the stream of a finished job replays its full history and terminates
    replay = [event["event"] for event in server.client.stream(job["job_id"])]
    assert replay[-1] == "end"
    assert replay.count("round") == kinds.count("round")


def test_server_never_unpickles_an_analysis_result(server, monkeypatch):
    """The worker stores the result and the endpoints serve the stored bytes:
    with the store's unpickling read disabled, a miss, its result endpoints
    and the hit that follows all still work."""

    def refuse(key):
        raise AssertionError(f"the server unpickled {key}")

    monkeypatch.setattr(server.service.store, "get", refuse)
    job = server.client.submit(NF, config=SMOKE_CONFIG, num_packets=2)
    final = list(server.client.stream(job["job_id"]))[-1]["job"]
    assert final["state"] == "done", final["error"]
    assert final["perf"]["label"] == f"service:{job['job_id']}"
    served = server.client.result(job["job_id"])
    assert canonical_result_digest(served) == final["result"]["result_digest"]
    assert server.client.result_meta(job["job_id"])["result"] == final["result"]
    again = server.client.submit(NF, config=SMOKE_CONFIG, num_packets=2)
    assert again["cached"] is True and again["perf"] == final["perf"]


def test_end_event_reports_how_the_havocs_were_proved(server):
    """A hash NF's end event counts witnessed and searched reconciliations."""
    nf = "nat-hash-ring"
    job = server.client.submit(nf, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS)
    final = list(server.client.stream(job["job_id"]))[-1]["job"]
    assert final["state"] == "done"
    havoc = analyze_smoke(nf).havoc_outcome
    assert havoc.witnessed + havoc.searched == len(havoc.reconciled) > 0
    for key, count in (("havocs_witnessed", havoc.witnessed), ("havocs_searched", havoc.searched)):
        assert final["result"][key] == final["perf"][key] == count
    assert (
        f"havocs reconciled {len(havoc.reconciled)}/{havoc.total} "
        f"({havoc.witnessed} by witness, {havoc.searched} searched)"
    ) in final["result"]["summary"]


def test_submission_validation_is_eager(server):
    with pytest.raises(ServiceError) as err:
        server.client.submit("no-such-nf")
    assert err.value.status == 400

    with pytest.raises(ServiceError) as err:
        server.client.submit(NF, config={"max_statez": 40})
    assert err.value.status == 400
    assert "max_statez" in err.value.message

    # a removed knob is an unknown field, not a silently ignored one
    for knob, value in (
        ("workers", 2),
        ("cache_partition", "partitioned"),
        ("beam_width", 5),
        ("loop_bound", 3),
        ("contention_source", "probing"),
        ("solver_budget", 100),
    ):
        with pytest.raises(ServiceError) as err:
            server.client.submit(NF, config={knob: value})
        assert err.value.status == 400
        assert f"'{knob}'" in err.value.message

    # so is an unknown key inside a nested table
    for nested, knob in (("cycle_costs", "extra"), ("hierarchy", "l3_sizee")):
        with pytest.raises(ServiceError) as err:
            server.client.submit(NF, config={nested: {knob: 1}})
        assert err.value.status == 400
        assert f"'{knob}'" in err.value.message and "known fields" in err.value.message

    # a strike chunk of no pops would spin the search until its deadline
    with pytest.raises(ServiceError) as err:
        server.client.submit(NF, config={**SMOKE_CONFIG, "strike_chunk_states": 0})
    assert err.value.status == 400
    assert "strike_chunk_states" in err.value.message

    with pytest.raises(ServiceError) as err:
        server.client.job("job-9999")
    assert err.value.status == 404


def test_expired_jobs_answer_404_and_the_store_still_hits(server, monkeypatch):
    """Past the retention bound a finished job's id is gone — record, stream
    and all — while its stored result keeps serving resubmissions."""
    import repro.service.server as server_module

    first = server.client.submit(NF, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS)
    server.client.wait(first["job_id"], timeout=120)
    monkeypatch.setattr(server_module, "MAX_TERMINAL_JOBS", 3)
    hits = [
        server.client.submit(NF, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS)
        for _ in range(4)
    ]
    assert all(hit["cached"] for hit in hits)
    for call in (server.client.job, server.client.cancel, server.client.result_meta):
        with pytest.raises(ServiceError) as err:
            call(first["job_id"])
        assert err.value.status == 404 and "expired" in err.value.message
    with pytest.raises(ServiceError) as err:
        list(server.client.stream(first["job_id"]))
    assert err.value.status == 404 and "expired" in err.value.message
    with pytest.raises(ServiceError) as err:
        server.client.job("job-9999")
    assert err.value.status == 404 and "unknown job" in err.value.message
    assert server.client.job(hits[-1]["job_id"])["state"] == "done"
    assert len(server.client.jobs()) == 3


#: Values of known config fields that no analysis can run.  The config
#: refuses each where it is built, so a submission fails instead of a worker.
BAD_CONFIG_VALUES = [
    ("searcher", "nope"),
    ("search_mode", "nope"),
    ("cache_model", "nope"),
    ("max_states", "x"),
    ("max_states", 0),
    ("max_states", True),
    ("rainbow_chains", 0),
    ("rainbow_chains", 2.0),
    ("strike_chunk_states", "3"),
    ("seed", "x"),
    ("seed", True),
    ("num_packets", -2),
    ("num_packets", True),
    ("deadline_seconds", -1),
    ("deadline_seconds", 0),
    ("deadline_seconds", "5"),
    ("cycle_costs", None),
    ("hierarchy", 7),
    ("cycle_costs", {"hash_call": -5}),
    ("hierarchy", {"l3_ways": "x"}),
]


@pytest.mark.parametrize("field, value", BAD_CONFIG_VALUES)
def test_a_bad_config_value_fails_the_submission(server, field, value):
    with pytest.raises(ValueError, match=field):
        CastanConfig.from_dict({field: value})
    with pytest.raises(ServiceError) as err:
        server.client.submit(NF, config={**SMOKE_CONFIG, field: value})
    assert err.value.status == 400 and field in err.value.message


def test_boundary_config_values_are_honoured():
    config = CastanConfig.from_dict(
        {"num_packets": 0, "deadline_seconds": None, "max_states": 1, "seed": -1}
    )
    assert (config.num_packets, config.deadline_seconds) == (0, None)
    assert CastanConfig.from_dict({"deadline_seconds": 0.5}).deadline_seconds == 0.5


def test_cancel_settles_a_queued_job(server):
    """With one execution slot, the second of two jobs cancels while queued."""
    first = server.client.submit(
        NF, config={**SMOKE_CONFIG, "max_states": 200}, num_packets=SMOKE_PACKETS
    )
    queued = server.client.submit(
        "nat-hash-table", config={**SMOKE_CONFIG, "max_states": 200}, num_packets=2
    )
    cancelled = server.client.cancel(queued["job_id"])
    assert cancelled["state"] in ("cancelled", "queued")  # queued settles on pickup
    final = server.client.wait(queued["job_id"], timeout=60)
    assert final["state"] == "cancelled"
    # the first job is unaffected
    assert server.client.wait(first["job_id"], timeout=120)["state"] == "done"


# -- score jobs ---------------------------------------------------------------


def test_score_job_end_to_end(server):
    """POST /score runs analyze -> distill -> stream windows -> summary."""
    job = server.client.score(
        "nat-hash-table",
        {"synthetic": 5000, "seed": 1},
        config=SMOKE_CONFIG,
        num_packets=SMOKE_PACKETS,
        options={"window_size": 2000, "top_k": 3},
    )
    assert job["kind"] == "score"
    assert job["state"] in ("queued", "running")

    events = list(server.client.stream(job["job_id"]))
    kinds = [event["event"] for event in events]
    assert kinds[-1] == "end"
    assert "signatures" in kinds
    assert kinds.count("window") >= 2  # 5000 packets / 2000-packet windows

    signatures = next(e for e in events if e["event"] == "signatures")["signatures"]
    assert signatures["nf"] == "nat-hash-table"
    assert signatures["count"] >= 1

    final = events[-1]["job"]
    assert final["state"] == "done"
    summary = final["result"]
    assert summary["packets"] == 5000
    assert summary["windows"] >= 2
    assert [s["label"] for s in summary["signatures"]]

    # The distilled set landed on the store's signature shelf.
    assert len(server.client.signature_keys()) >= 1


def test_score_submission_validation_is_eager(server):
    with pytest.raises(ServiceError) as err:
        server.client.score(NF, {})  # no traffic source at all
    assert err.value.status == 400

    with pytest.raises(ServiceError) as err:
        server.client.score(NF, {"synthetic": 100}, options={"bogus_knob": 1})
    assert err.value.status == 400
    assert "bogus_knob" in err.value.message

    # bad knob values fail the submit, not the job in its worker
    for knob, value in (
        ("batch_size", 0),
        ("top_k", -3),
        ("window_size", "big"),
        ("batch_size", True),
    ):
        with pytest.raises(ServiceError) as err:
            server.client.score(NF, {"synthetic": 100}, options={knob: value})
        assert err.value.status == 400
        assert knob in err.value.message

    with pytest.raises(ServiceError) as err:
        server.client.score(NF, {"pcap_b64": "!!! not base64 !!!"})
    assert err.value.status == 400


@pytest.mark.parametrize("num_packets", ["3", 2.5, -2, True, False, [1]])
def test_num_packets_is_validated_at_submit(server, num_packets):
    # `true` would otherwise be addressed apart from the identical `1`.
    for submit in (
        lambda: server.client.submit(NF, config=SMOKE_CONFIG, num_packets=num_packets),
        lambda: server.client.score(NF, {"synthetic": 10}, num_packets=num_packets),
    ):
        with pytest.raises(ServiceError) as err:
            submit()
        assert err.value.status == 400
        assert "num_packets" in err.value.message


def test_num_packets_accepts_null_and_non_negative_ints(tmp_path):
    service = SynthesisService(ResultStore(tmp_path))  # not started: misses stay queued
    jobs = [service.submit(NF, SMOKE_CONFIG, count) for count in (None, 0, 3)]
    jobs.append(service.submit_score(NF, SMOKE_CONFIG, {"synthetic": 10}, 0))
    assert [job.num_packets for job in jobs] == [None, 0, 3, 0]
    assert all(job.state == "queued" for job in jobs)


@pytest.mark.parametrize(
    "traffic",
    [
        {"synthetic": "abc"},
        {"synthetic": -5},
        {"synthetic": True},  # would score 1 packet
        {"synthetic": 2.5},
        {"synthetic": 10, "seed": "x"},
        {"synthetic": 10, "seed": True},
        {"synthetic": 10, "sead": 3},  # a typo would otherwise stream seed 0
        {"synthetic": 10, "pcap_b64": ""},  # two sources
    ],
)
def test_score_traffic_values_are_validated_at_submit(server, traffic):
    jobs_before = len(server.client.jobs())
    with pytest.raises(ServiceError) as err:
        server.client.score(NF, traffic, config=SMOKE_CONFIG)
    assert err.value.status == 400
    assert "synthetic" in err.value.message
    assert len(server.client.jobs()) == jobs_before  # nothing was tabled


def test_score_traffic_accepts_zero_packets_and_any_int_seed(tmp_path):
    service = SynthesisService(ResultStore(tmp_path))  # not started: jobs stay queued
    for traffic in ({"synthetic": 0}, {"synthetic": 10, "seed": -1}):
        assert service.submit_score(NF, SMOKE_CONFIG, traffic).state == "queued"


def test_offline_score_job_refuses_bad_traffic_before_the_analysis(monkeypatch):
    from repro.scoring import jobs as jobs_module

    def no_analysis(*args, **kwargs):
        raise AssertionError("the analysis ran before the traffic check")

    monkeypatch.setattr(jobs_module, "obtain_result", no_analysis)
    with pytest.raises(ValueError, match="synthetic packet count"):
        jobs_module.run_score_job(NF, CastanConfig(), {"synthetic": True})


@pytest.mark.parametrize("length", ["abc", "-5", "1e3", "\u00b2"])
def test_a_malformed_content_length_answers_400(server, length):
    import json
    import socket

    request = f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}".encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert "Content-Length" in json.loads(body)["error"]


def test_a_non_utf8_header_line_answers_400(server):
    import json
    import socket

    request = b"GET /healthz HTTP/1.1\r\nX-Bad: \xff\xfe\r\n\r\n"
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert "malformed header line" in json.loads(body)["error"]


# -- keep-alive transport -----------------------------------------------------


def _read_framed_response(stream) -> tuple[bytes, dict, bytes]:
    """``(status line, headers, body)`` of one Content-Length-framed response."""
    status = stream.readline()
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


def test_two_requests_on_one_connection_get_two_framed_responses(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        stream = sock.makefile("rb")
        bodies = []
        for _ in range(2):
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
            status, headers, body = _read_framed_response(stream)
            assert status.startswith(b"HTTP/1.1 200 ")
            assert headers["connection"] == "keep-alive"
            bodies.append(json.loads(body))
        stream.close()
    first, second = bodies
    assert second["connections"] == first["connections"]  # no new connection ...
    assert second["requests"] == first["requests"] + 1  # ... for the second request


@pytest.mark.parametrize(
    "request_head",
    [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ],
    ids=["connection-close", "http-1.0"],
)
def test_a_request_that_asks_for_close_gets_one_response_then_eof(server, request_head):
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(request_head)
        reply = b""
        while chunk := sock.recv(65536):  # times out if the server kept it open
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert b"Connection: close" in head.split(b"\r\n")
    assert json.loads(body)["ok"] is True  # exactly one JSON document


def test_a_chunked_request_body_answers_400_then_eof(server):
    request = b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):  # the unread chunks are not a next request
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert "chunked" in json.loads(body)["error"]


def _counting_connects(monkeypatch) -> list:
    """Record every TCP connect an ``http.client.HTTPConnection`` makes."""
    connects = []
    real_connect = http.client.HTTPConnection.connect

    def connect(self):
        connects.append((self.host, self.port))
        real_connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return connects


def test_a_connection_the_server_dropped_while_idle_is_reopened_once(server, monkeypatch):
    monkeypatch.setattr(http_module, "REQUEST_READ_TIMEOUT", 0.2)
    connects = _counting_connects(monkeypatch)
    client = ServiceClient(port=server.port, timeout=30.0)
    assert client.health()["ok"]
    time.sleep(0.6)  # past the idle timeout: the server closes the connection
    job = client.submit(NF, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS)
    assert len(connects) == 2  # the first connection and one reconnect
    assert client.wait(job["job_id"], timeout=120)["state"] == "done"
    client.close()


def test_closing_the_server_does_not_wait_out_an_idle_keep_alive(tmp_path):
    async def scenario() -> float:
        service = SynthesisService(ResultStore(tmp_path))
        web = await serve(service, port=0)
        client = ServiceClient(port=web.sockets[0].getsockname()[1], timeout=10.0)
        assert (await asyncio.to_thread(client.health))["ok"]  # its connection stays open
        start = time.monotonic()
        web.close()
        await web.wait_closed()
        elapsed = time.monotonic() - start
        client.close()
        await service.shutdown()
        return elapsed

    assert asyncio.run(scenario()) < 1.0


def test_score_accepts_a_nanosecond_pcap_and_reports_skipped_frames(server, tmp_path):
    """A capture as current tcpdump writes it scores; dropped frames are counted."""
    import io
    import struct

    from repro.net.packet import Packet
    from repro.net.pcap import PCAP_MAGIC_NANO, PcapWriter

    writer = PcapWriter(buffer := io.BytesIO())
    for index in range(50):
        writer.write_packet(Packet(index, 2, 3, 4))
    writer.write_frame(b"\x33" * 60)  # not IPv4
    blob = buffer.getvalue()
    path = tmp_path / "nano.pcap"
    path.write_bytes(struct.pack("<I", PCAP_MAGIC_NANO) + blob[4:])

    job = server.client.score(
        NF, {"pcap_path": str(path)}, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS
    )
    final = list(server.client.stream(job["job_id"]))[-1]["job"]
    assert final["state"] == "done", final.get("error")
    assert final["result"]["packets"] == 50
    assert final["result"]["frames_skipped"] == 1


def test_score_rejects_an_unreadable_pcap_container_at_submit(server, tmp_path):
    """Bad magic or a short global header is a 400 with the reader's reason,
    not a job that fails later — uploaded (``pcap_b64``) or server-side path."""
    import struct

    from repro.net.packet import Packet
    from repro.net.pcap import packets_to_pcap_bytes

    blob = packets_to_pcap_bytes([Packet(1, 2, 3, 4)])
    jobs_before = len(server.client.jobs())
    path = tmp_path / "broken.pcap"
    for broken, reason in (
        (struct.pack("<I", 0xA1B2C3D5) + blob[4:], "bad pcap magic 0xa1b2c3d5"),
        (blob[:20], "truncated pcap global header"),
    ):
        path.write_bytes(broken)
        with pytest.raises(ServiceError) as err:
            server.client.score(NF, {"pcap_path": str(path)}, config=SMOKE_CONFIG)  # uploads
        assert err.value.status == 400 and reason in err.value.message
        with pytest.raises(ValueError, match=reason):
            server.service.submit_score(NF, SMOKE_CONFIG, traffic={"pcap_path": str(path)})
    with pytest.raises(ValueError, match="cannot read pcap_path"):
        server.service.submit_score(
            NF, SMOKE_CONFIG, traffic={"pcap_path": str(tmp_path / "missing.pcap")}
        )
    assert len(server.client.jobs()) == jobs_before  # nothing was tabled


# -- score jobs under worker supervision ---------------------------------------

#: Far more synthetic packets than any test waits for: the job only ends by
#: revocation.  The generator is lazy, so nothing of this size is allocated.
ENDLESS = {"synthetic": 10**10, "seed": 3}
SMALL_WINDOWS = {"batch_size": 512, "window_size": 1024}


@pytest.fixture(scope="module")
def scored(server):
    """The live server, its store already holding NF's result and signatures,
    so a score job reaches its stream within a second."""
    job = server.client.score(NF, {"synthetic": 10}, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS)
    assert server.client.wait(job["job_id"], timeout=120)["state"] == "done"
    return server


def test_cancel_revokes_a_running_score_job(scored):
    """A cancelled score job is revoked mid-stream: its worker dies, it ends
    ``cancelled`` with no summary, and the windows it streamed stay."""
    job = scored.client.score(
        NF, ENDLESS, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS, options=SMALL_WINDOWS
    )
    worker = None
    streamed: list[dict] = []  # windows that arrived before the cancel
    for event in scored.client.stream(job["job_id"]):
        if event["event"] == "window" and worker is None:
            streamed.append(event["window"])
            worker = scored.service._leases[job["job_id"]].process
            assert scored.client.cancel(job["job_id"])["state"] == "running"
    final = event["job"]
    assert worker is not None, "the job ended before streaming a window"
    assert final["state"] == "cancelled" and final["result"] is None
    assert not worker.is_alive()
    history = list(scored.client.stream(job["job_id"]))
    kinds = [event["event"] for event in history]
    assert kinds.index("signatures") < kinds.index("window") and kinds[-1] == "end"
    windows = [event["window"] for event in history if event["event"] == "window"]
    assert windows[: len(streamed)] == streamed


def _run_service(store, scenario, **knobs):
    """Run ``scenario(service)`` (at most 120 s) on a started service, then shut it down."""

    async def main():
        service = SynthesisService(store, max_concurrent_jobs=1, lease_timeout=60.0, **knobs)
        await service.start()
        try:
            return await asyncio.wait_for(scenario(service), timeout=120)
        finally:
            await service.shutdown()

    return asyncio.run(main())


async def _next_event(events: asyncio.Queue, kind: str) -> dict:
    """The job's next event of ``kind`` (or its ``end``, which stops the wait)."""
    while True:
        event = await events.get()
        if event["event"] in (kind, "end"):
            return event


def test_job_timeout_revokes_a_running_score_job(scored):
    async def scenario(service):
        job = service.submit_score(NF, SMOKE_CONFIG, ENDLESS, SMOKE_PACKETS, SMALL_WINDOWS)
        events = service.subscribe(job.job_id)
        assert (await _next_event(events, "signatures"))["event"] == "signatures"
        worker = service._leases[job.job_id].process
        await _next_event(events, "end")
        return job, worker

    job, worker = _run_service(scored.service.store, scenario, job_timeout=2.0)
    assert job.state == "failed" and job.attempts == 1
    assert "revoked (timeout)" in job.error
    assert job.finished_at - job.started_at < 10.0
    assert not worker.is_alive()


def test_shutdown_revokes_a_running_score_job_promptly(scored):
    poll_interval = 0.05
    timing: dict = {}

    async def scenario(service):
        job = service.submit_score(NF, SMOKE_CONFIG, ENDLESS, SMOKE_PACKETS, SMALL_WINDOWS)
        events = service.subscribe(job.job_id)
        assert (await _next_event(events, "window"))["event"] == "window"
        worker = service._leases[job.job_id].process
        start = time.monotonic()
        await service.shutdown()
        timing["shutdown"] = time.monotonic() - start
        timing["start"] = start
        return worker

    worker = _run_service(scored.service.store, scenario, poll_interval=poll_interval)
    loop_closed = time.monotonic() - timing["start"]
    assert timing["shutdown"] < 10 * poll_interval
    assert loop_closed < 20 * poll_interval  # asyncio.run joins no thread running the job
    assert not worker.is_alive()


def test_a_truncated_pcap_record_fails_the_score_job_with_the_worker_traceback(
    scored, tmp_path
):
    """The global header passes the submit check; the record fails in the worker."""
    from repro.net.packet import Packet
    from repro.net.pcap import packets_to_pcap_bytes

    blob = packets_to_pcap_bytes([Packet(index, 2, 3, 4) for index in range(20)])
    path = tmp_path / "truncated.pcap"
    path.write_bytes(blob[:-10])  # the last record's data is cut short
    job = scored.client.score(
        NF, {"pcap_path": str(path)}, config=SMOKE_CONFIG, num_packets=SMOKE_PACKETS
    )
    final = scored.client.wait(job["job_id"], timeout=120)
    assert final["state"] == "failed" and final["result"] is None
    assert "Traceback" in final["error"]
    assert "PcapFormatError: truncated pcap record data" in final["error"]


# -- client transport errors --------------------------------------------------


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_client_surfaces_connection_refused_as_status_zero():
    """No server at all -> ServiceError(status=0), never a raw OSError."""
    client = ServiceClient(port=_free_port(), timeout=2.0)
    with pytest.raises(ServiceError) as err:
        client.health()
    assert err.value.status == 0
    assert "cannot reach service" in err.value.message

    with pytest.raises(ServiceError) as err:
        list(client.stream("job-1"))
    assert err.value.status == 0
    assert "cannot reach service" in err.value.message


def test_client_detects_mid_stream_eof():
    """A stream cut before its terminal event raises instead of ending
    silently — a consumer must never mistake a truncated stream for a
    finished job."""
    import socket

    server_sock = socket.socket()
    server_sock.bind(("127.0.0.1", 0))
    server_sock.listen(1)
    port = server_sock.getsockname()[1]

    def serve_one_truncated_stream() -> None:
        conn, _ = server_sock.accept()
        with conn:
            conn.recv(65536)  # the GET /jobs/job-1/stream request
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n\r\n"
                b'{"event": "status", "job": {"state": "running"}}\n'
            )
            # ... and the connection dies with no "end" event.

    thread = threading.Thread(target=serve_one_truncated_stream, daemon=True)
    thread.start()
    try:
        client = ServiceClient(port=port, timeout=5.0)
        seen = []
        with pytest.raises(ServiceError) as err:
            for event in client.stream("job-1"):
                seen.append(event["event"])
        assert err.value.status == 0
        assert "before its terminal event" in err.value.message
        assert seen == ["status"]  # the pre-cut events still arrived
    finally:
        thread.join(timeout=5)
        server_sock.close()


def test_a_refused_connection_is_not_retried(monkeypatch):
    connects = _counting_connects(monkeypatch)
    client = ServiceClient(port=_free_port(), timeout=2.0)
    with pytest.raises(ServiceError) as err:
        client.health()
    assert err.value.status == 0
    assert len(connects) == 1


# -- worker leases ------------------------------------------------------------


def _sleep_forever():
    time.sleep(3600)


def _make_sleeper():
    context = make_context()
    process = context.Process(target=_sleep_forever, daemon=True)
    process.start()
    return process


def test_lease_detects_job_timeout():
    process = _make_sleeper()
    try:
        lease = WorkerLease(process, job_timeout=0.05, lease_timeout=None)
        time.sleep(0.1)
        assert lease.overdue() == "timeout"
    finally:
        process.kill()
        process.join()


def test_lease_detects_missed_heartbeats_and_touch_resets():
    process = _make_sleeper()
    try:
        lease = WorkerLease(process, job_timeout=None, lease_timeout=0.2)
        assert lease.overdue() is None
        time.sleep(0.3)
        assert lease.overdue() == "lease"
        lease.touch()  # a heartbeat arrived: the lease renews
        assert lease.overdue() is None
    finally:
        process.kill()
        process.join()


def test_lease_revoke_kills_the_worker():
    process = _make_sleeper()
    lease = WorkerLease(process, job_timeout=None, lease_timeout=None)
    assert lease.alive()
    lease.revoke(grace_seconds=0.5)
    assert not lease.alive()


def _stubborn_worker(ready) -> None:
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()  # handler installed; revoke may now race us safely
    while True:
        time.sleep(60)


def test_lease_revoke_escalates_to_kill_when_terminate_is_ignored():
    """A worker that shrugs off SIGTERM still dies — by SIGKILL, after the
    grace period."""
    import signal

    context = make_context()
    ready = context.Event()
    process = context.Process(target=_stubborn_worker, args=(ready,), daemon=True)
    process.start()
    try:
        assert ready.wait(20), "stubborn worker never reported ready"
        lease = WorkerLease(process, job_timeout=None, lease_timeout=None)
        start = time.monotonic()
        lease.revoke(grace_seconds=0.5)
        elapsed = time.monotonic() - start
        assert not lease.alive()
        assert elapsed >= 0.4  # terminate was ignored for the full grace window
        assert process.exitcode == -signal.SIGKILL
    finally:
        if process.is_alive():  # pragma: no cover - only on assertion failure
            process.kill()
        process.join()


def test_lease_revoke_of_a_dead_worker_is_idempotent():
    process = _make_sleeper()
    process.kill()
    process.join()
    lease = WorkerLease(process, job_timeout=None, lease_timeout=None)
    lease.revoke()  # must not raise on an already-reaped worker
    assert not lease.alive()
