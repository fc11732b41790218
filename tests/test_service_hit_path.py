"""The service's hit path is a lookup: NF identity and the config's address
from two bounded per-process memos, and a job table that a resubmission loop
cannot grow."""

from __future__ import annotations

import pytest

import repro.nf.registry as registry
import repro.service.server as server_module
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.nf.registry import NF_NAMES, get_nf, nf_identity
from repro.service.server import SynthesisService, config_address
from repro.service.store import ResultStore

SMOKE_CONFIG = {"max_states": 40, "deadline_seconds": None, "search_mode": "beam"}
NF = "lpm-patricia"
SPECS = (*NF_NAMES, "chain:router,fw")


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store that already holds NF's smoke-scale result."""
    store = ResultStore(tmp_path_factory.mktemp("hit-path-store"))
    config = CastanConfig.from_dict(SMOKE_CONFIG)
    result = Castan(config).analyze(get_nf(NF), num_packets=3)
    store.put(store.key_for(get_nf(NF), config, 3), result)
    return store


# -- nf_identity ----------------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS)
def test_identity_and_submit_address_match_a_fresh_compile(spec, tmp_path):
    nf = get_nf(spec)
    assert nf_identity(spec) == (nf.fingerprint(), nf.castan_packet_count)

    store = ResultStore(tmp_path / "store")
    service = SynthesisService(store)
    config = CastanConfig.from_dict(SMOKE_CONFIG)
    for num_packets in (None, nf.castan_packet_count, 3):
        job = service.submit(spec, SMOKE_CONFIG, num_packets)
        assert job.cache_key == store.key_for(nf, config, num_packets)
        assert job.config_hash == config.content_hash()
        assert job.nf_fingerprint == nf.fingerprint()
        assert job.config == config.to_canonical_dict()
    keys = {job.cache_key for job in service.job_list()}
    assert len(keys) == (2 if nf.castan_packet_count != 3 else 1)  # default == explicit default


def test_unknown_specs_raise_the_suggestion_and_are_not_cached():
    nf_identity("lpm-patricia")
    size = nf_identity.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(KeyError) as err:
            nf_identity("lpm-patrica")
        messages.append(err.value.args[0])
    assert messages[0] == messages[1] == "unknown NF 'lpm-patrica'; did you mean 'lpm-patricia'?"
    with pytest.raises(KeyError, match="chain stage 2"):
        nf_identity("chain:router,fw-contrack")
    assert nf_identity.cache_info().currsize == size


def test_client_supplied_chain_specs_cannot_grow_the_memo():
    for index in range(300):
        nf_identity(f"chain:nop@stage{index}")
    info = nf_identity.cache_info()
    assert info.currsize <= info.maxsize == 256


def test_client_supplied_configs_cannot_grow_the_config_memo(tmp_path):
    service = SynthesisService(ResultStore(tmp_path))  # schedulers never started
    for index in range(300):
        service.submit(NF, {**SMOKE_CONFIG, "max_states": 1000 + index}, 3)
    info = config_address.cache_info()
    assert info.currsize <= info.maxsize == 256


def test_identical_submissions_compile_once_and_canonicalise_once(warm_store, monkeypatch):
    compiles, canonicalisations = [], []
    real_get_nf, real_canonical = registry.get_nf, CastanConfig.to_canonical_dict

    def counting_get_nf(name):
        compiles.append(name)
        return real_get_nf(name)

    def counting_canonical(self):
        canonicalisations.append(1)
        return real_canonical(self)

    monkeypatch.setattr(registry, "get_nf", counting_get_nf)
    monkeypatch.setattr(CastanConfig, "to_canonical_dict", counting_canonical)
    nf_identity.cache_clear()
    config_address.cache_clear()
    service = SynthesisService(warm_store)
    jobs = [service.submit(NF, SMOKE_CONFIG, 3) for _ in range(50)]

    assert all(job.cached and job.state == "done" for job in jobs)
    assert compiles == [NF]
    assert len(canonicalisations) == 1
    for memo in (nf_identity.cache_info(), config_address.cache_info()):
        assert (memo.misses, memo.hits) == (1, 49)


# -- bounded job table ----------------------------------------------------------


def test_a_resubmission_loop_cannot_grow_the_job_table(warm_store):
    bound = server_module.MAX_TERMINAL_JOBS
    service = SynthesisService(warm_store)  # schedulers never started: misses stay queued
    live = service.submit(NF, {**SMOKE_CONFIG, "max_states": 41}, 3)
    assert live.state == "queued"
    subscriber = service.subscribe(live.job_id)
    hits = [service.submit(NF, SMOKE_CONFIG, 3) for _ in range(3000)]
    assert all(job.cached for job in hits)

    assert len(service.jobs) == bound + 1  # the newest finished jobs + the live one
    assert len(service._events) == bound + 1
    assert len(service._subscribers) <= 1
    assert service.lookup(live.job_id) is live  # live jobs are never dropped
    assert service.lookup(hits[-1].job_id) is hits[-1]
    assert service.lookup(hits[-bound].job_id) is hits[-bound]
    with pytest.raises(KeyError, match="expired"):
        service.lookup(hits[-bound - 1].job_id)
    with pytest.raises(KeyError, match="unknown job"):
        service.lookup("job-9999")
    assert service.counts() == {"queued": 1, "done": bound}
    service.unsubscribe(live.job_id, subscriber)

    # A live job that finishes joins the bound like any other.
    service.cancel(live.job_id)
    assert live.state == "cancelled"
    assert len(service.jobs) == bound
    assert service.lookup(live.job_id) is live


def test_unsubscribing_the_last_stream_drops_the_subscriber_set(warm_store):
    service = SynthesisService(warm_store)
    job = service.submit(NF, SMOKE_CONFIG, 3)
    first, second = service.subscribe(job.job_id), service.subscribe(job.job_id)
    service.unsubscribe(job.job_id, first)
    assert service._subscribers[job.job_id] == {second}
    service.unsubscribe(job.job_id, second)
    assert job.job_id not in service._subscribers
    service.unsubscribe(job.job_id, second)  # a repeated close is harmless
    assert job.job_id not in service._subscribers
