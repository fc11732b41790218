"""Tests for the flow hash, key packing and rainbow-table inversion."""

import hashlib
import logging
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.compiler import compile_nf
from repro.hashing.functions import (
    FLOW_HASH_BITS,
    FLOW_HASH_DIALECT_SOURCE,
    flow_hash16,
    flow_hash16_column,
    lb_flow_key,
    lb_key_fields,
    nat_forward_key,
    nat_key_fields,
    nat_reverse_key,
)
from repro.hashing.rainbow import (
    TABLE_CACHE_VERSION,
    RainbowTable,
    RainbowTableStats,
    build_flow_rainbow_table,
    generic_key_sampler,
    udp_flow_key_sampler,
)
from repro.ir.module import Module
from repro.perf.interpreter import ConcreteInterpreter


class TestFlowHash:
    def test_output_width(self):
        for key in (0, 1, 2**64 - 1, 0xDEADBEEF):
            assert 0 <= flow_hash16(key) < (1 << FLOW_HASH_BITS)

    def test_deterministic(self):
        assert flow_hash16(12345) == flow_hash16(12345)

    def test_spreads_over_buckets(self):
        buckets = {flow_hash16(k) % 256 for k in range(2000)}
        assert len(buckets) > 200

    def test_dialect_source_matches_python(self):
        module = Module("hash")
        compile_nf(module, FLOW_HASH_DIALECT_SOURCE, entry="flow_hash16")
        interpreter = ConcreteInterpreter(module, "flow_hash16")
        rng = random.Random(7)
        for _ in range(200):
            key = rng.getrandbits(64)
            assert interpreter.call_function("flow_hash16", [key]) == flow_hash16(key)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=50)
    def test_key_packing_roundtrip(self, ip, sport, dport):
        assert lb_key_fields(lb_flow_key(ip, sport, dport)) == (ip, sport, dport)
        assert nat_key_fields(nat_forward_key(ip, sport, dport)) == (ip, sport, dport)
        assert nat_key_fields(nat_reverse_key(ip, sport, dport)) == (ip, sport, dport)

    def test_nat_keys_share_external_endpoint(self):
        forward = nat_forward_key(0x0A000001, 1234, 80)
        reverse = nat_reverse_key(0x08080808, 80, 20000)
        # The reverse key embeds the destination endpoint of the forward flow.
        assert nat_key_fields(reverse)[1] == nat_key_fields(forward)[2]


class TestFlowHashColumn:
    """The columnar flow hash pinned bit-exact against the scalar reference."""

    def test_column_matches_scalar(self):
        if flow_hash16_column is None:
            pytest.skip("numpy not installed (the [vector] extra)")
        rng = random.Random(17)
        keys = [0, 1, 2**64 - 1, 0xDEADBEEF] + [rng.getrandbits(64) for _ in range(2000)]
        assert list(flow_hash16_column(keys)) == [flow_hash16(k) for k in keys]

    def test_column_returns_python_ints(self):
        if flow_hash16_column is None:
            pytest.skip("numpy not installed (the [vector] extra)")
        for value in flow_hash16_column([3, 2**63]):
            assert type(value) is int

    def test_empty_column(self):
        if flow_hash16_column is None:
            pytest.skip("numpy not installed (the [vector] extra)")
        assert list(flow_hash16_column([])) == []


class TestTailoredSamplerStream:
    """The inlined getrandbits rejection loops match the naive implementation.

    ``udp_flow_key_sampler`` hand-inlines ``Random.randrange(60000)`` and
    ``Random.choice`` as raw ``getrandbits`` rejection loops; the rainbow
    build's lockstep hoisting relies on the sampler being a pure function of
    its seed.  This pins the stream draw-for-draw against a fresh
    ``random.Random`` running the naive calls.
    """

    @staticmethod
    def _naive_reference(seed: int) -> int:
        service_ports = (53, 80, 123, 443, 8080, 8443)
        rng = random.Random(seed)
        src_ip = 0x0A000000 | rng.getrandbits(24)
        src_port = 1024 + rng.randrange(60000)
        return lb_flow_key(src_ip, src_port, rng.choice(service_ports))

    def test_matches_naive_reference(self):
        rng = random.Random(23)
        seeds = [0, 1, 2**64 - 1] + [rng.getrandbits(64) for _ in range(3000)]
        for seed in seeds:
            assert udp_flow_key_sampler(seed) == self._naive_reference(seed)

    def test_pure_function_of_seed(self):
        # The reused per-thread Random must not leak state across calls.
        first = udp_flow_key_sampler(99)
        udp_flow_key_sampler(12345)
        assert udp_flow_key_sampler(99) == first

    def test_two_threads_never_corrupt_each_other(self):
        """A library caller may analyse from threads: a generator shared
        between them would interleave ``seed()`` and ``getrandbits()``."""
        seeds = [random.Random(t).getrandbits(64) for t in range(2)]
        expected = [self._naive_reference(seed) for seed in seeds]
        mismatches: list[int] = []
        start = threading.Barrier(2)

        def hammer(slot: int) -> None:
            start.wait(timeout=10)
            for _ in range(20_000):
                if udp_flow_key_sampler(seeds[slot]) != expected[slot]:
                    mismatches.append(slot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


class TestRainbowTable:
    @pytest.fixture(scope="class")
    def table(self):
        return build_flow_rainbow_table(tailored=True, chain_length=24, num_chains=1500, seed=5)

    def test_inversion_produces_real_preimages(self, table):
        rng = random.Random(3)
        successes = 0
        for _ in range(40):
            key = udp_flow_key_sampler(rng.getrandbits(64))
            target = flow_hash16(key)
            for candidate in table.invert(target, limit=4):
                assert flow_hash16(candidate) == target
                successes += 1
                break
        assert successes > 10  # coverage is probabilistic but must be substantial

    def test_tailored_keys_look_like_udp_flows(self, table):
        key = table.invert(flow_hash16(udp_flow_key_sampler(1)), limit=1)
        if key:
            src_ip, src_port, dst_port = lb_key_fields(key[0])
            assert (src_ip >> 24) == 0x0A
            assert 1024 <= src_port < 65536
            assert dst_port in (53, 80, 123, 443, 8080, 8443)

    def test_coverage_estimate_nontrivial(self, table):
        assert table.coverage_estimate(samples=60, seed=2) > 0.2

    def test_stats_recorded(self, table):
        before = table.stats.lookups
        table.invert(123, limit=1)
        assert table.stats.lookups == before + 1
        assert table.stats.chains == 1500

    def test_rejects_degenerate_chain_length(self):
        with pytest.raises(ValueError):
            RainbowTable(flow_hash16, generic_key_sampler, chain_length=1)

    def test_lockstep_build_matches_per_chain_build(self):
        """The columnar (position-major) build yields the identical table.

        Passing ``flow_hash16`` through a wrapper defeats the ``is`` check
        in ``RainbowTable._hash_column``, forcing one scalar hash call per
        key — both must produce the same key matrix and the same hash column.
        """
        kwargs = dict(
            key_sampler=udp_flow_key_sampler, chain_length=8, num_chains=300, seed=9
        )
        columnar = RainbowTable(hash_fn=flow_hash16, **kwargs)
        scalar = RainbowTable(hash_fn=lambda k: flow_hash16(k), **kwargs)
        assert columnar._keys == scalar._keys
        assert columnar._hash_column(columnar._keys) == scalar._hash_column(scalar._keys)
        assert columnar._sorted_preimages() == scalar._sorted_preimages()


class _ChainWalkLookup:
    """The lookup this table had before it became an exact preimage lookup.

    ``invert``, ``_tail`` and ``_walk_chain`` are the previous revision's,
    verbatim, over the table's own key matrix: walk the target's tail from
    every chain position to a stored end hash, then test the key at that
    position of every chain ending there.  The reference the exact lookup
    must equal — same keys, same order, same truncation.
    """

    _MEMO_LIMIT = 1 << 20  # the one edit: large enough that the exhaustive case never clears it

    def __init__(self, table: RainbowTable) -> None:
        self.hash_fn = table.hash_fn
        self.hash_mask = table.hash_mask
        self.chain_length = table.chain_length
        self.num_chains = table.num_chains
        self._reduce = table._reduce
        self._keys = table._keys
        self.stats = RainbowTableStats()
        self._tail_memo: dict[tuple[int, int], int] = {}
        self._chains: dict[int, list[int]] = {}
        for chain, key in enumerate(self._keys[-self.num_chains :]):
            self._chains.setdefault(self.hash_fn(key) & self.hash_mask, []).append(chain)

    def invert(self, target_hash: int, limit: int = 8) -> list[int]:
        target_hash &= self.hash_mask
        self.stats.lookups += 1
        found: list[int] = []
        seen: set[int] = set()
        for position in range(self.chain_length - 1, -1, -1):
            end_hash = self._tail(target_hash, position)
            for chain in self._chains.get(end_hash, ()):
                self.stats.chain_walks += 1
                key = self._walk_chain(chain, position)
                if self.hash_fn(key) & self.hash_mask != target_hash:
                    self.stats.false_alarms += 1
                    continue
                if key not in seen:
                    seen.add(key)
                    found.append(key)
                    self.stats.inversions += 1
                    if len(found) >= limit:
                        return found
        return found

    def _tail(self, hash_value: int, position: int) -> int:
        memo = self._tail_memo
        stack: list[tuple[int, int]] = []
        last = self.chain_length - 1
        while position < last:
            cached = memo.get((hash_value, position))
            if cached is not None:
                hash_value = cached
                break
            stack.append((hash_value, position))
            hash_value = self.hash_fn(self._reduce(hash_value, position)) & self.hash_mask
            position += 1
        if stack:
            if len(memo) >= self._MEMO_LIMIT:
                memo.clear()
            for entry in stack:
                memo[entry] = hash_value
        return hash_value

    def _walk_chain(self, chain: int, position: int) -> int:
        return self._keys[position * self.num_chains + chain]


class TestExactLookupEqualsChainWalk:
    """``RainbowTable.invert`` against :class:`_ChainWalkLookup` on the same matrix."""

    LIMITS = (1, 4, 16)

    @staticmethod
    def _case(chain_length: int, num_chains: int, seed: int, targets: list[int]):
        table = RainbowTable(
            flow_hash16, udp_flow_key_sampler, chain_length=chain_length,
            num_chains=num_chains, seed=seed,
        )
        reference = _ChainWalkLookup(table)
        expected = [reference.invert(t, limit) for t in targets for limit in TestExactLookupEqualsChainWalk.LIMITS]
        return table, targets, expected, reference.stats

    @pytest.fixture(scope="class")
    def sampled(self):
        """A 1500 x 24 tailored table over 2 000 seeded targets."""
        rng = random.Random(41)
        return self._case(24, 1500, 5, [rng.getrandbits(FLOW_HASH_BITS) for _ in range(2000)])

    @pytest.fixture(scope="class")
    def exhaustive(self):
        """A 300 x 8 table over every 16-bit target."""
        return self._case(8, 300, 9, list(range(1 << FLOW_HASH_BITS)))

    @pytest.mark.parametrize("case", ["sampled", "exhaustive"])
    @pytest.mark.parametrize("variant", ["numpy", "no-numpy", "callable"])
    def test_same_candidates_same_order_same_truncation(self, request, monkeypatch, case, variant):
        built, targets, expected, reference_stats = request.getfixturevalue(case)
        if variant == "numpy" and flow_hash16_column is None:
            pytest.skip("numpy not installed (the [vector] extra)")
        if variant == "no-numpy":
            monkeypatch.setattr("repro.hashing.rainbow.flow_hash16_column", None)
        table = RainbowTable(
            (lambda k: flow_hash16(k)) if variant == "callable" else flow_hash16,
            udp_flow_key_sampler,
            chain_length=built.chain_length,
            num_chains=built.num_chains,
            keys=built._keys,
        )
        assert [table.invert(t, limit) for t in targets for limit in self.LIMITS] == expected
        stats = table.stats
        assert (stats.lookups, stats.inversions) == (reference_stats.lookups, reference_stats.inversions)
        # What is left of a chain walk: the stored keys that were true hits.
        assert stats.false_alarms == 0
        assert stats.chain_walks == reference_stats.chain_walks - reference_stats.false_alarms

    def test_table_without_lookups_never_hashes_its_matrix(self):
        table = RainbowTable(flow_hash16, udp_flow_key_sampler, chain_length=4, num_chains=16)
        assert table._preimages is None
        table.invert(7)
        assert table._preimages is not None


def _forbidden(*args, **kwargs):
    raise AssertionError("a loaded flow table must not re-derive its index")


def _behaviour(table: RainbowTable, targets) -> tuple:
    """Everything observable about a table: inversions and the counts they leave."""
    found = [table.invert(target, limit=4) for target in targets]
    stats = {k: v for k, v in vars(table.stats).items() if k not in ("source", "build_seconds")}
    return found, stats


class TestFlowTablePersistence:
    """``build_flow_rainbow_table`` builds once per machine, then loads."""

    SMALL = dict(chain_length=12, num_chains=400, seed=21)
    LOGGER = "repro.hashing.rainbow"

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch) -> Path:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        return tmp_path / "castan-repro"

    @pytest.mark.parametrize("tailored", [True, False])
    def test_loaded_table_equals_fresh_build(self, cache_dir, tailored):
        built = build_flow_rainbow_table(tailored=tailored, **self.SMALL)
        loaded = build_flow_rainbow_table(tailored=tailored, **self.SMALL)
        assert (built.stats.source, loaded.stats.source) == ("built", "loaded")
        assert loaded._keys == built._keys
        assert loaded._hash_column(loaded._keys) == built._hash_column(built._keys)
        rng = random.Random(8)
        targets = [rng.getrandbits(FLOW_HASH_BITS) for _ in range(200)]
        assert _behaviour(loaded, targets) == _behaviour(built, targets)
        (cached,) = cache_dir.iterdir()
        assert cached.stat().st_mode & 0o777 == 0o600

    @pytest.mark.parametrize("tailored", [True, False])
    def test_loaded_index_equals_a_fresh_derivation(self, cache_dir, tailored, monkeypatch):
        build_flow_rainbow_table(tailored=tailored, **self.SMALL)
        # A loaded table adopts the persisted index: it hashes and sorts nothing.
        with monkeypatch.context() as patch:
            for name in ("_hash_column", "_sorted_preimages"):
                patch.setattr(RainbowTable, name, _forbidden)
            loaded = build_flow_rainbow_table(tailored=tailored, **self.SMALL)
            loaded.invert(7)
        assert loaded.stats.source == "loaded"
        assert loaded._preimages == loaded._sorted_preimages()
        sampler = udp_flow_key_sampler if tailored else generic_key_sampler
        fresh = RainbowTable(flow_hash16, sampler, **self.SMALL)
        assert loaded._preimages == fresh._sorted_preimages()

    def test_arbitrary_callables_never_touch_disk(self, cache_dir):
        RainbowTable(lambda k: flow_hash16(k), generic_key_sampler, chain_length=4, num_chains=16)
        assert not cache_dir.exists()

    @pytest.mark.parametrize(
        "damage",
        ["truncate", "bitflip", "matrix-bitflip", "hash-bitflip", "other-parameters", "empty"],
    )
    def test_invalid_file_warns_and_is_rebuilt(self, cache_dir, caplog, damage):
        reference = build_flow_rainbow_table(**self.SMALL)
        (cached,) = cache_dir.iterdir()
        raw = cached.read_bytes()
        # Payload columns: key matrix, index hashes, index keys ("bitflip"
        # hits the last index key, "hash-bitflip" an index hash).
        column = 8 * self.SMALL["chain_length"] * self.SMALL["num_chains"]
        at = {"bitflip": -9, "matrix-bitflip": -3 * column, "hash-bitflip": -column - 8}.get(damage)
        if damage == "truncate":
            cached.write_bytes(raw[: len(raw) // 2])
        elif at is not None:
            cached.write_bytes(raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1 :])
        elif damage == "empty":
            cached.write_bytes(b"")
        else:
            # A self-consistent file of another table, under this table's name.
            build_flow_rainbow_table(**{**self.SMALL, "seed": 22})
            (other,) = (path for path in cache_dir.iterdir() if path != cached)
            cached.write_bytes(other.read_bytes())
        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            rebuilt = build_flow_rainbow_table(**self.SMALL)
        assert "failed its checksum/size/parameter check" in caplog.text
        assert rebuilt.stats.source == "built" and rebuilt._keys == reference._keys
        assert rebuilt._preimages == reference._preimages
        assert cached.read_bytes() == raw  # overwritten with the valid file
        assert build_flow_rainbow_table(**self.SMALL).stats.source == "loaded"

    def test_unwritable_cache_dir_warns_and_builds_in_memory(self, cache_dir, caplog):
        # A plain file where the directory should be: unwritable for any uid.
        cache_dir.write_text("in the way")
        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            table = build_flow_rainbow_table(**self.SMALL)
        assert "is not writable" in caplog.text
        assert table.stats.source == "built"
        assert table._keys == RainbowTable(flow_hash16, udp_flow_key_sampler, **self.SMALL)._keys
        assert cache_dir.read_text() == "in the way"

    def test_build_and_load_are_logged(self, cache_dir, caplog):
        with caplog.at_level(logging.INFO, logger=self.LOGGER):
            build_flow_rainbow_table(**self.SMALL)
            build_flow_rainbow_table(**self.SMALL)
        messages = [record.getMessage() for record in caplog.records]
        assert any(" built in " in message for message in messages)
        assert any(f"loaded from {cache_dir}" in message for message in messages)

    def test_two_processes_racing_on_a_cold_cache_both_succeed(self, cache_dir):
        script = (
            "import hashlib\n"
            "from repro.hashing.rainbow import build_flow_rainbow_table\n"
            f"table = build_flow_rainbow_table(**{self.SMALL!r})\n"
            "print(hashlib.sha256(table._keys.tobytes()).hexdigest())\n"
        )
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
            for _ in range(2)
        ]
        outputs = [racer.communicate(timeout=60) for racer in racers]
        assert [racer.returncode for racer in racers] == [0, 0], outputs
        loaded = build_flow_rainbow_table(**self.SMALL)
        assert loaded.stats.source == "loaded"
        digest = hashlib.sha256(loaded._keys.tobytes()).hexdigest()
        assert [out.strip() for out, _ in outputs] == [digest, digest]
        assert [path.suffix for path in cache_dir.iterdir()] == [".keys"]  # no staging leftovers

    def test_default_table_digest_is_pinned(self):
        """Persisted tables outlive the code that built them.

        If this fails, the sampler, the flow hash, the reduction or the
        lookup index changed: bump ``TABLE_CACHE_VERSION`` (so stale files
        stop matching) and repin the values here.
        """
        table = RainbowTable(
            flow_hash16, udp_flow_key_sampler, chain_length=32, num_chains=4096, seed=0xB0B
        )

        def digest(*columns):
            payload = hashlib.sha256()
            for column in columns:
                if sys.byteorder == "big":
                    column = column[:]
                    column.byteswap()
                payload.update(column.tobytes())
            return payload.hexdigest()

        assert (
            TABLE_CACHE_VERSION,
            digest(table._keys),
            digest(*table._sorted_preimages()),
        ) == (
            "castan-rainbow-v2",
            "849d96b34b271715cd3daa71399ce117b8e98291fee2c7b8fc3b72fceda66553",
            "3a4a24676bdb02adf559724cb7734d2717ee3d9387555e40953e292fcf4fb58d",
        )
