"""Preimage tables for inverting the NF flow hash, ``flow_hash16`` (§3.5).

The keys of a table are *generated* the way a rainbow table generates them:
chains of alternating hash and *reduction* steps from random start keys.
The reduction function maps a hash value (plus the chain position, to avoid
chain merges) back into the *key space*.  CASTAN exploits this degree of
freedom for "custom-tailored" tables: by sampling keys that already satisfy
packet constraints (e.g. UDP only, ports in range), the recovered preimages
are far more likely to survive the solver's compatibility check (§3.5).

A classic rainbow table keeps only each chain's start key and end hash and
pays for that at lookup time (tail walks, false alarms).  This table keeps
every chain key (1 MiB at the default size), so a lookup is exact: the
stored keys whose hash equals the target, visited in the order a chain
lookup would reach them.  The flow table persists its keys together with
that lookup index, so a process that loads it hashes and sorts nothing.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import sys
import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.hashing.functions import (
    FLOW_HASH_BITS,
    FLOW_HASH_MASK,
    flow_hash16,
    flow_hash16_column,
    flow_key,
)
from repro.symbex.expr import load_numpy

KeySampler = Callable[[int], int]

logger = logging.getLogger(__name__)

#: Identity of the code that computes a flow table's key matrix.  Bump it
#: whenever ``flow_hash16``, a key sampler, ``RainbowTable._reduce``, the
#: lookup index or the file layout changes: persisted tables are only valid
#: for the code that built them (``tests/test_hashing.py`` pins the default
#: table's digests so a silent change fails tier-1).
TABLE_CACHE_VERSION = "castan-rainbow-v2"


@dataclass
class RainbowTableStats:
    """Construction/lookup statistics (exposed for the ablation bench)."""

    chains: int = 0
    chain_length: int = 0
    lookups: int = 0
    #: Stored keys a lookup examined; each is a true preimage of its target.
    chain_walks: int = 0
    #: Always 0 (lookups are exact); kept because the benchmark reads it by name.
    false_alarms: int = 0
    #: Distinct keys returned (``chain_walks`` minus repeats of a merged chain).
    inversions: int = 0
    #: Provenance, not behaviour (never part of a digest): whether the key
    #: matrix was ``"built"`` or ``"loaded"`` from the on-disk cache, and the
    #: wall time constructing the table took either way.
    source: str = "built"
    build_seconds: float = 0.0


def _hash_column(keys) -> array:
    """``flow_hash16`` of a column of keys (one numpy pass when numpy is there)."""
    if flow_hash16_column is None:
        return array("Q", map(flow_hash16, keys))
    return flow_hash16_column(keys)


class RainbowTable:
    """An exact ``flow_hash16`` preimage table over rainbow-chain keys of a key space."""

    def __init__(
        self,
        key_sampler: KeySampler,
        chain_length: int = 64,
        num_chains: int = 2048,
        seed: int = 0xB0B,
        keys: array | None = None,
        preimages: tuple[array, array] | None = None,
    ) -> None:
        """Build the table, or adopt ``keys`` — a chain-key matrix an earlier
        build with these exact parameters produced — and ``preimages``, that
        build's :meth:`_sorted_preimages` (both trusted, not re-derived)."""
        if chain_length < 2:
            raise ValueError("chain_length must be at least 2")
        started = time.perf_counter()
        self.key_sampler = key_sampler
        self.chain_length = chain_length
        self.num_chains = num_chains
        self._seed = seed
        self.stats = RainbowTableStats(chains=num_chains, chain_length=chain_length)
        # Every key of every chain, position-major: the key at ``position``
        # of chain ``c`` is ``_keys[position * num_chains + c]``.
        if keys is None:
            keys = self._build_keys()
        else:
            self.stats.source = "loaded"
        self._keys = keys
        # (hashes, keys) sorted by hash; unless adopted, derived on the first
        # lookup: an analysis without havocs never hashes the matrix.
        self._preimages = preimages
        self.stats.build_seconds = time.perf_counter() - started
        logger.info(
            "rainbow table (%d chains x %d) %s in %.3f s",
            num_chains,
            chain_length,
            self.stats.source,
            self.stats.build_seconds,
        )

    # -- construction -----------------------------------------------------------

    def _reduce(self, hash_value: int, position: int) -> int:
        """Map a hash value (at chain position) back into the key space."""
        seed = (hash_value * 0x9E3779B97F4A7C15 + position * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
        return self.key_sampler(seed)

    def _build_keys(self) -> array:
        """Walk every chain, keeping each key (64-bit key spaces only).

        Chains advance in lockstep, one position at a time, so each
        position's hashes run as one column; reductions stay scalar (the
        sampler's Mersenne stream has no columnar form).  Position-major and
        chain-major walks call the same pure (hash, position) reductions, so
        the matrix does not depend on the order.
        """
        rng = random.Random(self._seed)
        column = [self.key_sampler(rng.getrandbits(64)) for _ in range(self.num_chains)]
        keys = array("Q", column)
        for position in range(self.chain_length - 1):
            hashes = _hash_column(column)
            # Chains that merged at this position share one reduction (a
            # quarter of the sampler calls at the default size).
            reduced = {h: self._reduce(h, position) for h in set(hashes)}
            column = [reduced[h] for h in hashes]
            keys.extend(column)
        return keys

    # -- inversion ---------------------------------------------------------------

    def invert(self, target_hash: int, limit: int = 8) -> list[int]:
        """Up to ``limit`` distinct stored keys ``k`` with ``flow_hash16(k) == target_hash``.

        Keys come in the order a chain lookup reaches them: chain position
        descending (cheapest tail first), then chain number ascending.
        """
        target_hash &= FLOW_HASH_MASK
        self.stats.lookups += 1
        if self._preimages is None:
            # Two threads racing here build equal tuples; either may win.
            self._preimages = self._sorted_preimages()
        hashes, keys = self._preimages
        first = bisect_left(hashes, target_hash)
        found: dict[int, None] = {}
        for key in keys[first : bisect_right(hashes, target_hash, first)]:
            self.stats.chain_walks += 1
            if key not in found:  # merged chains store a key more than once
                found[key] = None
                self.stats.inversions += 1
                if len(found) >= limit:
                    break
        return list(found)

    def _sorted_preimages(self) -> tuple[array, array]:
        """Every stored key with its hash, as two columns sorted by hash.

        Both sorts are stable over the lookup order, so keys of equal hash
        stay in it.  Without numpy the hashes are one scalar loop (about
        0.5 s at the default size, once per table).
        """
        chains = self.num_chains
        keys = array("Q")
        for position in range(self.chain_length - 1, -1, -1):
            keys.extend(self._keys[position * chains : (position + 1) * chains])
        hashes = _hash_column(keys)
        np = load_numpy()
        if np is not None:
            # numpy's stable radix sort orders the default table in 2 ms,
            # ``sorted`` in 40.
            narrow = np.min_scalar_type(FLOW_HASH_MASK)
            order = np.argsort(np.frombuffer(hashes, dtype=np.uint64).astype(narrow), kind="stable")
            return tuple(
                array("Q", np.frombuffer(column, dtype=np.uint64)[order].tobytes())
                for column in (hashes, keys)
            )
        order = sorted(range(len(keys)), key=hashes.__getitem__)
        return tuple(array("Q", map(column.__getitem__, order)) for column in (hashes, keys))

    # -- introspection ------------------------------------------------------------

    def coverage_estimate(self, samples: int = 512, seed: int = 3) -> float:
        """Fraction of random target hashes that can be inverted (ablation metric)."""
        rng = random.Random(seed)
        successes = 0
        for _ in range(samples):
            target = rng.getrandbits(FLOW_HASH_BITS)
            if self.invert(target, limit=1):
                successes += 1
        return successes / samples


# -- samplers and prebuilt tables -------------------------------------------------


def generic_key_sampler(seed: int) -> int:
    """Uniformly random 64-bit keys (the *untailored* table of the ablation)."""
    return seed & ((1 << 64) - 1)


#: Reused generators for :func:`udp_flow_key_sampler`, one per thread (a
#: library caller may run analyses from several threads, and interleaved
#: ``seed()``/``getrandbits()`` calls on one generator would corrupt keys).
#: ``Random.seed(n)`` resets the full Mersenne Twister state exactly like
#: ``Random(n)`` does, so reusing an instance is draw-for-draw identical to
#: constructing a fresh one — it just skips the per-call object allocation.
_SAMPLER_LOCAL = threading.local()

_SERVICE_PORTS = (53, 80, 123, 443, 8080, 8443)


def udp_flow_key_sampler(seed: int) -> int:
    """Tailored sampler: keys that look like UDP flow keys (§3.5).

    The packed layout matches :func:`repro.hashing.functions.flow_key`:
    a private-range source IP, an ephemeral source port and a small set of
    plausible service ports — so decomposed preimages satisfy the typical
    packet constraints without rejection.

    The draws inline ``Random.randrange``/``Random.choice`` as raw
    ``getrandbits`` rejection loops (the exact ``_randbelow`` algorithm), so
    the value stream is bit-identical to the naive implementation —
    ``tests/test_hashing.py`` pins this equivalence against a reference.
    """
    try:
        rng = _SAMPLER_LOCAL.rng
    except AttributeError:
        rng = _SAMPLER_LOCAL.rng = random.Random()
    rng.seed(seed)
    gb = rng.getrandbits
    src_ip = 0x0A000000 | gb(24)  # 10.0.0.0/8
    # randrange(60000): 16-bit draws rejected until < 60000.
    r = gb(16)
    while r >= 60000:
        r = gb(16)
    src_port = 1024 + r
    # choice(6-tuple): 3-bit draws rejected until < 6.
    c = gb(3)
    while c >= 6:
        c = gb(3)
    return flow_key(src_ip, src_port, _SERVICE_PORTS[c])


def _cache_dir() -> Path:
    """Where flow tables persist: ``$XDG_CACHE_HOME`` (or ``~/.cache``) ``/castan-repro``."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "castan-repro"


def _cache_header(identity: str, payload: bytes) -> bytes:
    """First line of a cache file: the build parameters and the payload's sha256."""
    return f"{identity} {hashlib.sha256(payload).hexdigest()}\n".encode("ascii")


def _load_keys(path: Path, identity: str, count: int) -> tuple[array, array, array] | None:
    """The ``(keys, hashes, sorted keys)`` columns persisted at ``path``, or None.

    None when the file is absent or fails validation.  Each column holds
    ``count`` native-endian u64 words: the position-major key matrix, then
    the hash-sorted lookup index of :meth:`RainbowTable._sorted_preimages`.
    """
    try:
        header, newline, payload = path.read_bytes().partition(b"\n")
    except OSError:
        return None  # not cached yet (or unreadable): build
    if header + newline != _cache_header(identity, payload) or len(payload) != 3 * 8 * count:
        logger.warning(
            "rainbow table cache %s failed its checksum/size/parameter check; rebuilding", path
        )
        return None
    words = array("Q")
    words.frombytes(payload)
    logger.info("rainbow table loaded from %s", path)
    return words[:count], words[count : 2 * count], words[2 * count :]


def _store_keys(path: Path, identity: str, columns: Iterable[array]) -> None:
    """Persist ``columns`` atomically (temp file + ``os.replace``; mkstemp files are 0600)."""
    import tempfile  # only the one building run per machine pays this import

    payload = b"".join(column.tobytes() for column in columns)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, staged = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(_cache_header(identity, payload) + payload)
            os.replace(staged, path)
        except BaseException:
            os.unlink(staged)
            raise
    except OSError as error:
        logger.warning(
            "rainbow table cache %s is not writable (%s); table kept in memory only", path, error
        )


#: Chain length of the analysis's rainbow tables.
FLOW_TABLE_CHAIN_LENGTH = 32


def build_flow_rainbow_table(
    tailored: bool = True,
    chain_length: int = FLOW_TABLE_CHAIN_LENGTH,
    num_chains: int = 4096,
    seed: int = 0xB0B,
) -> RainbowTable:
    """The rainbow table used for the NAT/LB flow hash, built once per machine.

    The chain-key matrix and its lookup index are pure functions of the
    parameters below and the code named by :data:`TABLE_CACHE_VERSION`, so
    they persist under :func:`_cache_dir` and later processes load them
    instead of re-deriving them.
    """
    sampler = udp_flow_key_sampler if tailored else generic_key_sampler
    identity = (
        f"{TABLE_CACHE_VERSION}:flow_hash16:{FLOW_HASH_BITS}:{sampler.__name__}"
        f":{chain_length}:{num_chains}:{seed}:{sys.byteorder}"
    )
    path = _cache_dir() / f"{hashlib.sha256(identity.encode('ascii')).hexdigest()}.keys"
    count = chain_length * num_chains
    keys, hashes, sorted_keys = _load_keys(path, identity, count) or (None,) * 3
    table = RainbowTable(
        key_sampler=sampler,
        chain_length=chain_length,
        num_chains=num_chains,
        seed=seed,
        keys=keys,
        preimages=None if keys is None else (hashes, sorted_keys),
    )
    if keys is None:
        table._preimages = table._sorted_preimages()
        _store_keys(path, identity, (table._keys, *table._preimages))
    return table
