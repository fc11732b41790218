"""Content-addressed persistence of CASTAN results (the service's cache).

An analysis is a pure function of ``(NF, CastanConfig, num_packets)``: the
engine is deterministic, and how a run executes (in-process or in a
service worker) is not part of the config.  That makes results
*content-addressable*: the store keys each
:class:`~repro.core.castan.CastanResult` by a SHA-256 over :meth:`CastanConfig.content_hash()
<repro.core.config.CastanConfig.content_hash>`, the
:meth:`NetworkFunction.fingerprint()
<repro.nf.base.NetworkFunction.fingerprint>` of the NF it analyzed, and the
resolved packet count — so resubmitting an unchanged job is a cache hit
that costs one ``meta.json`` read, and *any* change to the NF's code, its
metadata or any config knob produces a different address.

On disk, each entry is a directory named by its key::

    <root>/<key[:2]>/<key>/result.pkl   # the pickled CastanResult
    <root>/<key[:2]>/<key>/meta.json    # summary + perf record

``meta.json`` carries the per-job perf record (:func:`perf_record`: label,
NF, states explored, wall seconds, states/sec, best cost, rounds, stop
reason, havocs proved by witness and by search), so a served cache hit
returns the measured performance of the original run for free instead of
re-measuring.

Identity is compared through :func:`canonical_result_digest`, which hashes
every deterministic field of a result and deliberately excludes wall-clock
(``analysis_seconds``), which may differ while the analysis is "the same".
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.core.castan import CastanResult
from repro.core.config import CastanConfig
from repro.core.workload import workload_digest
from repro.nf.base import NetworkFunction

#: Version tag of the result key derivation *and* the stored layout.  Bump
#: on any change to either: old entries then simply miss instead of being
#: deserialised wrongly.
STORE_VERSION = "castan-result-v1"

_HEX_DIGITS = frozenset("0123456789abcdef")


def is_store_key(key: object) -> bool:
    """Whether ``key`` is a store address: 64 lowercase hex digits (a SHA-256).

    Keys name directories and files under the store root, so anything else
    (``..``, a path separator, a short string) is refused before it reaches
    the filesystem.
    """
    return type(key) is str and len(key) == 64 and _HEX_DIGITS.issuperset(key)


def result_address(config_hash: str, nf_fingerprint: str, num_packets: int | None) -> str:
    """The content address of one analysis, from its config's content hash."""
    payload = f"{STORE_VERSION}:{config_hash}:{nf_fingerprint}:{num_packets}"
    return hashlib.sha256(payload.encode()).hexdigest()


def result_key(config: CastanConfig, nf_fingerprint: str, num_packets: int | None) -> str:
    """The content address of one analysis."""
    return result_address(config.content_hash(), nf_fingerprint, num_packets)


def canonical_result_digest(result: CastanResult) -> str:
    """SHA-256 over every deterministic field of a result.

    Two runs of the same ``(NF, config, num_packets)`` must produce equal
    digests (the cache-hit identity test in ``tests/test_service.py`` holds
    the store to exactly that); timing is excluded because it legitimately
    differs between byte-identical analyses.  Why the search stopped
    (``stop_reason``) is left out too: it explains ``states_explored``,
    which is already covered; so is how each reconciled havoc was proved
    (witness or search), which cannot change what was reconciled, and where
    the search's dead states died, which is diagnosis of the search.
    """
    havoc = result.havoc_outcome
    payload = {
        "nf_name": result.nf_name,
        "packets": [
            [p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol]
            for p in result.packets
        ],
        "workload_digest": workload_digest(result.packets),
        "metrics": asdict(result.metrics),
        "states_explored": result.states_explored,
        "completed_paths": result.completed_paths,
        "forks": result.forks,
        "best_state_cost": result.best_state_cost,
        "solver_status": result.solver_status,
        "contention_sets_used": result.contention_sets_used,
        "search_mode": result.search_mode,
        "search_rounds": result.search_rounds,
        "havocs_reconciled": len(havoc.reconciled) if havoc else 0,
        "notes": result.notes,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _reconciliation_counts(result: CastanResult) -> dict:
    """How many havocs a witness proved and how many a model search proved."""
    havoc = result.havoc_outcome
    return {
        "havocs_witnessed": havoc.witnessed if havoc else 0,
        "havocs_searched": havoc.searched if havoc else 0,
    }


def _dead_state_counts(result: CastanResult) -> dict:
    """Where the search's infeasible and error states died, by function."""
    return {
        "infeasible_by_function": dict(result.infeasible_by_function),
        "errors_by_function": dict(result.errors_by_function),
    }


def result_summary(result: CastanResult) -> dict:
    """JSON-safe summary of a result (what the job endpoints return)."""
    return {
        "nf": result.nf_name,
        "summary": result.summary(),
        "packets": [
            [p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol]
            for p in result.packets
        ],
        "flows": result.unique_flows,
        "best_state_cost": result.best_state_cost,
        "states_explored": result.states_explored,
        "search_mode": result.search_mode,
        "search_rounds": result.search_rounds,
        "stop_reason": result.stop_reason,
        "solver_status": result.solver_status,
        "unsolved_reason": result.unsolved_reason,
        "workload_digest": workload_digest(result.packets),
        "result_digest": canonical_result_digest(result),
        **_reconciliation_counts(result),
        **_dead_state_counts(result),
    }


def perf_record(result: CastanResult, label: str = "service") -> dict:
    """The perf record of one job: wall seconds, states/sec, cost, rounds,
    how its reconciled havocs were proved and where its dead states died."""
    wall = result.analysis_seconds
    return {
        "label": label,
        "nf": result.nf_name,
        "states_explored": result.states_explored,
        "wall_seconds": round(wall, 6),
        "states_per_sec": round(result.states_explored / wall, 3) if wall > 0 else None,
        "best_state_cost": result.best_state_cost,
        "search_rounds": result.search_rounds,
        "stop_reason": result.stop_reason,
        **_reconciliation_counts(result),
        **_dead_state_counts(result),
    }


class ResultStore:
    """Filesystem-backed content-addressed store of analysis results."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = os.fspath(self.root)

    # -- addressing -----------------------------------------------------------

    def key_for(
        self, nf: NetworkFunction, config: CastanConfig, num_packets: int | None = None
    ) -> str:
        """Content address of analysing ``nf`` under ``config``.

        ``num_packets`` is resolved the same way :meth:`Castan.analyze`
        resolves it, so an explicit count equal to the NF default addresses
        the same entry as the default.
        """
        resolved = (
            num_packets
            if num_packets is not None
            else config.packets_for(nf.castan_packet_count)
        )
        return result_key(config, nf.fingerprint(), resolved)

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    # -- access ---------------------------------------------------------------

    # A key that is not a store address (is_store_key) is a miss on every read
    # and a ValueError on put.

    def has(self, key: str) -> bool:
        if not is_store_key(key):
            return False
        entry = self._entry_dir(key)
        return (entry / "result.pkl").exists() and (entry / "meta.json").exists()

    def get(self, key: str) -> tuple[CastanResult, dict] | None:
        """Load ``(result, meta)`` for ``key``, or ``None`` when absent."""
        if not self.has(key):
            return None
        entry = self._entry_dir(key)
        result = pickle.loads((entry / "result.pkl").read_bytes())
        meta = json.loads((entry / "meta.json").read_text())
        return result, meta

    def get_meta(self, key: str) -> dict | None:
        """The entry's metadata, or ``None`` unless both entry files exist.

        This is a cache hit's only store access, so it is one ``open`` and
        one ``stat`` on plain strings, with no pathlib probes in between.
        """
        if not is_store_key(key):
            return None
        entry = os.path.join(self._root, key[:2], key)
        try:
            with open(os.path.join(entry, "meta.json"), "rb") as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            return None
        return meta if os.path.exists(os.path.join(entry, "result.pkl")) else None

    def get_pickle(self, key: str) -> bytes | None:
        """The stored result's pickle bytes, unread, or ``None`` when absent."""
        if not self.has(key):
            return None
        return (self._entry_dir(key) / "result.pkl").read_bytes()

    def put(self, key: str, result: CastanResult, perf: dict | None = None) -> dict:
        """Persist a result under ``key``; returns the metadata stored there.

        Writes are atomic (tempfile + rename within the entry's parent), so
        a concurrently reading server never observes a half-written entry,
        and a crash mid-write leaves no entry at all.  Re-putting an
        existing key is allowed and idempotent by construction: the content
        address pins the inputs, and deterministic analysis pins the output.
        A put whose rename finds the entry already written (another writer
        got there first) keeps that entry and returns its metadata, with
        the first writer's perf record.
        """
        if not is_store_key(key):
            raise ValueError(f"not a store key: {key!r}")
        entry = self._entry_dir(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "store_version": STORE_VERSION,
            "key": key,
            "result": result_summary(result),
            "perf": perf or perf_record(result),
        }
        with tempfile.TemporaryDirectory(dir=self.root) as staging:
            staged = Path(staging) / key
            staged.mkdir()
            (staged / "result.pkl").write_bytes(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            )
            (staged / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
            try:
                staged.replace(entry)
            except OSError:
                # Renaming onto a written entry fails (it is a non-empty
                # directory): another writer got there first with identical
                # content.  Anything else is a real error.
                stored = self.get_meta(key)
                if stored is None:
                    raise
                return stored
        return meta

    def keys(self) -> list[str]:
        """Every stored key (sorted, for stable listings)."""
        return sorted(
            path.name
            for shard in self.root.iterdir()
            if shard.is_dir() and len(shard.name) == 2
            for path in shard.iterdir()
            if path.is_dir()
        )

    def __len__(self) -> int:
        return len(self.keys())

    # -- signature shelf ------------------------------------------------------
    #
    # Distilled signature sets (repro.scoring) live beside the results they
    # were distilled from, addressed by SignatureSet.store_key() — a function
    # of the NF fingerprint, the source result's canonical digest and the
    # distillation config's hash, the same derivation discipline as
    # result_key().  The shelf is a sibling
    # directory ("sig/", three characters), so keys() — which only walks
    # two-character shards — never lists signature entries as results.

    def _signature_path(self, key: str) -> Path | None:
        if not is_store_key(key):
            return None
        return self.root / "sig" / key[:2] / f"{key}.json"

    def put_signatures(self, signature_set) -> str:
        """Persist one distilled signature set; returns its store key."""
        key = signature_set.store_key()
        path = self._signature_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False
        ) as staged:
            staged.write(signature_set.to_json())
        Path(staged.name).replace(path)
        return key

    def get_signatures(self, key: str):
        """Load a stored signature set by key, or ``None`` when absent."""
        from repro.scoring.signatures import signature_set_from_json

        path = self._signature_path(key)
        if path is None or not path.exists():
            return None
        return signature_set_from_json(path.read_text())

    def signature_keys(self) -> list[str]:
        """Every stored signature-set key (sorted)."""
        shelf = self.root / "sig"
        if not shelf.is_dir():
            return []
        return sorted(path.stem for path in shelf.glob("*/*.json"))
