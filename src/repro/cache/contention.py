"""Probing-based reverse engineering of L3 contention sets (§3.2).

A *contention set* is a set of addresses such that bringing ``associativity``
of them into an empty L3 causes no eviction, while one more evicts a
previously loaded line.  Because the slice-selection hash is proprietary
(hidden inside :class:`~repro.cache.hierarchy.MemoryHierarchy`), the sets
are discovered empirically by timing probe loops, exactly as the paper
describes:

1. grow a set ``S`` until adding some address ``A`` raises the probing time
   by more than the contention threshold δ — at that point ``S`` holds
   ``associativity + 1`` addresses of some contention set ``C``;
2. shrink ``S`` to exactly those ``associativity + 1`` addresses by removing
   every address whose removal does not lower the probing time;
3. classify every remaining candidate address by substituting it into ``S``
   and checking whether the probing time stays high.

The discovery can be repeated over several "process runs" (different page
mappings); only groups of addresses that stay co-resident in the same set
across every run are retained, mirroring the paper's consistency filter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cache.hierarchy import MemoryHierarchy


@dataclass
class ContentionSets:
    """Discovered contention sets over a pool of (virtual) addresses."""

    associativity: int
    line_size: int
    sets: list[list[int]] = field(default_factory=list)
    source: str = "probing"

    def __post_init__(self) -> None:
        self._set_of_address: dict[int, int] = {}
        for set_id, addresses in enumerate(self.sets):
            for address in addresses:
                self._set_of_address[self._line(address)] = set_id

    def _line(self, address: int) -> int:
        return address // self.line_size

    def set_id_of(self, address: int) -> int | None:
        """The contention-set id covering ``address`` (None if unknown)."""
        return self._set_of_address.get(self._line(address))

    def addresses_in_set(self, set_id: int) -> list[int]:
        return self.sets[set_id]

    @property
    def set_count(self) -> int:
        return len(self.sets)

    def set_sizes(self) -> list[int]:
        return [len(s) for s in self.sets]

    @classmethod
    def from_oracle(cls, hierarchy: MemoryHierarchy, addresses: list[int]) -> "ContentionSets":
        """Build ground-truth contention sets via the hierarchy's oracle.

        Equivalent to running the probing discovery to exhaustion; used by
        tests (to validate the probing path) and by large-scale benchmarks
        where probing every line would dominate runtime.
        """
        line_size = hierarchy.config.line_size
        grouped: dict[tuple[int, int], list[int]] = {}
        seen_lines: set[int] = set()
        for address in addresses:
            line = address // line_size
            if line in seen_lines:
                continue
            seen_lines.add(line)
            grouped.setdefault(hierarchy.oracle_contention_key(address), []).append(address)
        sets = [sorted(group) for group in grouped.values() if len(group) > 1]
        sets.sort(key=len, reverse=True)
        return cls(
            associativity=hierarchy.l3_associativity,
            line_size=line_size,
            sets=sets,
            source="oracle",
        )


def discover_contention_sets(
    hierarchy: MemoryHierarchy,
    addresses: list[int],
    threshold: int | None = None,
    repeats: int = 8,
    max_sets: int | None = None,
    runs: int = 1,
    seed: int = 7,
) -> ContentionSets:
    """Discover contention sets among ``addresses`` by probing.

    ``threshold`` (δ) defaults to half the DRAM-vs-L3 gap times ``repeats``,
    which cleanly separates "one extra DRAM trip per probe round" from
    measurement noise.  With ``runs > 1`` the discovery is repeated under
    fresh page mappings and only consistently co-resident groups are kept.
    """
    if threshold is None:
        gap = hierarchy.cycle_costs.dram - hierarchy.cycle_costs.l3_hit
        threshold = (gap * repeats) // 2

    per_run_sets: list[list[list[int]]] = []
    original_seed = getattr(hierarchy, "_process_seed", 1)
    for run in range(runs):
        if runs > 1:
            hierarchy.new_process_run(original_seed + run)
        per_run_sets.append(
            _discover_single_run(hierarchy, addresses, threshold, repeats, max_sets, seed + run)
        )
    if runs > 1:
        hierarchy.new_process_run(original_seed)

    if runs == 1:
        sets = per_run_sets[0]
    else:
        sets = _consistent_sets(per_run_sets)

    return ContentionSets(
        associativity=hierarchy.l3_associativity,
        line_size=hierarchy.config.line_size,
        sets=sets,
        source="probing",
    )


def _discover_single_run(
    hierarchy: MemoryHierarchy,
    addresses: list[int],
    threshold: int,
    repeats: int,
    max_sets: int | None,
    seed: int,
) -> list[list[int]]:
    rng = random.Random(seed)
    line_size = hierarchy.config.line_size
    # One representative address per cache line.
    pool: list[int] = []
    seen_lines: set[int] = set()
    for address in addresses:
        line = address // line_size
        if line not in seen_lines:
            seen_lines.add(line)
            pool.append(address)
    rng.shuffle(pool)

    discovered: list[list[int]] = []
    remaining = list(pool)

    def probe(sample: list[int]) -> int:
        return hierarchy.probe_time(sample, repeats=repeats)

    while remaining and (max_sets is None or len(discovered) < max_sets):
        # Step 1: grow S until probing time jumps by more than δ.
        working: list[int] = []
        previous_time = 0
        trigger_found = False
        consumed = 0
        for address in remaining:
            consumed += 1
            candidate_time = probe(working + [address])
            if working and candidate_time - previous_time > threshold:
                working.append(address)
                trigger_found = True
                break
            working.append(address)
            previous_time = candidate_time
        if not trigger_found:
            break

        # Step 2: shrink S to exactly associativity + 1 members of C.
        slow_time = probe(working)
        members: list[int] = []
        for address in list(working):
            without = [a for a in working if a != address]
            if slow_time - probe(without) > threshold:
                members.append(address)
            else:
                working = without
                slow_time = probe(working)
        working = members if len(members) > hierarchy.l3_associativity else working

        # Step 3: classify every other candidate address.
        contention_set = list(working)
        base_time = probe(working)
        others = [a for a in remaining if a not in working]
        for address in others:
            substituted = [address] + working[1:]
            if base_time - probe(substituted) <= threshold:
                contention_set.append(address)

        discovered.append(sorted(set(contention_set)))
        claimed = set(contention_set)
        remaining = [a for a in remaining if a not in claimed]

    return discovered


def _consistent_sets(per_run_sets: list[list[list[int]]]) -> list[list[int]]:
    """Keep only address groups that share a set in *every* run."""

    def partition_of(sets: list[list[int]]) -> dict[int, int]:
        mapping: dict[int, int] = {}
        for set_id, group in enumerate(sets):
            for address in group:
                mapping[address] = set_id
        return mapping

    partitions = [partition_of(sets) for sets in per_run_sets]
    common_addresses = set(partitions[0])
    for partition in partitions[1:]:
        common_addresses &= set(partition)

    # Two addresses stay together only if they share a set in every run.
    grouped: dict[tuple[int, ...], list[int]] = {}
    for address in sorted(common_addresses):
        signature = tuple(partition[address] for partition in partitions)
        grouped.setdefault(signature, []).append(address)
    return [group for group in grouped.values() if len(group) > 1]
