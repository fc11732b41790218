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

        Equivalent to running the probing discovery to exhaustion.  Every
        analysis builds its cache model from these sets
        (``Castan._build_cache_model``); the tests use them to validate the
        probing path (:func:`discover_contention_sets`), which recovers the
        same grouping by timing alone.
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


#: Seed of the shuffle that orders the probed pool.
PROBE_SEED = 7
#: Rounds of sequential reads per probe measurement.
PROBE_REPEATS = 6


def discover_contention_sets(hierarchy: MemoryHierarchy, addresses: list[int]) -> ContentionSets:
    """Discover contention sets among ``addresses`` by probing.

    The threshold δ is half the DRAM-vs-L3 gap times ``PROBE_REPEATS``,
    which cleanly separates "one extra DRAM trip per probe round" from
    measurement noise.
    """
    gap = hierarchy.cycle_costs.dram - hierarchy.cycle_costs.l3_hit
    threshold = (gap * PROBE_REPEATS) // 2
    rng = random.Random(PROBE_SEED)
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
        return hierarchy.probe_time(sample, PROBE_REPEATS)

    while remaining:
        # Step 1: grow S until probing time jumps by more than δ.
        working: list[int] = []
        previous_time = 0
        trigger_found = False
        for address in remaining:
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

    return ContentionSets(
        associativity=hierarchy.l3_associativity,
        line_size=line_size,
        sets=discovered,
        source="probing",
    )
