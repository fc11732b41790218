"""Simulated processor memory hierarchy (the testbed machine stand-in).

The paper's evaluation machine is an Intel Xeon E5-2667v2: 32 KiB 8-way L1d,
256 KiB 8-way L2, 25.6 MiB 20-way L3 split into slices selected by a
*proprietary* hash of the physical address, and 1 GB pages so that bits
0–29 of virtual and physical addresses coincide (Fig. 1).  This module
simulates that structure at configurable (scaled-down) sizes:

* virtual pages are mapped to pseudo-random physical frames, keyed by the
  machine seed and :data:`PROCESS_SEED` (a process run's page mapping);
* the L3 slice is selected by a hidden XOR-parity hash of physical address
  bits, seeded per "machine" — analysis code must not read it directly, it
  must reverse-engineer contention sets by probing (§3.2);
* :meth:`MemoryHierarchy.probe_time` measures the time to sequentially read
  a set of addresses repeatedly, which is exactly the measurement the
  contention-set discovery algorithm relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace

from repro.cache.setassoc import SetAssociativeCache
from repro.perf.cycles import CycleCosts, DEFAULT_CYCLE_COSTS


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the simulated memory hierarchy.

    The defaults are a laptop-friendly scale-down of the paper's Xeon
    E5-2667v2 that preserves the ratios the evaluation depends on (the
    1-stage direct-lookup table must dwarf the L3; the 2-stage table must
    exceed it by a small factor only).
    """

    line_size: int = 64
    l1_size: int = 32 * 1024
    l1_ways: int = 8
    l2_size: int = 128 * 1024
    l2_ways: int = 8
    l3_size: int = 512 * 1024
    l3_ways: int = 16
    l3_slices: int = 4
    page_size: int = 2 * 1024 * 1024  # stand-in for the paper's 1 GB pages
    machine_seed: int = 0x5EED_CA57

    def __post_init__(self) -> None:
        # Every size, ways and slice count must be >= 1.
        for name in (f.name for f in fields(self) if f.name != "machine_seed"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("line_size", "page_size", "l3_slices"):
            value = getattr(self, name)
            if value & (value - 1):
                raise ValueError(f"{name} must be a power of two, got {value}")
        if min(self.l1_sets, self.l2_sets, self.l3_sets_per_slice) < 1:
            raise ValueError("a cache level's size holds no set of its ways (l3: per slice)")

    @property
    def l1_sets(self) -> int:
        return self.l1_size // (self.line_size * self.l1_ways)

    @property
    def l2_sets(self) -> int:
        return self.l2_size // (self.line_size * self.l2_ways)

    @property
    def l3_sets_per_slice(self) -> int:
        return self.l3_size // (self.line_size * self.l3_ways * self.l3_slices)

    @property
    def l3_associativity(self) -> int:
        return self.l3_ways

    def describe_bit_layout(self) -> str:
        """Render the Fig. 1 style bit layout of the simulated hierarchy."""
        offset_bits = self.line_size.bit_length() - 1
        l1_bits = self.l1_sets.bit_length() - 1
        l2_bits = self.l2_sets.bit_length() - 1
        l3_bits = self.l3_sets_per_slice.bit_length() - 1
        page_bits = self.page_size.bit_length() - 1
        return (
            f"byte offset: bits 0-{offset_bits - 1}\n"
            f"L1d set:     bits {offset_bits}-{offset_bits + l1_bits - 1}\n"
            f"L2 set:      bits {offset_bits}-{offset_bits + l2_bits - 1}\n"
            f"L3 set:      bits {offset_bits}-{offset_bits + l3_bits - 1}\n"
            f"L3 slice:    hidden hash of physical bits >= {offset_bits}\n"
            f"page offset: bits 0-{page_bits - 1} (identical in virtual/physical)"
        )


@dataclass
class HierarchyStats:
    """Aggregate access statistics since the last reset."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0


#: Seed of the page mapping (with the machine seed): one process run's
#: virtual-to-physical frame assignment.
PROCESS_SEED = 1


class MemoryHierarchy:
    """The simulated L1d/L2/L3/DRAM hierarchy with hidden L3 slicing."""

    LEVELS = ("L1", "L2", "L3", "DRAM")

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        cycle_costs: CycleCosts = DEFAULT_CYCLE_COSTS,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.cycle_costs = cycle_costs
        self._machine_rng = random.Random(self.config.machine_seed)
        # Hidden slice-hash parity masks: one mask per slice-index bit.  The
        # masks select physical-address bits at and above the line offset,
        # mimicking Intel's undocumented complex addressing.  Analysis code
        # must not read these; it must discover contention sets by probing.
        slice_bits = (self.config.l3_slices - 1).bit_length()
        offset_bits = self.config.line_size.bit_length() - 1
        self.__slice_masks = [
            self._machine_rng.getrandbits(34) << offset_bits for _ in range(slice_bits)
        ]
        page_rng = random.Random((self.config.machine_seed << 1) ^ PROCESS_SEED)
        self._page_keys = page_rng.getrandbits(32) | 1, page_rng.getrandbits(32) | 1
        self.reset_caches()
        self.stats = HierarchyStats()

    # -- cache lifecycle ---------------------------------------------------------

    def reset_caches(self) -> None:
        """Cold-start every cache level (keeps the page mapping)."""
        cfg = self.config
        self._l1 = SetAssociativeCache(cfg.l1_sets, cfg.l1_ways, cfg.line_size)
        self._l2 = SetAssociativeCache(cfg.l2_sets, cfg.l2_ways, cfg.line_size)
        self._l3 = [
            SetAssociativeCache(cfg.l3_sets_per_slice, cfg.l3_ways, cfg.line_size)
            for _ in range(cfg.l3_slices)
        ]
        self.stats = HierarchyStats()

    def snapshot(self) -> tuple:
        """Capture resident lines, LRU order and statistics.

        Costs what is resident, not the hierarchy's geometry: the config,
        slice masks and page mapping are immutable and not captured.
        """
        caches = [cache.snapshot() for cache in (self._l1, self._l2, *self._l3)]
        return caches, replace(self.stats)

    def restore(self, snapshot: tuple) -> None:
        """Return to a :meth:`snapshot` capture, in place.

        The hierarchy object and its ``stats`` object stay the ones callers
        hold; only their contents change.
        """
        caches, stats = snapshot
        for cache, state in zip((self._l1, self._l2, *self._l3), caches):
            cache.restore(state)
        vars(self.stats).update(vars(stats))

    # -- address translation ----------------------------------------------------

    def virtual_to_physical(self, vaddr: int) -> int:
        """Translate a virtual address using the current page mapping.

        The page offset is preserved exactly (as with the paper's 1 GB
        pages); the page frame number is a keyed mix of the virtual page
        number, deterministic for a given process run.
        """
        page_size = self.config.page_size
        page = vaddr // page_size
        offset = vaddr % page_size
        key_a, key_b = self._page_keys
        frame = page
        # Two rounds of a keyed multiply/xor mix over 32 bits: deterministic,
        # seed-dependent and without obvious structure the analysis could
        # exploit instead of probing.
        frame = ((frame * key_a) ^ (frame >> 13) ^ key_b) & 0xFFFFFFFF
        frame = ((frame * key_b) ^ (frame >> 11) ^ key_a) & 0xFFFFFFFF
        return frame * page_size + offset

    def _slice_of(self, paddr: int) -> int:
        slice_index = 0
        for bit, mask in enumerate(self.__slice_masks):
            parity = bin(paddr & mask).count("1") & 1
            slice_index |= parity << bit
        return slice_index

    def _l3_set_of(self, paddr: int) -> int:
        return (paddr // self.config.line_size) % self.config.l3_sets_per_slice

    # -- accesses ---------------------------------------------------------------

    def access(self, vaddr: int, is_write: bool = False) -> str:
        """Access one byte address; returns the level that serviced it."""
        del is_write  # writes and reads cost the same in this model
        paddr = self.virtual_to_physical(vaddr)
        self.stats.accesses += 1
        if self._l1.access(paddr):
            self.stats.l1_hits += 1
            return "L1"
        if self._l2.access(paddr):
            self.stats.l2_hits += 1
            return "L2"
        slice_index = self._slice_of(paddr)
        l3_set = self._l3_set_of(paddr)
        if self._l3[slice_index].access(paddr, set_index=l3_set):
            self.stats.l3_hits += 1
            return "L3"
        self.stats.dram_accesses += 1
        return "DRAM"

    def access_cycles(self, vaddr: int, is_write: bool = False) -> tuple[str, int]:
        """Access an address and return ``(level, cycle cost)``."""
        level = self.access(vaddr, is_write)
        return level, self.cycle_costs.memory_cost(level)

    # -- probing (the §3.2 measurement primitive) -------------------------------

    def probe_time(self, addresses: list[int], repeats: int) -> int:
        """Simulated cycles to sequentially read ``addresses`` ``repeats`` times.

        The measurement uses a throwaway copy of the cache state so probing
        does not disturb the DUT caches, mirroring the paper's separate
        measurement process.  Sequential (pointer-chased) reads of a set
        that exceeds the associativity of its contention set thrash under
        LRU, so the probe time jumps by roughly ``repeats``×(DRAM − L3)
        cycles — the contention threshold δ the discovery algorithm tests.
        """
        probe_l3 = [slice_cache.clone() for slice_cache in self._l3]
        # L1/L2 are intentionally bypassed during probing: the paper's
        # probing loops use pointer chasing over buffers that far exceed
        # L1/L2, so those levels contribute a constant that the δ threshold
        # comparison cancels out.
        total = 0
        for _ in range(repeats):
            for vaddr in addresses:
                paddr = self.virtual_to_physical(vaddr)
                slice_index = self._slice_of(paddr)
                l3_set = self._l3_set_of(paddr)
                if probe_l3[slice_index].access(paddr, set_index=l3_set):
                    total += self.cycle_costs.l3_hit
                else:
                    total += self.cycle_costs.dram
        return total

    # -- instrumentation --------------------------------------------------------

    def oracle_contention_key(self, vaddr: int) -> tuple[int, int]:
        """Ground-truth (slice, set) key of an address.

        Equivalent to running the §3.2 probing discovery to exhaustion.
        Every analysis groups its contention sets by this key
        (:meth:`~repro.cache.contention.ContentionSets.from_oracle`), which
        skips the slow probing phase; the tests use it to validate the
        probing-based discovery.
        """
        paddr = self.virtual_to_physical(vaddr)
        return self._slice_of(paddr), self._l3_set_of(paddr)

    @property
    def l3_associativity(self) -> int:
        return self.config.l3_ways
