"""A set-associative cache with LRU replacement.

Used as the building block for every level of the simulated hierarchy.
Keys are cache-line-aligned addresses (the caller picks physical or virtual
addressing and which bits select the set).
"""

from __future__ import annotations

from collections import OrderedDict


class SetAssociativeCache:
    """An ``associativity``-way cache of ``num_sets`` sets with LRU eviction."""

    def __init__(self, num_sets: int, associativity: int, line_size: int = 64) -> None:
        if num_sets <= 0 or associativity <= 0:
            raise ValueError("num_sets and associativity must be positive")
        if line_size & (line_size - 1):
            raise ValueError("line_size must be a power of two")
        self.num_sets = num_sets
        self.associativity = associativity
        self.line_size = line_size
        # set index -> OrderedDict of line address -> True (MRU at the end);
        # only sets that hold a line have an entry, so copying the cache
        # costs what is resident, not ``num_sets``.
        self._sets: dict[int, OrderedDict[int, bool]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def size_bytes(self) -> int:
        return self.num_sets * self.associativity * self.line_size

    def line_of(self, address: int) -> int:
        return address // self.line_size

    def set_index_of(self, address: int) -> int:
        return self.line_of(address) % self.num_sets

    def access(self, address: int, set_index: int | None = None) -> bool:
        """Access ``address``; returns True on hit, False on miss (and fills)."""
        line = self.line_of(address)
        index = self.set_index_of(address) if set_index is None else set_index % self.num_sets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = OrderedDict()
        elif line in ways:
            ways.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.associativity:
            ways.popitem(last=False)
            self.evictions += 1
        ways[line] = True
        return False

    def contains(self, address: int, set_index: int | None = None) -> bool:
        """True when ``address`` is currently cached (no LRU update)."""
        line = self.line_of(address)
        index = self.set_index_of(address) if set_index is None else set_index % self.num_sets
        ways = self._sets.get(index)
        return ways is not None and line in ways

    def flush(self) -> None:
        """Empty the cache and reset statistics."""
        self._sets = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(ways) for ways in self._sets.values())

    def clone(self) -> "SetAssociativeCache":
        """Deep copy including resident lines and statistics."""
        other = SetAssociativeCache(self.num_sets, self.associativity, self.line_size)
        other._sets = {index: OrderedDict(ways) for index, ways in self._sets.items()}
        other.hits = self.hits
        other.misses = self.misses
        other.evictions = self.evictions
        return other

    def snapshot(self) -> tuple:
        """Resident lines in LRU order plus statistics, for :meth:`restore`."""
        sets = {index: tuple(ways) for index, ways in self._sets.items()}
        return sets, self.hits, self.misses, self.evictions

    def restore(self, snapshot: tuple) -> None:
        """Return to a :meth:`snapshot` capture (reusable any number of times)."""
        sets, self.hits, self.misses, self.evictions = snapshot
        self._sets = {index: OrderedDict.fromkeys(lines, True) for index, lines in sets.items()}
