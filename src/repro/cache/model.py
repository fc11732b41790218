"""Pluggable cache models for the symbolic execution engine (§3.3, §4).

The engine calls the active cache model on every ``load``/``store``.  The
model's job is twofold, mirroring the paper's KLEE plug-in: first pick the
"worst compatible cache line" for a symbolic pointer and concretize the
pointer to it (adding the corresponding equality constraint to the path),
then update its own cache state so later accesses see the effect.

Two implementations are provided:

* :class:`ContentionSetCacheModel` — CASTAN's default: drives symbolic
  addresses into already-populated contention sets so that the synthesized
  workload overflows L3 associativity and keeps missing.
* :class:`NoCacheModel` — an ablation baseline that concretizes pointers to
  any feasible value and charges every access an L1 hit, i.e. the search is
  guided by instruction counts alone.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.cache.contention import ContentionSets
from repro.ir.module import MemoryRegion
from repro.symbex.expr import Const, Expr, expr_eq

#: How many recently-touched element indices each region remembers (used to
#: steer symbolic pointers onto already-populated state).
TOUCHED_ELEMENT_WINDOW = 512

#: How many newly touched lines a model keeps beside its shared base set
#: before it folds them into a new base (``ContentionSetCacheModel._charge``).
_TOUCHED_LINES_DELTA = 32

# A touched-element window is a persistent newest-first list of
# ``(index, length, older)`` cells: an access conses one cell onto the
# region's head, so clones share every cell and a write copies nothing.
# Only the newest ``TOUCHED_ELEMENT_WINDOW`` cells are read; a list that
# reaches twice that is rebuilt from its newest window.
_Window = tuple  # (index, length, older: _Window | None)

# Callbacks supplied by the engine:
#   feasible(constraint) -> bool         (quick path-constraint compatibility)
#   solve_value(expr) -> int | None      (any feasible concrete value for expr)
#   pinned_value(expr) -> int | None     (optional: expr's value when the path
#                                         already determines it, else None)
FeasibleFn = Callable[[Expr], bool]
SolveValueFn = Callable[[Expr], "int | None"]
PinnedValueFn = Callable[[Expr], "int | None"]


@dataclass
class CacheAccessDecision:
    """Outcome of consulting the cache model for one memory access."""

    region: str
    index: int
    address: int
    level: str  # "L1" | "L2" | "L3" | "DRAM"
    constraint: Expr | None = None
    caused_eviction: bool = False


@dataclass
class CacheModelStats:
    """Counters the analysis reports alongside each generated path."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    concretizations: int = 0
    contention_targeted: int = 0


class CacheModel:
    """Interface every cache model plug-in implements."""

    def clone(self) -> "CacheModel":
        raise NotImplementedError

    def on_access(
        self,
        region: MemoryRegion,
        index_expr: Expr,
        is_write: bool,
        feasible: FeasibleFn,
        solve_value: SolveValueFn,
        pinned_value: PinnedValueFn | None = None,
    ) -> CacheAccessDecision:
        raise NotImplementedError

    @property
    def stats(self) -> CacheModelStats:
        raise NotImplementedError


class NoCacheModel(CacheModel):
    """Ablation model: no cache reasoning, every access is an L1 hit."""

    def __init__(self) -> None:
        self._stats = CacheModelStats()

    def clone(self) -> "NoCacheModel":
        other = NoCacheModel()
        other._stats = CacheModelStats(**vars(self._stats))
        return other

    def on_access(
        self,
        region: MemoryRegion,
        index_expr: Expr,
        is_write: bool,
        feasible: FeasibleFn,
        solve_value: SolveValueFn,
        pinned_value: PinnedValueFn | None = None,
    ) -> CacheAccessDecision:
        self._stats.accesses += 1
        self._stats.hits += 1
        if isinstance(index_expr, Const):
            index = index_expr.value
            constraint = None
        else:
            value = solve_value(index_expr)
            index = 0 if value is None else value
            index = min(max(index, 0), region.length - 1)
            constraint = expr_eq(index_expr, Const(index))
            self._stats.concretizations += 1
        return CacheAccessDecision(
            region=region.name,
            index=index,
            address=region.address_of(index),
            level="L1",
            constraint=constraint,
        )

    @property
    def stats(self) -> CacheModelStats:
        return self._stats


class RegionSlotIndex:
    """Which lines of each contention set lie inside each region.

    ``(line, element index)`` per in-region address of a set, in the set's
    address order.  The answer is static for one ``ContentionSets`` and one
    region layout, so a model and all its clones share one index by reference
    and each list is derived once per analysis.
    """

    def __init__(self, contention_sets: ContentionSets) -> None:
        self._contention_sets = contention_sets
        self._slots: dict[tuple, list[tuple[int, int]]] = {}
        self.builds = 0
        self.reuses = 0

    def slots(self, region: MemoryRegion, set_id: int) -> list[tuple[int, int]]:
        # Keyed by the layout, not only the name: a region that shares its
        # name with another at a different base never reads the other's slots.
        key = (set_id, region.name, region.base_address, region.length, region.element_size)
        found = self._slots.get(key)
        if found is not None:
            self.reuses += 1
            return found
        self.builds += 1
        line_size = self._contention_sets.line_size
        found = self._slots[key] = [
            (address // line_size, region.index_of(address))
            for address in self._contention_sets.addresses_in_set(set_id)
            if region.contains_address(address)
        ]
        return found


class ContentionSetCacheModel(CacheModel):
    """CASTAN's contention-set cache model.

    The model keeps, per contention set, the lines it believes are resident
    in L3 (bounded by the associativity), starting from a clear cache.  For
    a symbolic pointer it builds a list of candidate lines that would land
    in the most-populated contention sets (those closest to overflowing),
    checks each candidate's equality constraint for compatibility with the
    path, and concretizes the pointer to the first compatible one.
    """

    def __init__(
        self,
        contention_sets: ContentionSets,
        l1_window: int = 8,
        max_candidates: int = 32,
        slot_index: RegionSlotIndex | None = None,
    ) -> None:
        self.contention_sets = contention_sets
        self.slot_index = slot_index or RegionSlotIndex(contention_sets)
        self.associativity = contention_sets.associativity
        self.line_size = contention_sets.line_size
        self.max_candidates = max_candidates
        self.l1_window = l1_window
        # contention set id -> OrderedDict of resident line -> True (LRU).
        # The LRUs are shared with clones; ``_owned_sets`` holds the set ids
        # whose LRU this model created or copied since its last clone(), and
        # may write in place.
        self._resident: dict[int, OrderedDict[int, bool]] = {}
        self._owned_sets: set[int] = set()
        # Lines accessed at least once (cold-miss tracking): a base set and
        # a short tuple of the lines added since, both immutable and shared
        # with clones.
        self._touched_base: frozenset[int] = frozenset()
        self._touched_new: tuple[int, ...] = ()
        # A small recency window standing in for L1 (repeat accesses to the
        # very same line in quick succession are not charged full L3
        # latency), oldest first.
        self._recent_lines: tuple[int, ...] = ()
        # region name -> the newest touched element index's window cell,
        # used to steer pointers onto already-populated state when no cache
        # contention is achievable (see ``touched_window``).
        self._touched_elements: dict[str, _Window] = {}
        self._stats = CacheModelStats()

    # -- lifecycle -----------------------------------------------------------

    def clone(self) -> "ContentionSetCacheModel":
        """A copy-on-write copy: O(sets and regions), nothing that grows with the path.

        The residency LRUs stay shared and each side copies one set's LRU on
        its first write; touched-element windows, the touched-line base and
        the recency window are immutable and shared as they are.
        """
        other = ContentionSetCacheModel(
            self.contention_sets,
            l1_window=self.l1_window,
            max_candidates=self.max_candidates,
            slot_index=self.slot_index,
        )
        other._resident = dict(self._resident)
        self._owned_sets = set()
        other._touched_base = self._touched_base
        other._touched_new = self._touched_new
        other._recent_lines = self._recent_lines
        other._touched_elements = dict(self._touched_elements)
        other._stats = CacheModelStats(**vars(self._stats))
        return other

    def touched_window(self, region_name: str) -> tuple[int, ...]:
        """The region's recently touched element indices, newest first.

        At most ``TOUCHED_ELEMENT_WINDOW`` of them; an index repeats only
        when other accesses came between its touches.
        """
        return tuple(_newest_first(self._touched_elements.get(region_name)))

    def touched_lines(self) -> frozenset[int]:
        """Every line this model has charged an access to."""
        return self._touched_base.union(self._touched_new)

    @property
    def stats(self) -> CacheModelStats:
        return self._stats

    # -- access handling -------------------------------------------------------

    def on_access(
        self,
        region: MemoryRegion,
        index_expr: Expr,
        is_write: bool,
        feasible: FeasibleFn,
        solve_value: SolveValueFn,
        pinned_value: PinnedValueFn | None = None,
    ) -> CacheAccessDecision:
        self._stats.accesses += 1
        if isinstance(index_expr, Const):
            index = index_expr.value
            constraint: Expr | None = None
        else:
            index, constraint, targeted = self._concretize(
                region, index_expr, feasible, solve_value, pinned_value
            )
            self._stats.concretizations += 1
            if targeted:
                self._stats.contention_targeted += 1
        address = region.address_of(index)
        touched = self._touched_elements.get(region.name)
        if touched is None:
            self._touched_elements[region.name] = (index, 1, None)
        elif touched[0] != index:
            if touched[1] == 2 * TOUCHED_ELEMENT_WINDOW:
                touched = _rebuild_window(touched)
            self._touched_elements[region.name] = (index, touched[1] + 1, touched)
        level, evicted = self._charge(address)
        if level in ("L1", "L3"):
            self._stats.hits += 1
        else:
            self._stats.misses += 1
        if evicted:
            self._stats.evictions += 1
        return CacheAccessDecision(
            region=region.name,
            index=index,
            address=address,
            level=level,
            constraint=constraint,
            caused_eviction=evicted,
        )

    # -- internals ---------------------------------------------------------------

    def _line_of(self, address: int) -> int:
        return address // self.line_size

    def _concretize(
        self,
        region: MemoryRegion,
        index_expr: Expr,
        feasible: FeasibleFn,
        solve_value: SolveValueFn,
        pinned_value: PinnedValueFn | None,
    ) -> tuple[int, Expr | None, bool]:
        """Pick the worst compatible concrete index for a symbolic pointer."""
        candidates = self._candidate_indices(region)
        pinned = pinned_value(index_expr) if pinned_value is not None else None
        if pinned is not None:
            # The path already fixes the pointer: the probe for ``pinned``
            # would succeed and every other be refuted, so the loop's outcome
            # is known without asking the solver.
            if pinned in candidates:
                return pinned, expr_eq(index_expr, Const(pinned)), True
            candidates = []
        for candidate_index in candidates:
            constraint = expr_eq(index_expr, Const(candidate_index))
            if feasible(constraint):
                return candidate_index, constraint, True
        # Fall back to any feasible value within the region.
        value = solve_value(index_expr)
        if value is None:
            value = 0
        value = min(max(value, 0), region.length - 1)
        return value, expr_eq(index_expr, Const(value)), False

    def _candidate_indices(self, region: MemoryRegion) -> list[int]:
        """Candidate element indices expected to cause L3 contention.

        Contention sets already holding resident lines are ranked by how
        close they are to overflowing the associativity; for each we emit
        not-yet-touched lines of the same set that fall inside the region.
        """
        ranked = sorted(
            self._resident.items(),
            key=lambda item: len(item[1]),
            reverse=True,
        )
        candidates: list[int] = []
        touched_base, touched_new = self._touched_base, self._touched_new
        for set_id, resident in ranked:
            if not resident:
                continue
            for line, index in self.slot_index.slots(region, set_id):
                if line in touched_base or line in touched_new:
                    continue
                candidates.append(index)
                if len(candidates) >= self.max_candidates:
                    return candidates
        # No contention to be had (e.g. the region fits in L3): the next
        # worst thing a symbolic pointer can do is land on state another
        # packet already touched — that is what grows hash chains and makes
        # lookups walk further (§5.4's collision workloads).
        for index in _newest_first(self._touched_elements.get(region.name)):
            if index not in candidates:
                candidates.append(index)
            if len(candidates) >= self.max_candidates:
                break
        return candidates

    def _charge(self, address: int) -> tuple[str, bool]:
        """Update model state for a concrete access; return (level, evicted)."""
        line = self._line_of(address)

        # Recency window: immediately repeated accesses to the same line are
        # effectively L1 hits (loop bodies touching one element repeatedly).
        recent = self._recent_lines
        if line in recent:
            if recent[-1] != line:
                self._recent_lines = (*(other for other in recent if other != line), line)
            return "L1", False

        touched = line in self._touched_base or line in self._touched_new
        set_id = self.contention_sets.set_id_of(address)
        evicted = False
        if set_id is None:
            # Address not covered by the empirical model: charge a cold miss
            # the first time, an L3 hit afterwards.
            level = "L3" if touched else "DRAM"
        else:
            resident = self._resident.get(set_id)
            if resident is None or set_id not in self._owned_sets:
                # First write since the last clone: a hit reorders the LRU too.
                resident = self._resident[set_id] = OrderedDict(resident or ())
                self._owned_sets.add(set_id)
            if line in resident:
                resident.move_to_end(line)
                level = "L3"
            else:
                level = "DRAM"
                resident[line] = True
                if len(resident) > self.associativity:
                    resident.popitem(last=False)
                    evicted = True
        if not touched:
            if len(self._touched_new) < _TOUCHED_LINES_DELTA:
                self._touched_new = (*self._touched_new, line)
            else:
                self._touched_base = self._touched_base.union(self._touched_new, (line,))
                self._touched_new = ()
        self._recent_lines = (*recent, line)[-self.l1_window :] if self.l1_window else ()
        return level, evicted

    # -- reporting ----------------------------------------------------------------

    def resident_summary(self) -> dict[int, int]:
        """Contention-set id -> number of resident lines (for debugging)."""
        return {set_id: len(lines) for set_id, lines in self._resident.items() if lines}


def _newest_first(cell: _Window | None) -> Iterator[int]:
    """The window's indices, newest first, up to ``TOUCHED_ELEMENT_WINDOW`` of them."""
    for _ in range(TOUCHED_ELEMENT_WINDOW):
        if cell is None:
            return
        yield cell[0]
        cell = cell[2]


def _rebuild_window(cell: _Window) -> _Window:
    """A fresh list of the newest ``TOUCHED_ELEMENT_WINDOW`` cells of ``cell``'s list."""
    rebuilt = None
    for length, index in enumerate(reversed(tuple(_newest_first(cell))), 1):
        rebuilt = (index, length, rebuilt)
    return rebuilt
