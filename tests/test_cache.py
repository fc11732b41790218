"""Tests for the cache substrate: set-associative caches, the simulated
hierarchy, contention-set discovery and the symbex cache models."""

import copy
import itertools
import random
from collections import Counter, OrderedDict

import pytest

from repro.cache import hierarchy as hierarchy_module
from repro.cache.contention import PROBE_REPEATS, ContentionSets, discover_contention_sets
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.model import (
    TOUCHED_ELEMENT_WINDOW,
    ContentionSetCacheModel,
    NoCacheModel,
    RegionSlotIndex,
)
from repro.cache.setassoc import SetAssociativeCache
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.ir.instructions import BinOpKind
from repro.ir.module import MemoryRegion
from repro.nf.registry import EVALUATION_NF_NAMES, get_nf
from repro.service.store import canonical_result_digest
from repro.symbex.expr import Const, Sym, evaluate, expr_eq, make_binop
from repro.symbex.incremental import CONTEXT_STATS, SolverContext


def tiny_hierarchy(**overrides) -> MemoryHierarchy:
    config = HierarchyConfig(
        l1_size=1024,
        l1_ways=2,
        l2_size=2048,
        l2_ways=2,
        l3_size=16 * 1024,
        l3_ways=4,
        l3_slices=2,
        page_size=4096,
        **overrides,
    )
    return MemoryHierarchy(config)


class TestSetAssociativeCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_within_set(self):
        cache = SetAssociativeCache(num_sets=1, associativity=2, line_size=64)
        cache.access(0)
        cache.access(64)
        cache.access(128)  # evicts line 0
        assert cache.access(64) is True
        assert cache.access(0) is False
        assert cache.evictions >= 1

    def test_same_line_different_bytes(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2, line_size=64)
        cache.access(10)
        assert cache.access(63) is True
        assert cache.access(64) is False

    def test_flush_and_occupancy(self):
        cache = SetAssociativeCache(num_sets=4, associativity=2)
        for i in range(5):
            cache.access(i * 64)
        assert cache.occupancy() == 5
        cache.flush()
        assert cache.occupancy() == 0 and cache.hits == 0

    def test_clone_is_independent(self):
        cache = SetAssociativeCache(num_sets=2, associativity=2)
        cache.access(0)
        clone = cache.clone()
        clone.access(64)
        assert clone.occupancy() == 2
        assert cache.occupancy() == 1

    @pytest.mark.parametrize("bad", [dict(num_sets=0, associativity=1), dict(num_sets=1, associativity=0)])
    def test_rejects_bad_geometry(self, bad):
        with pytest.raises(ValueError):
            SetAssociativeCache(**bad)


class _ListOfSetsCache:
    """Reference LRU cache: one ``OrderedDict`` per set, all ``num_sets`` allocated."""

    def __init__(self, num_sets: int, associativity: int, line_size: int = 64) -> None:
        self.num_sets, self.associativity, self.line_size = num_sets, associativity, line_size
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def _locate(self, address, set_index):
        line = address // self.line_size
        index = line % self.num_sets if set_index is None else set_index % self.num_sets
        return line, self.sets[index]

    def access(self, address: int, set_index: int | None = None) -> bool:
        line, ways = self._locate(address, set_index)
        if line in ways:
            ways.move_to_end(line)
            return True
        if len(ways) >= self.associativity:
            ways.popitem(last=False)
        ways[line] = True
        return False

    def contains(self, address: int, set_index: int | None = None) -> bool:
        line, ways = self._locate(address, set_index)
        return line in ways

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self.sets)

    def clone(self) -> "_ListOfSetsCache":
        other = _ListOfSetsCache(self.num_sets, self.associativity, self.line_size)
        other.sets = [OrderedDict(ways) for ways in self.sets]
        return other


class TestSparseSetsMatchReference:
    """The cache keeps only non-empty sets; it must behave like the full list."""

    @staticmethod
    def _stream(seed: int, length: int = 3000):
        rng = random.Random(seed)
        hot = [rng.randrange(1 << 20) for _ in range(40)]
        for _ in range(length):
            address = rng.choice(hot) if rng.random() < 0.6 else rng.randrange(1 << 20)
            set_index = rng.randrange(1 << 12) if rng.random() < 0.3 else None
            yield address, set_index

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("geometry", [(1, 4), (8, 2), (64, 8), (13, 3)])
    def test_same_hits_occupancy_membership_and_clones(self, seed, geometry):
        num_sets, ways = geometry
        cache = SetAssociativeCache(num_sets, ways)
        reference = _ListOfSetsCache(num_sets, ways)
        verdicts, expected = [], []
        for step, (address, set_index) in enumerate(self._stream(seed)):
            verdicts.append(cache.access(address, set_index))
            expected.append(reference.access(address, set_index))
            if step % 250 == 0:
                assert cache.occupancy() == reference.occupancy()
                probe = address + 64 * (step % 5)
                assert cache.contains(probe) == reference.contains(probe)
                assert cache.contains(probe, step) == reference.contains(probe, step)
            if step == 1500:
                cache, reference = cache.clone(), reference.clone()
        assert verdicts == expected
        assert cache.occupancy() == reference.occupancy()
        assert (cache.hits, cache.misses) == (expected.count(True), expected.count(False))

    def test_snapshot_restore_round_trip(self):
        cache = SetAssociativeCache(16, 2)
        stream = list(self._stream(7, 400))
        for address, set_index in stream[:200]:
            cache.access(address, set_index)
        snapshot = cache.snapshot()
        first = [cache.access(address, set_index) for address, set_index in stream[200:]]
        counts = (cache.hits, cache.misses, cache.evictions, cache.occupancy())
        for _ in range(2):  # a snapshot is reusable
            cache.restore(snapshot)
            assert [cache.access(a, s) for a, s in stream[200:]] == first
            assert (cache.hits, cache.misses, cache.evictions, cache.occupancy()) == counts


class TestHierarchy:
    def test_levels_progression(self):
        hierarchy = tiny_hierarchy()
        address = 1 << 20
        assert hierarchy.access(address) == "DRAM"
        assert hierarchy.access(address) == "L1"

    def test_l1_capacity_spill_to_l2(self):
        hierarchy = tiny_hierarchy()
        # Touch far more lines than L1 can hold, then re-touch the first.
        addresses = [i * 64 for i in range(64)]
        for address in addresses:
            hierarchy.access(address)
        level = hierarchy.access(addresses[0])
        assert level in ("L2", "L3", "DRAM")

    def test_translation_preserves_page_offset(self):
        hierarchy = tiny_hierarchy()
        vaddr = 5 * 4096 + 123
        assert hierarchy.virtual_to_physical(vaddr) % 4096 == 123

    def test_translation_changes_across_process_runs(self, monkeypatch):
        vaddr = 7 * 4096
        first = tiny_hierarchy().virtual_to_physical(vaddr)
        monkeypatch.setattr(hierarchy_module, "PROCESS_SEED", 99)
        assert tiny_hierarchy().virtual_to_physical(vaddr) != first

    def test_snapshot_restores_levels_and_stats_in_place(self):
        hierarchy = tiny_hierarchy()
        rng = random.Random(3)
        addresses = [rng.randrange(1 << 22) for _ in range(300)]
        for address in addresses[:150]:
            hierarchy.access(address)
        snapshot = hierarchy.snapshot()
        levels = [hierarchy.access(address) for address in addresses[150:]]
        stats = hierarchy.stats
        after = (stats.accesses, stats.l1_hits, stats.l2_hits, stats.l3_hits, stats.dram_accesses)
        hierarchy.reset_caches()  # cold caches, fresh statistics
        stats = hierarchy.stats
        hierarchy.restore(snapshot)
        assert hierarchy.stats is stats and stats.accesses == 150
        assert [hierarchy.access(address) for address in addresses[150:]] == levels
        assert (stats.accesses, stats.l1_hits, stats.l2_hits, stats.l3_hits,
                stats.dram_accesses) == after

    def test_access_cycles_match_levels(self):
        hierarchy = tiny_hierarchy()
        level, cycles = hierarchy.access_cycles(0)
        assert level == "DRAM" and cycles == hierarchy.cycle_costs.dram
        level, cycles = hierarchy.access_cycles(0)
        assert level == "L1" and cycles == hierarchy.cycle_costs.l1_hit

    def test_probe_time_detects_associativity_overflow(self):
        hierarchy = tiny_hierarchy()
        # Build a set of addresses that all share one contention set.
        pool = [i * 64 for i in range(2048)]
        by_key = {}
        for address in pool:
            by_key.setdefault(hierarchy.oracle_contention_key(address), []).append(address)
        addresses = max(by_key.values(), key=len)
        ways = hierarchy.l3_associativity
        fits = hierarchy.probe_time(addresses[:ways], PROBE_REPEATS)
        overflows = hierarchy.probe_time(addresses[: ways + 1], PROBE_REPEATS)
        gap = hierarchy.cycle_costs.dram - hierarchy.cycle_costs.l3_hit
        assert overflows - fits > gap * PROBE_REPEATS // 2

    def test_bit_layout_description(self):
        text = tiny_hierarchy().config.describe_bit_layout()
        assert "L3 slice" in text and "byte offset" in text

    def test_rejects_non_power_of_two_geometry(self):
        with pytest.raises(ValueError):
            HierarchyConfig(line_size=48)

    @pytest.mark.parametrize(
        "geometry, message",
        [
            ({"line_size": 0}, "line_size"),
            ({"page_size": 0}, "page_size"),
            ({"l3_slices": 0}, "l3_slices"),
            ({"l3_ways": 0}, "l3_ways"),
            ({"l2_size": 256}, "no set"),  # under one set of 8 64-byte lines
        ],
    )
    def test_rejects_geometry_without_a_set(self, geometry, message):
        # Each would divide by zero, shift by a negative count or have no set
        # to index; the zeros pass the power-of-two test.
        with pytest.raises(ValueError, match=message):
            HierarchyConfig(**geometry)


class TestContentionDiscovery:
    def test_oracle_groups_match_hierarchy(self):
        hierarchy = tiny_hierarchy()
        addresses = [i * 64 for i in range(512)]
        sets = ContentionSets.from_oracle(hierarchy, addresses)
        assert sets.set_count > 1
        for group in sets.sets:
            keys = {hierarchy.oracle_contention_key(a) for a in group}
            assert len(keys) == 1

    def test_probing_discovery_agrees_with_oracle(self):
        hierarchy = tiny_hierarchy()
        # Addresses sharing one (public) L3 set index, so the hidden slice
        # hash is the only thing separating them into contention sets.
        stride = hierarchy.config.l3_sets_per_slice * 64
        addresses = [i * stride for i in range(48)]
        discovered = discover_contention_sets(hierarchy, addresses)
        assert discovered.set_count >= 1
        for group in discovered.sets:
            keys = {hierarchy.oracle_contention_key(a) for a in group}
            assert len(keys) == 1, f"probing mixed contention sets: {keys}"

    def test_set_id_lookup(self):
        hierarchy = tiny_hierarchy()
        addresses = [i * 64 for i in range(256)]
        sets = ContentionSets.from_oracle(hierarchy, addresses)
        member = sets.sets[0][0]
        assert sets.set_id_of(member) == 0
        assert sets.set_id_of(10**12) is None


class TestCacheModels:
    def _region(self) -> MemoryRegion:
        return MemoryRegion(name="tbl", length=4096, element_size=64, base_address=1 << 30)

    def _contention_model(self) -> ContentionSetCacheModel:
        hierarchy = tiny_hierarchy()
        region = self._region()
        addresses = [region.base_address + i * 64 for i in range(2048)]
        return ContentionSetCacheModel(ContentionSets.from_oracle(hierarchy, addresses))

    def test_no_cache_model_concrete_access(self):
        model = NoCacheModel()
        decision = model.on_access(self._region(), Const(5), False, lambda c: True, lambda e: 0)
        assert decision.index == 5 and decision.level == "L1" and decision.constraint is None

    def test_contention_model_concrete_miss_then_hit(self):
        model = self._contention_model()
        region = self._region()
        first = model.on_access(region, Const(7), False, lambda c: True, lambda e: 7)
        again = model.on_access(region, Const(7), False, lambda c: True, lambda e: 7)
        assert first.level == "DRAM"
        assert again.level in ("L1", "L3")

    def test_contention_model_targets_one_set(self):
        model = self._contention_model()
        region = self._region()
        symbol = Sym("idx", 32)
        # Seed with one concrete access, then concretize symbolic pointers.
        model.on_access(region, Const(0), False, lambda c: True, lambda e: 0)
        chosen = []
        for _ in range(6):
            decision = model.on_access(region, symbol, False, lambda c: True, lambda e: 1)
            assert decision.constraint is not None
            chosen.append(decision.index)
        keys = {
            model.contention_sets.set_id_of(region.address_of(index))
            for index in chosen
        }
        # All concretized pointers should land in the seeded contention set.
        assert len(keys) == 1

    def test_contention_model_eviction_after_associativity(self):
        model = self._contention_model()
        region = self._region()
        symbol = Sym("idx", 32)
        model.on_access(region, Const(0), False, lambda c: True, lambda e: 0)
        evictions = 0
        for _ in range(model.associativity + 4):
            decision = model.on_access(region, symbol, False, lambda c: True, lambda e: 1)
            evictions += int(decision.caused_eviction)
        assert evictions >= 1

    def test_fallback_prefers_touched_elements(self):
        # A region too small for contention: symbolic pointers should land on
        # previously-touched elements (the collision-steering behaviour).
        hierarchy = tiny_hierarchy()
        small = MemoryRegion(name="buckets", length=64, element_size=8, base_address=1 << 30)
        pool = [small.base_address + i * 64 for i in range(8)]
        model = ContentionSetCacheModel(ContentionSets.from_oracle(hierarchy, pool))
        model.on_access(small, Const(13), False, lambda c: True, lambda e: 13)
        decision = model.on_access(small, Sym("h", 16), False, lambda c: True, lambda e: 1)
        assert decision.index == 13

    def test_touched_elements_window_is_bounded(self):
        model = self._contention_model()
        region = self._region()

        def touch(target, indices):
            for index in indices:
                target.on_access(region, Const(index), False, lambda c: True, lambda e: 0)

        touch(model, range(TOUCHED_ELEMENT_WINDOW + 100))
        touched = model.touched_window(region.name)
        assert len(touched) == TOUCHED_ELEMENT_WINDOW
        # The oldest entries were trimmed; the newest survive, newest first.
        assert touched[0] == TOUCHED_ELEMENT_WINDOW + 99
        assert touched[-1] == 100
        # Clones keep the bound, past the point where the shared list is
        # rebuilt from its newest window, and the parent keeps its window.
        clone = model.clone()
        assert clone.touched_window(region.name) == touched
        touch(clone, range(TOUCHED_ELEMENT_WINDOW + 100, 3 * TOUCHED_ELEMENT_WINDOW))
        assert clone.touched_window(region.name) == tuple(
            range(3 * TOUCHED_ELEMENT_WINDOW - 1, 2 * TOUCHED_ELEMENT_WINDOW - 1, -1)
        )
        assert model.touched_window(region.name) == touched

    def test_clone_isolates_state(self):
        model = self._contention_model()
        region = self._region()
        model.on_access(region, Const(3), False, lambda c: True, lambda e: 3)
        clone = model.clone()
        clone.on_access(region, Const(9), False, lambda c: True, lambda e: 9)
        assert clone.stats.accesses == model.stats.accesses + 1
        model.on_access(region, Const(17), False, lambda c: True, lambda e: 17)
        assert clone.touched_window(region.name) == (9, 3)
        assert model.touched_window(region.name) == (17, 3)

        def lines(cache_model):
            return {line for lru in cache_model._resident.values() for line in lru}

        def line(index):
            return region.address_of(index) // model.line_size

        assert lines(clone) == clone.touched_lines() == {line(3), line(9)}
        assert lines(model) == model.touched_lines() == {line(3), line(17)}
        assert (clone.stats.misses, model.stats.misses) == (2, 2)

    def test_constraint_is_consistent_with_index(self):
        model = self._contention_model()
        region = self._region()
        symbol = Sym("idx", 32)
        model.on_access(region, Const(0), False, lambda c: True, lambda e: 0)
        decision = model.on_access(region, symbol, False, lambda c: True, lambda e: 1)
        assert evaluate(decision.constraint, {"idx": decision.index}) == 1


def _deep_clone(model):
    """The copying ``clone`` that copy-on-write replaced: the reference.

    Every container is copied; only the static contention sets and the slot
    index they derive are shared, as every clone shares them.
    """
    shared = (model.contention_sets, model.slot_index)
    return copy.deepcopy(model, {id(static): static for static in shared})


def _model_state(model, regions):
    """Everything a later access decision reads, plus what reports show."""
    return (
        model.resident_summary(),
        {set_id: list(lru) for set_id, lru in model._resident.items()},
        {region.name: model.touched_window(region.name) for region in regions},
        sorted(model.touched_lines()),
        list(model._recent_lines),
        vars(model.stats),
    )


class TestCopyOnWriteClones:
    """``clone()`` shares residency and touched elements until written.

    Random access streams fork models at random points and keep writing
    both sides; every decision and every model's state must equal a run in
    which each clone deep-copies.
    """

    @staticmethod
    def _contention_world():
        region = TestCacheModels()._region()
        small = MemoryRegion(name="small", length=64, element_size=8, base_address=1 << 32)
        model = TestCacheModels()._contention_model()
        model.l1_window = 2  # so that repeats reach the LRU as hits
        return model, [region, small]

    @staticmethod
    def _chain_world():
        # One shared model over every stage's contention regions: the
        # chain's merged address space, many regions and several sets.
        chain = get_nf("chain-gateway")
        model, _ = Castan(CastanConfig())._build_cache_model(chain)
        return model, [chain.module.get_region(name) for name in chain.contention_regions]

    def _run(self, seed, world, clone):
        rng = random.Random(seed)
        model, regions = world()
        models = [model]
        observed = []
        for step in range(rng.randrange(20, 120)):
            target = rng.randrange(len(models))
            if rng.random() < 0.15:
                models.append(clone(models[target]))
                continue
            region = rng.choice(regions)
            if rng.random() < 0.5:
                # Few distinct indices, so that lines repeat, hit and evict.
                index_expr = Const(rng.choice(range(0, region.length, max(1, region.length // 24))))
            else:
                index_expr = Sym(f"idx{step}", 32)
            accept_probe = rng.randrange(4)
            probes = itertools.count()
            fallback = rng.randrange(region.length)
            decision = models[target].on_access(
                region,
                index_expr,
                False,
                lambda constraint: next(probes) == accept_probe,
                lambda expr: fallback,
            )
            observed.append(
                (
                    target,
                    decision.index,
                    decision.level,
                    decision.caused_eviction,
                    None if decision.constraint is None else repr(decision.constraint),
                )
            )
        return observed, [_model_state(m, regions) for m in models]

    @pytest.mark.parametrize("seed", range(40))
    def test_contention_model_clones_match_deep_copies(self, seed):
        world = self._contention_world
        assert self._run(seed, world, lambda m: m.clone()) == self._run(seed, world, _deep_clone)

    @pytest.mark.parametrize("seed", range(8))
    def test_chain_model_clones_match_deep_copies(self, seed):
        world = self._chain_world
        assert self._run(seed, world, lambda m: m.clone()) == self._run(seed, world, _deep_clone)

    def test_the_streams_reorder_and_evict_shared_sets(self):
        # The property only means something if clones really hit (an LRU
        # reorder) and evict in sets they share with their parent.
        levels = Counter()
        for seed in range(40):
            observed, _ = self._run(seed, self._contention_world, lambda m: m.clone())
            for target, _, level, evicted, _ in observed:
                if target:
                    levels[level] += 1
                    levels["evicted"] += evicted
        assert min(levels["L3"], levels["DRAM"], levels["evicted"]) > 20, levels


class TestPinnedPointerFastPath:
    """A pointer the path already pins is concretized without the solver,
    to exactly what probing every candidate would have chosen."""

    TOUCHED = (13, 7, 21)

    def _access(self, pins, *, fast: bool):
        """One symbolic access on a path holding ``pins``; returns what it did."""
        hierarchy = tiny_hierarchy()
        region = MemoryRegion(name="buckets", length=64, element_size=8, base_address=1 << 30)
        pool = [region.base_address + i * 64 for i in range(8)]
        model = ContentionSetCacheModel(ContentionSets.from_oracle(hierarchy, pool))
        for index in self.TOUCHED:  # too small for contention: these become the candidates
            model.on_access(region, Const(index), False, lambda c: True, lambda e: index)
        symbol = Sym("h", 16)
        context = SolverContext()
        for value in pins:
            context.add(expr_eq(symbol, Const(value)))
        probes = []

        def feasible(constraint):
            probes.append(constraint)
            return context.feasible_with(constraint)

        pointer = make_binop(BinOpKind.AND, symbol, Const(0xFFF))
        decision = model.on_access(
            region, pointer, False, feasible, context.solve_value,
            context.pinned_value if fast else None,
        )
        return decision, vars(model.stats), len(probes), context

    @pytest.mark.parametrize(
        "pins, index, targeted",
        [
            ([7], 7, 1),  # pinned onto a candidate: that candidate wins
            ([40], 40, 0),  # pinned elsewhere: every candidate loses, fall back to the value
            ([1000], 63, 0),  # pinned out of range: the fallback clamps into the region
        ],
    )
    def test_pinned_pointer_skips_probing(self, pins, index, targeted):
        fast, fast_stats, fast_probes, _ = self._access(pins, fast=True)
        loop, loop_stats, loop_probes, _ = self._access(pins, fast=False)
        assert (fast, fast_stats) == (loop, loop_stats)
        assert (fast.index, fast_stats["contention_targeted"]) == (index, targeted)
        assert fast.constraint is expr_eq(make_binop(BinOpKind.AND, Sym("h", 16), Const(0xFFF)), Const(index))
        assert fast_probes == 0 and loop_probes >= 1

    def test_unpinned_and_unsat_paths_take_the_probe_loop(self):
        for pins in ([], [1, 2]):  # nothing pinned / contradictory pins
            fast, fast_stats, fast_probes, context = self._access(pins, fast=True)
            loop, loop_stats, loop_probes, _ = self._access(pins, fast=False)
            assert context.unsat == bool(pins)
            assert context.pinned_value(Sym("h", 16)) is None
            assert (fast, fast_stats, fast_probes) == (loop, loop_stats, loop_probes)
            assert fast_probes >= 1
        assert fast.index == 0  # unsat: no candidate is feasible and there is no value

    def test_pinned_value_needs_a_pinned_symbol(self):
        context = SolverContext()
        context.add(expr_eq(Sym("h", 16), Const(7)))
        assert context.pinned_value(make_binop(BinOpKind.AND, Sym("h", 16), Const(0xFFF))) == 7
        assert context.pinned_value(Sym("g", 16)) is None
        assert context.pinned_value(Const(5)) is None  # reads no symbol: probe as before

    @pytest.mark.parametrize("nf_name", ["nat-hash-ring", "policer-two-choice"])
    def test_analysis_is_identical_with_probing_forced(self, nf_name, monkeypatch):
        """Differential: the fast path changes no decision, constraint or count."""
        config = CastanConfig(max_states=60, num_packets=5, deadline_seconds=None)
        inner = ContentionSetCacheModel.on_access
        runs = []
        for forced in (False, True):
            decisions = []

            def recording(self, *args, _log=decisions):
                decision = inner(self, *args)
                _log.append((decision, vars(self.stats).copy()))
                return decision

            with monkeypatch.context() as patch:
                patch.setattr(ContentionSetCacheModel, "on_access", recording)
                if forced:
                    patch.setattr(SolverContext, "pinned_value", lambda self, expr: None)
                queries = CONTEXT_STATS.queries
                result = Castan(config).analyze(get_nf(nf_name))
                runs.append((decisions, canonical_result_digest(result), CONTEXT_STATS.queries - queries))
        (fast, fast_digest, fast_queries), (loop, loop_digest, loop_queries) = runs
        assert fast == loop and fast_digest == loop_digest
        assert any(decision.constraint is not None for decision, _ in fast)
        assert fast_queries < loop_queries // 2  # most probes hit pinned pointers


def _candidate_indices_rescanning(model: ContentionSetCacheModel, region: MemoryRegion) -> list[int]:
    """``_candidate_indices`` as it was before the shared slot lists, verbatim
    but for reading the touched lines and elements through the model's
    accessors: every call re-derives which addresses of each set lie inside
    the region."""
    self = model
    touched_lines = self.touched_lines()
    ranked = sorted(
        self._resident.items(),
        key=lambda item: len(item[1]),
        reverse=True,
    )
    candidates: list[int] = []
    for set_id, resident in ranked:
        if not resident:
            continue
        for address in self.contention_sets.addresses_in_set(set_id):
            if not region.contains_address(address):
                continue
            if self._line_of(address) in touched_lines:
                continue
            index = region.index_of(address)
            if 0 <= index < region.length:
                candidates.append(index)
            if len(candidates) >= self.max_candidates:
                return candidates
    for index in self.touched_window(region.name):
        if index not in candidates:
            candidates.append(index)
        if len(candidates) >= self.max_candidates:
            break
    return candidates


class TestRegionSlotIndex:
    """The in-region lines of a contention set are derived once per
    (region, set) and shared by every clone; candidates do not change."""

    SMOKE = dict(max_states=60, num_packets=5, deadline_seconds=None)

    @pytest.mark.parametrize("nf_name", EVALUATION_NF_NAMES)
    def test_candidates_equal_the_rescanning_loop(self, nf_name, monkeypatch):
        """On every model state a smoke-scale analysis consults."""
        inner = ContentionSetCacheModel._candidate_indices
        indexes: dict[int, RegionSlotIndex] = {}

        def checking(model, region):
            candidates = inner(model, region)
            assert candidates == _candidate_indices_rescanning(model, region)
            indexes[id(model.slot_index)] = model.slot_index
            return candidates

        monkeypatch.setattr(ContentionSetCacheModel, "_candidate_indices", checking)
        Castan(CastanConfig(**self.SMOKE)).analyze(get_nf(nf_name))
        # One index for the analysis' contention-set model, however often
        # the search cloned it.
        assert len(indexes) <= 1

    def test_contains_address_runs_once_per_region_set_and_address(self, monkeypatch):
        """nat-hash-ring at 200 states: ~110 calls per symbolic access before."""
        inner = MemoryRegion.contains_address
        seen = Counter()

        def counting(region, address):
            seen[region.name, region.base_address, address] += 1
            return inner(region, address)

        monkeypatch.setattr(MemoryRegion, "contains_address", counting)
        models = []
        build = Castan._build_cache_model

        def recording_build(castan, nf):
            models.append(build(castan, nf))
            return models[-1]

        monkeypatch.setattr(Castan, "_build_cache_model", recording_build)
        Castan(CastanConfig(max_states=200, deadline_seconds=None)).analyze(get_nf("nat-hash-ring"))
        (model, _), = models
        assert seen and max(seen.values()) == 1
        index = model.slot_index
        assert index.builds >= 1 and index.reuses > 10 * index.builds
        assert sum(seen.values()) == sum(
            len(model.contention_sets.addresses_in_set(key[0])) for key in index._slots
        )

    def test_clones_share_the_index_and_same_named_regions_do_not_collide(self):
        pool = [(1 << 30) + i * 64 for i in range(2048)]
        model = ContentionSetCacheModel(ContentionSets.from_oracle(tiny_hierarchy(), pool))
        assert model.clone().clone().slot_index is model.slot_index
        region = MemoryRegion(name="tbl", length=4096, element_size=64, base_address=1 << 30)
        moved = MemoryRegion(name="tbl", length=4096, element_size=64, base_address=(1 << 30) + 4096)
        index = model.slot_index
        set_id = model.contention_sets.set_id_of(pool[0])
        here = index.slots(region, set_id)
        there = index.slots(moved, set_id)
        assert (index.builds, index.reuses) == (2, 0)
        assert index.slots(region, set_id) is here
        assert (index.builds, index.reuses) == (2, 1)
        addresses = model.contention_sets.addresses_in_set(set_id)
        assert here == [(a // 64, region.index_of(a)) for a in addresses if region.contains_address(a)]
        assert there == [(a // 64, moved.index_of(a)) for a in addresses if moved.contains_address(a)]
        assert here != there
