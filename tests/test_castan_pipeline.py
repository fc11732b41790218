"""End-to-end tests of the CASTAN pipeline: analysis, workload synthesis,
havoc reconciliation, pcap output and adversarial effect on the testbed."""

import dataclasses
import gc
import logging
import threading

import pytest

from repro.core import castan as castan_module
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.core.workload import make_packet_symbols, packets_from_model, symbol_defaults
from repro.frontend.compiler import compile_nf
from repro.hashing.functions import FLOW_HASH_DIALECT_SOURCE, flow_hash16, lb_flow_key
from repro.ir.module import Module
from repro.net.pcap import read_pcap
from repro.nf.base import NetworkFunction
from repro.nf.common import HASH_TABLE_BUCKETS, VIP_ADDRESS, middlebox_packet_defaults
from repro.nf.registry import get_nf
from repro.service.store import canonical_result_digest, perf_record, result_summary
from repro.hashing.rainbow import RainbowTable
from repro.symbex.engine import SymbolicEngine
from repro.symbex import havoc as havoc_module
from repro.symbex.expr import (
    BinOpKind,
    CmpKind,
    Const,
    Sym,
    evaluate,
    expr_eq,
    make_binop,
    make_cmp,
    reduce_expr,
)
from repro.symbex.havoc import (
    _PIN_CONFLICT,
    HavocRecord,
    ReconciliationOutcome,
    _decompose_key_pin,
    reconcile_havocs,
)
from repro.symbex.incremental import CONTEXT_STATS, clear_incremental_caches, replay_context
from repro.symbex.solver import Model, Solver
from repro.testbed.measure import measure_latency
from repro.workloads.generators import make_castan_workload, make_unirand_castan_workload


def quick_config(**overrides) -> CastanConfig:
    defaults = dict(max_states=150, deadline_seconds=8.0, num_packets=6)
    defaults.update(overrides)
    return CastanConfig(**defaults)


class TestWorkloadSymbols:
    def test_packet_symbol_naming_and_widths(self):
        sets = make_packet_symbols(3)
        assert len(sets) == 3
        assert sets[1].symbols["dst_ip"].name == "pkt1.dst_ip"
        assert sets[1].symbols["protocol"].bits == 8

    def test_defaults_produce_distinct_flows(self):
        sets = make_packet_symbols(4)
        defaults = symbol_defaults(sets, {"src_ip": 100, "src_port": 10, "protocol": 17})
        ips = {defaults[s.symbol_name_field] for s in [] } if False else None
        src_ips = [defaults[f"pkt{i}.src_ip"] for i in range(4)]
        assert len(set(src_ips)) == 4

    def test_packets_from_model_uses_model_then_defaults(self):
        sets = make_packet_symbols(2)
        model = Model(values={"pkt0.dst_ip": 0x01020304, "pkt0.protocol": 6})
        packets = packets_from_model(sets, model, {"dst_ip": 0x0A000001, "protocol": 17})
        assert packets[0].dst_ip == 0x01020304 and packets[0].protocol == 6
        assert packets[1].dst_ip == 0x0A000001 and packets[1].protocol == 17


class TestPipeline:
    def test_lpm_direct_contention_workload(self):
        nf = get_nf("lpm-direct")
        result = Castan(quick_config(num_packets=24)).analyze(nf)
        assert result.packet_count == 24
        assert result.unique_flows > 1
        assert result.contention_sets_used > 0
        # The synthesized destinations must map to very few L3 contention
        # sets — that is the whole point of the workload.
        from repro.cache.contention import ContentionSets
        from repro.cache.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(Castan(quick_config()).config.hierarchy)
        region = nf.module.get_region("dl_table")
        shift = 32 - 18
        keys = {
            hierarchy.oracle_contention_key(region.address_of(p.dst_ip >> shift))
            for p in result.packets
        }
        assert len(keys) <= 3

    def test_lpm_patricia_beats_typical_depth(self):
        nf = get_nf("lpm-patricia")
        result = Castan(quick_config(num_packets=4, max_states=400)).analyze(nf)
        assert result.metrics.max_estimated_cycles_per_packet > 0
        # At least one synthesized packet matches deep (long-prefix) routes.
        deep = [p for p in result.packets if p.dst_ip >> 24 == 10]
        assert deep

    def test_lb_hash_table_collisions_after_reconciliation(self):
        nf = get_nf("lb-hash-table")
        result = Castan(quick_config(num_packets=5, max_states=250)).analyze(nf)
        assert result.havoc_outcome is not None
        assert result.packet_count == 5
        # Reconciled havocs mean the concrete packets really collide in the
        # bucket index; require at least a couple of packets in one bucket.
        buckets = [
            flow_hash16(lb_flow_key(p.src_ip, p.src_port, p.dst_port)) & (HASH_TABLE_BUCKETS - 1)
            for p in result.packets
            if p.dst_ip == VIP_ADDRESS
        ]
        if result.havoc_outcome.reconciled:
            assert len(set(buckets)) < len(buckets)

    def test_lb_unbalanced_tree_costs_grow_per_packet(self):
        nf = get_nf("lb-unbalanced-tree")
        result = Castan(quick_config(num_packets=6, max_states=300)).analyze(nf)
        instructions = result.metrics.instructions_per_packet
        assert instructions[-1] > instructions[0]

    def test_result_pcap_roundtrip(self, tmp_path):
        nf = get_nf("lpm-direct")
        result = Castan(quick_config(num_packets=4)).analyze(nf)
        path = tmp_path / "castan.pcap"
        assert result.write_pcap(path) == result.packet_count
        restored = read_pcap(path)
        assert [p.dst_ip for p in restored] == [p.dst_ip for p in result.packets]

    def test_metrics_report_renders(self):
        nf = get_nf("lpm-direct")
        result = Castan(quick_config(num_packets=3)).analyze(nf)
        report = result.metrics.to_report()
        assert "est.cycles" in report and "havocs reconciled" in report
        assert result.summary().startswith("CASTAN[lpm-direct]")

    def test_searcher_and_cache_model_ablation_options(self):
        nf = get_nf("lpm-patricia")
        castan = Castan(quick_config(num_packets=3, searcher="random", cache_model="none"))
        result = castan.analyze(nf)
        assert result.packet_count >= 1
        assert result.contention_sets_used == 0

    def test_red_black_tree_resists_skew(self):
        # CASTAN should NOT find a strongly growing path in the RB tree: the
        # per-packet instruction counts stay within a small factor.
        nf = get_nf("lb-red-black-tree")
        result = Castan(quick_config(num_packets=6, max_states=250)).analyze(nf)
        instructions = [i for i in result.metrics.instructions_per_packet if i > 0]
        assert instructions
        assert max(instructions) <= 4 * min(instructions)


class TestUnsolvedPathsAreReported:
    """A final solve that is not ``sat`` is loud, and costs what it should."""

    DETERMINISTIC = dict(max_states=200, deadline_seconds=None)

    @pytest.mark.parametrize(
        "name",
        ["lb-unbalanced-tree", "lb-red-black-tree", "nat-unbalanced-tree", "nat-red-black-tree"],
    )
    def test_contradictory_tree_path_is_proven_unsat_and_reported(self, name, caplog):
        # The selected tree paths order one pair of keys both ways (bst_find
        # and bst_insert of one packet take opposite sides), so the honest
        # status is unsat — by an ordering proof, not an exhausted search.
        CONTEXT_STATS.reset()
        with caplog.at_level(logging.WARNING, logger="repro.core.castan"):
            result = Castan(CastanConfig(**self.DETERMINISTIC)).analyze(get_nf(name))
        assert result.solver_status == "unsat"
        assert result.unsolved_reason.startswith("ordering contradiction: ")
        assert CONTEXT_STATS.order_unsat_proofs >= 1
        (record,) = caplog.records
        message = record.getMessage()
        assert name in message and "unsat" in message and result.unsolved_reason in message
        assert "emitting defaults-only packets" in message
        assert result.unsolved_reason in result.summary()
        assert result_summary(result)["unsolved_reason"] == result.unsolved_reason
        # The reason explains the status; it is not part of the result's identity.
        solved_elsewhere = dataclasses.replace(result, unsolved_reason="")
        assert canonical_result_digest(solved_elsewhere) == canonical_result_digest(result)

    def test_a_solved_path_reports_no_reason(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.castan"):
            result = Castan(CastanConfig(**self.DETERMINISTIC)).analyze(get_nf("lpm-patricia"))
        assert result.solver_status == "sat" and result.unsolved_reason == ""
        assert not caplog.records
        assert "NOT solved" not in result.summary()

    @pytest.mark.parametrize("name", ["lb-red-black-tree", "nat-hash-ring"])
    def test_propagation_waves_visit_what_changed_not_the_whole_path(self, name):
        # A count, not a timing: per feasibility query or committed
        # constraint a wave re-propagates the new constraint plus whatever
        # it wakes.  Visiting the whole pending list in round 0 alone, as the
        # waves once did, reads 22 and 13 here.
        clear_incremental_caches()  # an earlier analysis' memos would answer everything
        CONTEXT_STATS.reset()
        Castan(CastanConfig(**self.DETERMINISTIC)).analyze(get_nf(name))
        waves = CONTEXT_STATS.queries + CONTEXT_STATS.adds
        assert waves > 500
        assert CONTEXT_STATS.wave_visits / waves < 1.5
        assert CONTEXT_STATS.wave_skips > 10 * CONTEXT_STATS.wave_visits
        if name == "lb-red-black-tree":
            # Most tree queries are two-sided key comparisons, which no wave
            # can propagate: the blind path answers them without one.
            assert CONTEXT_STATS.blind_queries >= 0.5 * CONTEXT_STATS.queries
            assert CONTEXT_STATS.blind_adds >= 0.5 * CONTEXT_STATS.adds

    @pytest.mark.parametrize("search_mode", ["monolithic", "beam"])
    def test_dead_states_reach_the_summaries_but_not_the_digest(self, search_mode):
        # Port 7 indexes past the table inside lookup (an error state).  A
        # protocol above 200 stores to the clamped index 3, which contradicts
        # the path, so classify's branch has no feasible side (infeasible).
        module = Module("dying")
        module.add_region("table", 4, 8)
        compile_nf(
            module,
            """
def lookup(i):
    return table[i]


def classify(x):
    if x == 1:
        return 1
    return 0


def process(src_ip, dst_ip, src_port, dst_port, protocol):
    if dst_port == 7:
        return lookup(100)
    if protocol > 200:
        table[protocol] = 1
        return classify(src_ip)
    return 0
""",
            entry="process",
        )
        nf = NetworkFunction(
            name="dying",
            module=module,
            description="states that die in helper functions",
            packet_defaults=middlebox_packet_defaults(),
            castan_packet_count=2,
        )
        config = CastanConfig(search_mode=search_mode, **self.DETERMINISTIC)
        result = Castan(config).analyze(nf)
        ((where, infeasible),) = result.infeasible_by_function
        ((error_where, errors),) = result.errors_by_function
        assert (where, error_where) == ("classify", "lookup")
        assert f"{infeasible} infeasible states (classify {infeasible})" in result.summary()
        assert f"{errors} error states (lookup {errors})" in result.summary()
        for record in (result_summary(result), perf_record(result)):
            assert record["infeasible_by_function"] == {"classify": infeasible}
            assert record["errors_by_function"] == {"lookup": errors}
        digest = canonical_result_digest(result)
        healthy = dataclasses.replace(result, infeasible_by_function=(), errors_by_function=())
        assert canonical_result_digest(healthy) == digest
        assert "states (" not in healthy.summary()


TWEAKED_HASH_SOURCE = """
def tweaked_hash16(key):
    return flow_hash16(key ^ 0x5A5A5A5A)


def process(src_ip, dst_ip, src_port, dst_port, protocol):
    key = src_ip | (src_port << 32) | (dst_port << 48)
    slot = castan_havoc(key, tweaked_hash16(key)) & 255
    buckets[slot] = buckets[slot] + 1
    return 1
"""


def tweaked_hash16(key: int) -> int:
    return flow_hash16(key ^ 0x5A5A5A5A)


class TestRainbowTablesPerNF:
    def test_nf_with_its_own_hash_gets_a_table_for_that_hash(self, tmp_path, monkeypatch):
        """A ``flow_hash16`` table for another hash fails every havoc, silently."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        module = Module("tweaked")
        module.add_region("buckets", 256, 8)
        compile_nf(module, FLOW_HASH_DIALECT_SOURCE + TWEAKED_HASH_SOURCE, entry="process")
        nf = NetworkFunction(
            name="tweaked",
            module=module,
            description="hash table indexed by a hash other than flow_hash16",
            nf_class="lb",
            data_structure="hash-table",
            hash_functions={"tweaked_hash16": tweaked_hash16},
            hash_output_bits={"tweaked_hash16": 16},
            packet_defaults=middlebox_packet_defaults(),
            castan_packet_count=4,
        )
        castan = Castan(
            quick_config(num_packets=4, max_states=60, rainbow_chains=2048)
        )
        result = castan.analyze(nf)
        assert result.havoc_outcome.reconciled and not result.havoc_outcome.failed
        table = castan._rainbow_tables(nf)["tweaked_hash16"]
        assert table.hash_fn is tweaked_hash16
        assert table is Castan(castan.config)._rainbow_tables(nf)["tweaked_hash16"]  # per process
        assert not list(tmp_path.iterdir())  # and never persisted

    def test_corrupt_cache_file_never_changes_the_result(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        config = quick_config(deadline_seconds=None, max_states=60, num_packets=5)
        digests = []
        for corrupt in (False, True, False):
            monkeypatch.setattr(castan_module, "_RAINBOW_TABLE_CACHE", {})
            if corrupt:
                (cached,) = (tmp_path / "castan-repro").iterdir()
                raw = bytearray(cached.read_bytes())
                raw[len(raw) // 2] ^= 0xFF
                cached.write_bytes(raw)
            with caplog.at_level(logging.WARNING, logger="repro.hashing.rainbow"):
                result = Castan(config).analyze(get_nf("nat-hash-table"))
            assert ("failed its checksum" in caplog.text) == corrupt
            caplog.clear()
            digests.append(canonical_result_digest(result))
        assert result.havoc_outcome.reconciled  # the table was really used
        assert len(set(digests)) == 1


HAVOC_NFS = (
    "lb-hash-table", "lb-hash-ring", "nat-hash-table", "nat-hash-ring",
    "policer-two-choice", "dedup-bloom", "chain-gateway", "chain-edge",
)


def _reconcile_havocs_with_from_scratch_checks(
    records, constraints, model, solver, rainbow_tables, hash_functions,
    defaults=None, max_candidates_per_havoc=16,
):
    """``reconcile_havocs`` as it was when every trial was a from-scratch
    ``Solver.check`` over the whole path, verbatim."""
    outcome = ReconciliationOutcome(model=model.copy())
    working_constraints = list(constraints)
    context = replay_context(solver, working_constraints)
    pinned: dict[str, int] = dict(context.pinned_assignment())

    for record in records:
        table = rainbow_tables.get(record.hash_function)
        hash_fn = hash_functions.get(record.hash_function)
        if table is None or hash_fn is None:
            outcome.failed.append(record)
            continue

        desired_hash = outcome.model.get(record.symbol.name, 0)
        candidate_keys = list(table.invert(desired_hash, limit=max_candidates_per_havoc))
        reconciled = False
        for candidate_key in candidate_keys:
            outcome.attempts += 1
            actual_hash = hash_fn(candidate_key)
            if actual_hash != desired_hash:
                continue
            fields = _decompose_key_pin(record.key_expr, candidate_key)
            if fields is _PIN_CONFLICT:
                continue
            if isinstance(fields, dict):
                if any(pinned.get(name, value) != value for name, value in fields.items()):
                    continue
                trial_assignment = dict(pinned)
                trial_assignment.update(fields)
                trial_assignment[record.symbol.name] = desired_hash
                if any(
                    isinstance(r, Const) and r.value == 0
                    for r in (
                        reduce_expr(c, trial_assignment) for c in working_constraints
                    )
                ):
                    continue
            trial_constraints = working_constraints + [
                expr_eq(record.key_expr, Const(candidate_key)),
                expr_eq(record.symbol, Const(desired_hash)),
            ]
            result = solver.check(trial_constraints, defaults=defaults)
            if result.is_sat:
                working_constraints = trial_constraints
                outcome.model = result.model
                outcome.reconciled.append(record)
                reconciled = True
                context.add(trial_constraints[-2])
                context.add(trial_constraints[-1])
                pinned.update(context.pinned_assignment())
                if isinstance(fields, dict):
                    pinned.update(fields)
                pinned[record.symbol.name] = desired_hash
                break
        if not reconciled:
            outcome.failed.append(record)

    if not outcome.reconciled:
        final = solver.check(working_constraints, defaults=defaults)
        if final.is_sat:
            outcome.model = final.model
    return outcome


class TestReconciliationTrialsForkTheContext:
    """Trials on forked contexts accept what from-scratch trials accepted."""

    @pytest.mark.parametrize("nf_name", HAVOC_NFS)
    def test_same_outcome_as_from_scratch_trials(self, nf_name, monkeypatch):
        compared = []

        def both(**kwargs):
            expected = _reconcile_havocs_with_from_scratch_checks(**kwargs)
            outcome = reconcile_havocs(**kwargs)
            assert outcome.model.values == expected.model.values
            assert outcome.reconciled == expected.reconciled and outcome.failed == expected.failed
            assert outcome.attempts == expected.attempts
            compared.append(outcome)
            return outcome

        monkeypatch.setattr(castan_module, "reconcile_havocs", both)
        config = quick_config(deadline_seconds=None, max_states=60, num_packets=5)
        result = Castan(config).analyze(get_nf(nf_name))
        assert compared == [result.havoc_outcome] and result.havoc_outcome.total


class TestResumedModelChecks:
    """Every check that starts from a context's fixpoint — the final solve,
    the search's slow-path values, a reconciliation trial no witness proves —
    returns what a from-scratch ``Solver.check`` over the same constraints
    returns."""

    @pytest.mark.parametrize("nf_name", HAVOC_NFS)
    def test_resumed_checks_equal_from_scratch_checks(self, nf_name, monkeypatch):
        inner_check = Solver.check
        phase = ["search"]
        resumed: dict[str, int] = {}

        def compared_check(solver, constraints, defaults=None, context=None):
            result = inner_check(solver, constraints, defaults=defaults, context=context)
            if context is not None:
                assert list(constraints) == context.constraints()
                scratch = inner_check(solver, constraints, defaults=defaults)
                assert (result.status, result.reason) == (scratch.status, scratch.reason)
                assert (result.model and result.model.values) == (
                    scratch.model and scratch.model.values
                )
                if context.fixpoint() is not None:
                    resumed[phase[0]] = resumed.get(phase[0], 0) + 1
            return result

        def in_phase(name, call):
            def wrapper(*args, **kwargs):
                outer, phase[0] = phase[0], name
                try:
                    return call(*args, **kwargs)
                finally:
                    phase[0] = outer

            return wrapper

        monkeypatch.setattr(Solver, "check", compared_check)
        monkeypatch.setattr(Castan, "_solve_state", in_phase("final", Castan._solve_state))
        monkeypatch.setattr(
            castan_module, "reconcile_havocs", in_phase("reconcile", reconcile_havocs)
        )
        clear_incremental_caches()  # every memoised result is computed, and compared, here
        config = quick_config(deadline_seconds=None, max_states=60, num_packets=5)
        result = Castan(config).analyze(get_nf(nf_name))
        outcome = result.havoc_outcome
        assert outcome.total
        # The final solve resumed; every accepted trial was proved by its
        # witness, so reconciliation searched nothing.
        assert resumed["final"] == 1
        assert outcome.witnessed == len(outcome.reconciled)
        assert outcome.searched == 0


#: The havoc NFs that reconcile at least one havoc at smoke scale.
RECONCILING_NFS = (
    "lb-hash-table", "lb-hash-ring", "nat-hash-table", "nat-hash-ring", "policer-two-choice",
)

A16, B16, H8 = Sym("a", 16), Sym("b", 16), Sym("h", 8)


class _OneCandidateTable:
    """Inverts the toy hash ``key & 0xFF`` to the single key ``0x100 | value``."""

    def invert(self, target_hash, limit=8):
        return [0x100 | target_hash]


def _toy_reconcile(key_expr, model=None):
    """Reconcile one havoc ``h = key & 0xFF`` on the path ``a < 0x200, h == 0x23``."""
    solver = Solver()
    constraints = [make_cmp(CmpKind.ULT, A16, Const(0x200)), expr_eq(H8, Const(0x23))]
    if model is None:
        model = solver.check(constraints).model
    record = HavocRecord(symbol=H8, key_expr=key_expr, hash_function="toy")
    outcome = reconcile_havocs(
        records=[record],
        constraints=constraints,
        model=model,
        solver=solver,
        rainbow_tables={"toy": _OneCandidateTable()},
        hash_functions={"toy": lambda key: key & 0xFF},
    )
    assert outcome.reconciled == [record]
    assert evaluate(key_expr, outcome.model.values) == 0x123
    assert all(evaluate(c, outcome.model.values) for c in constraints)
    return outcome


class TestWitnessedTrials:
    """An accepted trial is proved by the current model with the candidate's
    key fields and hash value substituted; a model search is the fallback."""

    @pytest.mark.parametrize("nf_name", RECONCILING_NFS)
    def test_a_failed_witness_falls_back_to_the_search(self, nf_name, monkeypatch):
        compared = []

        def both(**kwargs):
            expected = reconcile_havocs(**kwargs)
            with monkeypatch.context() as patch:
                patch.setattr(havoc_module, "_witness", lambda *args: None)
                outcome = reconcile_havocs(**kwargs)
            assert outcome.model.values == expected.model.values
            assert outcome.reconciled == expected.reconciled and outcome.failed == expected.failed
            assert outcome.attempts == expected.attempts
            assert (outcome.witnessed, outcome.searched) == (0, len(outcome.reconciled))
            compared.append(outcome)
            return outcome

        monkeypatch.setattr(castan_module, "reconcile_havocs", both)
        config = quick_config(deadline_seconds=None, max_states=60, num_packets=5)
        result = Castan(config).analyze(get_nf(nf_name))
        assert compared == [result.havoc_outcome] and result.havoc_outcome.reconciled

    def test_a_disjoint_field_key_is_witnessed(self):
        key = make_binop(BinOpKind.OR, A16, make_binop(BinOpKind.SHL, B16, Const(16)))
        outcome = _toy_reconcile(key)
        assert (outcome.witnessed, outcome.searched) == (1, 0)

    def test_a_key_that_does_not_decompose_is_searched(self):
        assert _decompose_key_pin(make_binop(BinOpKind.ADD, A16, B16), 0x123) is None
        outcome = _toy_reconcile(make_binop(BinOpKind.ADD, A16, B16))
        assert (outcome.witnessed, outcome.searched) == (0, 1)

    def test_the_counts_reach_the_summaries_but_not_the_digest(self):
        config = quick_config(deadline_seconds=None, max_states=60, num_packets=5)
        result = Castan(config).analyze(get_nf("lb-hash-table"))
        havoc = result.havoc_outcome
        assert (havoc.witnessed, havoc.searched) == (3, 0)
        assert f"havocs reconciled 3/{havoc.total} (3 by witness, 0 searched)" in result.summary()
        for record in (result_summary(result), perf_record(result)):
            assert (record["havocs_witnessed"], record["havocs_searched"]) == (3, 0)
        digest = canonical_result_digest(result)
        havoc.witnessed, havoc.searched = 0, 3
        assert canonical_result_digest(result) == digest

    def test_a_caller_model_that_violates_the_path_turns_witnesses_off(self, caplog):
        key = make_binop(BinOpKind.OR, A16, make_binop(BinOpKind.SHL, B16, Const(16)))
        violating = Model(values={"a": 0x300, "h": 0x23})  # breaks a < 0x200
        with caplog.at_level(logging.WARNING, logger="repro.symbex.havoc"):
            outcome = _toy_reconcile(key, model=violating)
        assert (outcome.witnessed, outcome.searched) == (0, 1)
        assert "violates the path constraints" in caplog.text

    @pytest.mark.parametrize("values", [None, {"a": 0x300, "h": 0x23}])
    def test_with_nothing_reconciled_the_model_is_the_solvers(self, values):
        """A solver model comes back unchanged; a violating one is re-solved."""
        solver = Solver()
        constraints = [make_cmp(CmpKind.ULT, A16, Const(0x200)), expr_eq(H8, Const(0x23))]
        solved = solver.check(constraints).model
        record = HavocRecord(symbol=H8, key_expr=A16, hash_function="toy")
        outcome = reconcile_havocs(
            records=[record],
            constraints=constraints,
            model=Model(values=values) if values else solved,
            solver=solver,
            rainbow_tables={},
            hash_functions={},
        )
        assert outcome.failed == [record] and not outcome.reconciled
        assert outcome.model.values == solved.values


class TestLookupCounters:
    def test_every_stored_key_a_lookup_examines_is_a_true_preimage(self, monkeypatch):
        """nat-hash-ring at 200 states: no false alarms, by construction."""
        monkeypatch.setattr(castan_module, "_RAINBOW_TABLE_CACHE", {})
        examined = []
        inner = RainbowTable.invert

        def recording(table, target_hash, limit=8):
            before = table.stats.chain_walks
            keys = inner(table, target_hash, limit)
            assert all(table.hash_fn(key) & table.hash_mask == target_hash for key in keys)
            examined.append(table.stats.chain_walks - before)
            assert len(keys) <= examined[-1]
            return keys

        monkeypatch.setattr(RainbowTable, "invert", recording)
        castan = Castan(quick_config(deadline_seconds=None, max_states=200, num_packets=None))
        nf = get_nf("nat-hash-ring")
        result = castan.analyze(nf)
        (table,) = castan._rainbow_tables(nf).values()
        assert table.stats.lookups == len(examined) == result.havoc_outcome.total > 0
        assert table.stats.false_alarms == 0
        assert table.stats.chain_walks == sum(examined) > 0


class TestCyclicGcPause:
    """``Castan.analyze`` pauses automatic cyclic collection and restores it."""

    CONFIG = dict(deadline_seconds=None, max_states=40, num_packets=2)

    @pytest.fixture(autouse=True)
    def gc_enabled(self):
        assert gc.isenabled()
        yield
        gc.enable()

    @staticmethod
    def _analyze(on_round=None, **overrides):
        config = CastanConfig(**{**TestCyclicGcPause.CONFIG, **overrides})
        return Castan(config).analyze(get_nf("lpm-patricia"), on_round=on_round)

    @pytest.mark.parametrize("search_mode", ["monolithic", "beam"])
    def test_paused_inside_enabled_after(self, search_mode):
        inside = []
        self._analyze(lambda stats: inside.append(gc.isenabled()), search_mode=search_mode)
        assert inside and not any(inside)
        assert gc.isenabled()

    def test_nested_analyses_restore_once_at_the_outermost_exit(self):
        seen = []

        def nested(stats):
            if not seen:
                seen.append("inner")
                self._analyze()
                seen.append(gc.isenabled())  # the inner exit must not re-enable

        self._analyze(nested)
        assert seen == ["inner", False] and gc.isenabled()

    def test_an_engine_that_raises_restores_collection(self, monkeypatch):
        def explode(*args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("engine failed")

        monkeypatch.setattr(SymbolicEngine, "run", explode)
        with pytest.raises(RuntimeError, match="engine failed"):
            self._analyze()
        assert gc.isenabled()

    def test_a_caller_with_collection_off_stays_off(self):
        gc.disable()
        self._analyze()
        assert not gc.isenabled()

    def test_two_overlapping_threads_restore_after_the_last_one(self):
        """The first thread to finish must leave collection paused for the other."""
        both_inside = threading.Barrier(2)
        first_done = threading.Event()
        observed: dict[str, bool] = {}
        failures: list[Exception] = []

        def run(name: str) -> None:
            def on_round(stats):
                if name not in observed:
                    observed[name] = True
                    both_inside.wait(timeout=30)
                    if name == "second":
                        assert first_done.wait(timeout=30)
                        observed["paused while first is gone"] = not gc.isenabled()

            try:
                self._analyze(on_round)
            except Exception as error:  # reported by the assertion below
                failures.append(error)
            if name == "first":
                first_done.set()

        threads = [threading.Thread(target=run, args=(name,)) for name in ("first", "second")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads) and not failures
        assert observed.get("paused while first is gone") is True
        assert gc.isenabled()

    @pytest.mark.parametrize("nf_name", ["nat-hash-ring", "lb-red-black-tree", "chain-edge"])
    def test_the_analysis_heap_has_almost_no_cycles(self, nf_name):
        """What makes the pause safe: unreachable cycles are a per-analysis
        constant (the ICFG and cost annotation), none per explored state, so
        leaving them to the next collection after the analysis does not grow
        peak memory.  Measured on nat-hash-ring: 274 objects at 60 and at 300
        states (the solver's self-calling local closures once added ~2.4 per
        state on hash NFs)."""

        def unreachable_after(max_states: int) -> int:
            nf = get_nf(nf_name)
            gc.collect()
            gc.disable()
            try:
                Castan(
                    CastanConfig(deadline_seconds=None, max_states=max_states, num_packets=5)
                ).analyze(nf)
                return gc.collect()
            finally:
                gc.enable()

        small = unreachable_after(60)
        assert small < 1500
        assert unreachable_after(300) <= small


class TestAdversarialEffect:
    def test_castan_workload_hurts_lpm_direct_more_than_unirand_castan(self):
        nf = get_nf("lpm-direct")
        result = Castan(quick_config(num_packets=24)).analyze(nf)
        castan_workload = make_castan_workload(result.packets)
        fair_comparison = make_unirand_castan_workload(nf, castan_workload.flow_count)
        castan_measure = measure_latency(nf, castan_workload, replay_packets=600)
        fair_measure = measure_latency(nf, fair_comparison, replay_packets=600)
        assert (
            castan_measure.counter_summary.median_l3_misses
            >= fair_measure.counter_summary.median_l3_misses
        )
