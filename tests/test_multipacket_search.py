"""Tests for the per-packet beam-batched search and its satellite fixes:
beam-vs-monolithic differential behaviour, the paused-state lifecycle,
pending-report truncation, searcher seed threading and config handling."""

import pytest

from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.frontend.compiler import compile_nf
from repro.ir.module import Module
from repro.nf.registry import get_nf
from repro.symbex.batch import run_beam_search
from repro.symbex.engine import SymbolicEngine, SymbexStats, _drain_best_pending
from repro.symbex.expr import Sym
from repro.symbex.searcher import (
    BreadthFirstSearcher,
    CastanSearcher,
    RandomSearcher,
    make_searcher,
    select_beam,
)
from repro.symbex.state import StateStatus


def make_module(source, regions=None):
    module = Module("test")
    for name, (length, size, initial) in (regions or {}).items():
        module.add_region(name, length, size, initial=initial)
    compile_nf(module, source, entry="process")
    return module


def packet_symbols(index=0):
    return [
        Sym(f"p{index}.src_ip", 32),
        Sym(f"p{index}.dst_ip", 32),
        Sym(f"p{index}.src_port", 16),
        Sym(f"p{index}.dst_port", 16),
        Sym(f"p{index}.protocol", 8),
    ]


BRANCHY_SOURCE = """
def process(src_ip, dst_ip, src_port, dst_port, protocol):
    cost = 0
    i = 0
    while i < 4:
        if (dst_ip >> i) & 1 == 1:
            cost = cost + table[i]
        i = i + 1
    return cost
"""


def branchy_engine(num_packets=2):
    module = make_module(BRANCHY_SOURCE, regions={"table": (8, 8, {i: 5 for i in range(8)})})
    from repro.cfg.costs import annotate_costs

    annotation = annotate_costs(module, "process")
    return SymbolicEngine(
        module,
        "process",
        [packet_symbols(i) for i in range(num_packets)],
        annotation=annotation,
    )


class TestBeamDifferential:
    def test_beam_matches_monolithic_best_on_exhaustive_search(self):
        """With budgets large enough to exhaust the frontier, both search
        shapes must find the same best multi-packet path."""
        mono = branchy_engine().run(CastanSearcher(), max_states=10_000)
        beam = run_beam_search(
            branchy_engine(),
            CastanSearcher,
            beam_width=64,
            max_states=10_000,
            round_max_states=10_000,
            strike_chunk_states=10_000,
        )
        mono_best = mono.best_state()
        beam_best = beam.best_state()
        assert mono_best.status is StateStatus.COMPLETED
        assert beam_best.status is StateStatus.COMPLETED
        assert beam_best.current_cost == mono_best.current_cost
        assert [a for a in beam_best.packet_actions] == [a for a in mono_best.packet_actions]

    def test_beam_records_round_stats(self):
        stats = run_beam_search(
            branchy_engine(num_packets=3),
            CastanSearcher,
            beam_width=4,
            max_states=500,
        )
        assert stats.rounds
        prime_rounds = [r for r in stats.rounds if r.phase == "prime"]
        strike_rounds = [r for r in stats.rounds if r.phase == "strike"]
        assert len(prime_rounds) == 2  # packets 0 and 1
        assert strike_rounds and strike_rounds[0].packet_index == 2
        assert stats.states_explored == sum(r.states_explored for r in stats.rounds)

    def test_beam_width_zero_falls_back_to_monolithic(self):
        mono = branchy_engine().run(CastanSearcher(), max_states=10_000)
        fallback = run_beam_search(
            branchy_engine(), CastanSearcher, beam_width=0, max_states=10_000
        )
        assert not fallback.rounds
        assert fallback.best_state().current_cost == mono.best_state().current_cost
        assert fallback.states_explored == mono.states_explored

    def test_exhausted_budget_still_reports_a_fallback_state(self):
        """An already-elapsed deadline must not lose the seed frontier: the
        caller falls back to the best partial state, like the monolithic
        search does."""
        stats = run_beam_search(
            branchy_engine(), CastanSearcher, beam_width=4, deadline_seconds=0.0
        )
        assert stats.best_state() is not None

    def test_beam_pipeline_on_real_nf(self):
        config = CastanConfig(
            max_states=60,
            deadline_seconds=None,
            num_packets=3,
            search_mode="beam",
        )
        result = Castan(config).analyze(get_nf("lpm-patricia"))
        assert result.search_mode == "beam"
        assert result.search_rounds >= 3
        assert result.packet_count >= 1
        assert result.best_state_cost > 0


class TestPausedLifecycle:
    def test_stop_at_packet_parks_states_at_boundary(self):
        engine = branchy_engine(num_packets=2)
        stats = engine.run(CastanSearcher(), max_states=10_000, stop_at_packet=1)
        assert stats.paused_states
        assert not stats.completed_states
        assert all(s.status is StateStatus.PAUSED for s in stats.paused_states)
        assert all(s.packets_processed == 1 for s in stats.paused_states)

    def test_resume_continues_into_next_packet(self):
        engine = branchy_engine(num_packets=2)
        first = engine.run(CastanSearcher(), max_states=10_000, stop_at_packet=1)
        second = engine.run(
            CastanSearcher(),
            max_states=10_000,
            initial_states=first.paused_states,
        )
        assert second.completed_states
        best = second.best_state()
        assert best.packets_processed == 2
        assert len(best.packet_metrics) == 2

    def test_pause_resume_guards(self):
        engine = branchy_engine()
        state = engine.make_initial_state()
        with pytest.raises(ValueError):
            state.resume_round()
        state.pause_at_round_boundary()
        assert state.status is StateStatus.PAUSED
        with pytest.raises(ValueError):
            state.pause_at_round_boundary()
        state.resume_round()
        assert state.status is StateStatus.RUNNING

    def test_select_beam_prefers_priority_and_is_deterministic(self):
        engine = branchy_engine()
        states = [engine.make_initial_state() for _ in range(4)]
        for i, state in enumerate(states):
            state.priority = i
        beam = select_beam(states, 2)
        assert beam == [states[3], states[2]]
        assert select_beam(states, 0) == []
        # Ties break toward the earliest-created state.
        for state in states:
            state.priority = 7
        assert select_beam(states, 1) == [states[0]]


class TestPendingReportTruncation:
    def test_drain_keeps_global_best_under_truncation(self):
        """Regression: under FIFO pop order the true best pending state used
        to be dropped when the report set was truncated."""
        engine = branchy_engine()
        searcher = BreadthFirstSearcher()
        states = [engine.make_initial_state() for _ in range(6)]
        # Costs increase, so FIFO pop order sees the best state *last*.
        for i, state in enumerate(states):
            state.current_cost = i * 100
            searcher.add(state)
        report = _drain_best_pending(searcher, limit=2)
        assert len(report) == 2
        assert states[-1] in report and states[-2] in report

    def test_drain_preserves_pop_order_when_not_truncated(self):
        engine = branchy_engine()
        searcher = BreadthFirstSearcher()
        states = [engine.make_initial_state() for _ in range(3)]
        for state in states:
            searcher.add(state)
        assert _drain_best_pending(searcher, limit=10) == states

    def test_best_state_considers_paused_states(self):
        engine = branchy_engine()
        paused, pending = engine.make_initial_state(), engine.make_initial_state()
        paused.packets_processed, paused.current_cost = 2, 50
        pending.packets_processed, pending.current_cost = 1, 500
        stats = SymbexStats(paused_states=[paused], pending_states=[pending])
        assert stats.best_state() is paused


class TestSearcherSeedThreading:
    def test_random_searcher_honors_seed(self):
        engine = branchy_engine()
        states = [engine.make_initial_state() for _ in range(8)]
        runs = []
        for _ in range(2):
            searcher = make_searcher("random", seed=1234)
            for state in states:
                searcher.add(state)
            runs.append([searcher.pop().sid for _ in range(len(states))])
        assert runs[0] == runs[1]
        assert isinstance(make_searcher("random", seed=0), RandomSearcher)

    def test_seed_ignored_by_deterministic_searchers(self):
        assert isinstance(make_searcher("castan", seed=99), CastanSearcher)
        assert isinstance(make_searcher("bfs", seed=99), BreadthFirstSearcher)

    def test_castan_config_seed_reaches_random_ablation(self):
        config = CastanConfig(
            max_states=40, deadline_seconds=None, num_packets=2, searcher="random", seed=7
        )
        first = Castan(config).analyze(get_nf("lpm-patricia"))
        second = Castan(config).analyze(get_nf("lpm-patricia"))
        assert [p.flow_tuple for p in first.packets] == [p.flow_tuple for p in second.packets]


class TestConfigHandling:
    def test_unknown_search_mode_raises(self):
        with pytest.raises(ValueError, match="search_mode"):
            Castan(CastanConfig(search_mode="astar")).analyze(get_nf("nop"))

    def test_explicit_zero_packets_is_honored(self):
        """Regression: ``num_packets=0`` used to fall back to the per-NF
        default via a truthiness check."""
        config = CastanConfig(max_states=10, deadline_seconds=None)
        result = Castan(config).analyze(get_nf("nop"), num_packets=0)
        assert result.packet_count == 0
        assert CastanConfig(num_packets=0).packets_for(10) == 0
        assert CastanConfig(num_packets=None).packets_for(10) == 10

    def test_eval_scale_warning(self, monkeypatch):
        from repro.eval.experiments import EvalSettings

        monkeypatch.setenv("REPRO_EVAL_SCALE", "bogus")
        with pytest.warns(RuntimeWarning, match="REPRO_EVAL_SCALE"):
            settings = EvalSettings.from_environment()
        assert settings == EvalSettings()

    def test_eval_scale_known_values_do_not_warn(self, monkeypatch):
        import warnings

        from repro.eval.experiments import EvalSettings

        for scale in ("smoke", "quick", "full"):
            monkeypatch.setenv("REPRO_EVAL_SCALE", scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                EvalSettings.from_environment()
