"""Tests for ``CastanConfig`` content addressing (repro.core.config).

The service result store keys analyses by ``content_hash()``, so the hash
must be *stable* (same config → same hash across processes, field orders
and construction paths) and *complete* (any field change → different
hash).  A golden hash pins the canonical form itself: if canonicalization
drifts, this file fails before any stored result can be mis-served.
"""

from __future__ import annotations

import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.castan as castan_module
import repro.scoring.distill as distill_module
from repro.cfg.costs import annotate_costs
from repro.core.config import CONFIG_HASH_VERSION, CastanConfig
from repro.hashing.rainbow import FLOW_TABLE_CHAIN_LENGTH, build_flow_rainbow_table
from repro.perf.cycles import CycleCosts
from repro.symbex.batch import run_beam_search
from repro.symbex.engine import SymbolicEngine

#: sha256 of the canonical form of the all-defaults config.  If this test
#: fails after an intentional change to CastanConfig (new field, changed
#: default, different canonical form), bump CONFIG_HASH_VERSION and repin —
#: old stored service results must not be addressable by the new form.
GOLDEN_DEFAULT_HASH = "164a4c79c76344519e07c8312521921ec6c593a192baf6e9df9718355c2dbbd4"


def _mutated(value):
    """A value guaranteed to differ from ``value`` but stay canonicalizable."""
    if isinstance(value, bool):  # bool first: bool is an int subclass
        return not value
    if isinstance(value, (int, float)):
        # doubling keeps power-of-two geometry fields valid (HierarchyConfig
        # validates them in __post_init__) and still always differs
        return value * 2 if value else 1
    if isinstance(value, str):
        # The string fields name one of a few options (the config refuses
        # others): the default's mutation is another option.
        return {"castan": "dfs", "monolithic": "beam", "contention": "none"}[value]
    if value is None:
        return 7
    if isinstance(value, dict):
        return {**value, "mutated": 1}
    if isinstance(value, (list, tuple)):
        return type(value)([*value, 1])
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0]
        return dataclasses.replace(value, **{first.name: _mutated(getattr(value, first.name))})
    raise TypeError(f"no mutation rule for {value!r}")


def test_golden_default_hash():
    assert CastanConfig().content_hash() == GOLDEN_DEFAULT_HASH


def test_hash_is_deterministic_within_process():
    assert CastanConfig().content_hash() == CastanConfig().content_hash()
    custom = dict(max_states=123, search_mode="beam", seed=42)
    assert CastanConfig(**custom).content_hash() == CastanConfig(**custom).content_hash()


def test_hash_is_stable_across_processes():
    """No dict-ordering / hash-randomization / id() leakage into the hash."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "from repro.core.config import CastanConfig;"
        "print(CastanConfig().content_hash());"
        "print(CastanConfig(max_states=99, search_mode='beam').content_hash())"
    )
    lines = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "random", "PATH": ""},
            capture_output=True,
            text=True,
            check=True,
        )
        lines.append(out.stdout.split())
    assert lines[0] == lines[1]
    assert lines[0][0] == GOLDEN_DEFAULT_HASH
    assert lines[0][1] == CastanConfig(max_states=99, search_mode="beam").content_hash()


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(CastanConfig)]
)
def test_every_field_changes_the_hash(field):
    base = CastanConfig()
    changed = dataclasses.replace(base, **{field: _mutated(getattr(base, field))})
    assert changed.content_hash() != base.content_hash(), field


def test_nested_fields_change_the_hash():
    """Deep mutations (hierarchy geometry, cycle costs) are not flattened away."""
    base = CastanConfig()
    for nested_name in ("hierarchy", "cycle_costs"):
        nested = getattr(base, nested_name)
        for sub in dataclasses.fields(nested):
            mutated = dataclasses.replace(nested, **{sub.name: _mutated(getattr(nested, sub.name))})
            changed = dataclasses.replace(base, **{nested_name: mutated})
            assert changed.content_hash() != base.content_hash(), f"{nested_name}.{sub.name}"


def test_canonical_dict_round_trips_through_from_dict():
    config = CastanConfig(max_states=77, search_mode="beam", strike_chunk_states=5)
    rebuilt = CastanConfig.from_dict(config.to_canonical_dict())
    assert rebuilt == config
    assert rebuilt.content_hash() == config.content_hash()


def test_from_dict_is_key_order_invariant():
    canonical = CastanConfig(max_states=55).to_canonical_dict()
    reversed_order = dict(reversed(list(canonical.items())))
    assert list(reversed_order) != list(canonical)  # the orders really differ
    a = CastanConfig.from_dict(canonical)
    b = CastanConfig.from_dict(reversed_order)
    assert a.content_hash() == b.content_hash()


def test_from_dict_rejects_unknown_knobs():
    # A typo, and knobs that no longer exist: a stale client must fail its
    # submission, not get a silently different run.
    removed = (
        ("exec_mode", "compiled"),
        ("workers", 2),
        ("parallel_mode", "shards"),
        ("strike_shards", 4),
        ("round_deadline_seconds", 1.0),
        ("cache_partition", "partitioned"),
        # v8: knobs that only their defaults ever used
        ("loop_bound", 3),
        ("beam_width", 5),
        ("round_max_states", 10),
        ("contention_source", "probing"),
        ("contention_pool_lines", 1024),
        ("probing_pool_lines", 96),
        ("rainbow_tailored", False),
        ("rainbow_chain_length", 24),
        ("max_candidates_per_havoc", 16),
        ("max_instructions_per_state", 1000),
        ("max_loop_iterations", 16),
        ("solver_budget", 6000),
    )
    for key, value in (("max_statez", 40), *removed):
        with pytest.raises(ValueError, match=key):
            CastanConfig.from_dict({key: value})
        # the error names the known fields so a typo is self-correcting
        with pytest.raises(ValueError, match="max_states"):
            CastanConfig.from_dict({key: value})


def _default_of(function, parameter):
    return inspect.signature(function).parameters[parameter].default


#: v7 fields whose value the analysis still uses, with that value and where
#: it now lives (a callee's default the pipeline no longer overrides, or one
#: named constant).  Their removal must not change any output.
V7_FIELD_VALUES = {
    "loop_bound": (2, lambda: [_default_of(annotate_costs, "loop_bound")]),
    "beam_width": (3, lambda: [_default_of(run_beam_search, "beam_width")]),
    "round_max_states": (None, lambda: [_default_of(run_beam_search, "round_max_states")]),
    "contention_pool_lines": (4096, lambda: [castan_module.CONTENTION_POOL_LINES]),
    "rainbow_tailored": (True, lambda: [_default_of(build_flow_rainbow_table, "tailored")]),
    "rainbow_chain_length": (
        32,
        lambda: [_default_of(build_flow_rainbow_table, "chain_length"), FLOW_TABLE_CHAIN_LENGTH],
    ),
    "max_candidates_per_havoc": (12, lambda: [castan_module.MAX_CANDIDATES_PER_HAVOC]),
    "max_instructions_per_state": (
        100_000,
        lambda: [
            _default_of(SymbolicEngine.run, "max_instructions_per_state"),
            _default_of(run_beam_search, "max_instructions_per_state"),
        ],
    ),
    "max_loop_iterations": (256, lambda: [_default_of(SymbolicEngine, "max_loop_iterations")]),
    "solver_budget": (8000, lambda: [castan_module.SOLVER_BUDGET, distill_module.SOLVER_BUDGET]),
}


@pytest.mark.parametrize("removed", sorted(V7_FIELD_VALUES))
def test_a_removed_field_keeps_its_value(removed):
    old_default, values_in_use = V7_FIELD_VALUES[removed]
    assert removed not in {f.name for f in dataclasses.fields(CastanConfig)}
    assert values_in_use() == [old_default] * len(values_in_use())


@pytest.mark.parametrize(
    "nested, key, known",
    [
        ("cycle_costs", "extra", "hash_call"),  # removed: it moved the hash, nothing read it
        ("hierarchy", "l3_sizee", "l3_size"),
    ],
)
def test_from_dict_rejects_unknown_nested_knobs(nested, key, known):
    with pytest.raises(ValueError, match=key) as err:
        CastanConfig.from_dict({nested: {key: 1}})
    assert known in str(err.value)  # the known fields are named, as at the top level


@pytest.mark.parametrize(
    "as_int, as_float",
    [
        (CastanConfig(deadline_seconds=60), CastanConfig()),
        (CastanConfig.from_dict({"deadline_seconds": 60}), CastanConfig()),
        (
            CastanConfig(cycle_costs=CycleCosts(frequency_ghz=3)),
            CastanConfig(cycle_costs=CycleCosts(frequency_ghz=3.0)),
        ),
        (
            CastanConfig.from_dict({"cycle_costs": {"frequency_ghz": 3}}),
            CastanConfig.from_dict({"cycle_costs": {"frequency_ghz": 3.0}}),
        ),
    ],
)
def test_an_int_for_a_float_field_has_the_equal_floats_address(as_int, as_float):
    # Both run one analysis, so a store lookup must find either's entry.
    assert as_int.content_hash() == as_float.content_hash()
    assert type(as_int.deadline_seconds) is float
    assert type(as_int.cycle_costs.frequency_ghz) is float


@pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf"), 10**400])
def test_a_float_field_must_be_a_finite_number_above_zero(value):
    with pytest.raises(ValueError, match="deadline_seconds"):
        CastanConfig(deadline_seconds=value)
    with pytest.raises(ValueError, match="frequency_ghz"):
        CycleCosts(frequency_ghz=value)


def test_cycle_costs_are_hashable():
    assert hash(CastanConfig().cycle_costs) == hash(CastanConfig.from_dict({}).cycle_costs)


def test_partial_from_dict_overrides_on_defaults():
    config = CastanConfig.from_dict({"max_states": 40, "deadline_seconds": None})
    assert config.max_states == 40
    assert config.deadline_seconds is None
    assert config.search_mode == CastanConfig().search_mode


def test_version_tag_is_part_of_the_hash(monkeypatch):
    """The golden hash covers the version tag (bumping it must repoint keys).

    v8 drops twelve fields that only their defaults ever set: no v7 entry
    may answer for a canonical form without them.
    """
    assert CONFIG_HASH_VERSION == "castan-config-v8"
    import repro.core.config as config_module

    monkeypatch.setattr(config_module, "CONFIG_HASH_VERSION", "castan-config-v7")
    assert CastanConfig().content_hash() != GOLDEN_DEFAULT_HASH


@pytest.mark.parametrize("chunk", [0, -1])
def test_a_strike_chunk_below_one_is_rejected(chunk):
    # A chunk of no pops never spends the state budget: the search would spin.
    with pytest.raises(ValueError, match="strike_chunk_states"):
        CastanConfig(strike_chunk_states=chunk)
    with pytest.raises(ValueError, match="strike_chunk_states"):
        CastanConfig.from_dict({"search_mode": "beam", "strike_chunk_states": chunk})
