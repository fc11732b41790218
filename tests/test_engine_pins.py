"""Smoke-scale output pins for every registered NF under both search modes.

Every row was recorded from the reference interpreter when the compiled
and vectorized execution tiers were deleted; both tiers agreed with it on
every row.  An engine change that moves a synthesized workload, a cost, a
path count, the solver verdict or any per-packet metric shows up here,
per NF and search mode.

On an intentional output change, a failing test prints the replacement
``PINS`` row for its case, ready to paste; list the changed NFs in
``CHANGES.md``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict

import pytest

from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.core.workload import workload_digest
from repro.nf.registry import NF_NAMES, get_nf

SMOKE = dict(max_states=60, num_packets=5, deadline_seconds=None)

SEARCH_MODES = ("monolithic", "beam")

#: ``(NF, search mode)`` -> workload digest prefix, ``(best state cost,
#: states explored, forks, completed paths, solver status)``, and a digest
#: prefix of the per-packet metrics.
PINS = {
    ("nop", "monolithic"): ("f7ef5648d2a5b45a", (10, 1, 0, 1, "sat"), "6ac393ffde0597d5"),
    ("nop", "beam"): ("f7ef5648d2a5b45a", (10, 5, 0, 1, "sat"), "6ac393ffde0597d5"),
    ("lpm-patricia", "monolithic"): ("16c30b6abb466ed6", (1257, 60, 60, 0, "sat"), "1fdfe6ff6b3c6095"),
    ("lpm-patricia", "beam"): ("9c764d0b2f9e8641", (1292, 60, 58, 0, "sat"), "3b007f34b48a97e6"),
    ("lpm-direct", "monolithic"): ("89254bf684f69a82", (1020, 1, 0, 1, "sat"), "46bfd6b562bb4cdb"),
    ("lpm-direct", "beam"): ("89254bf684f69a82", (1020, 5, 0, 1, "sat"), "46bfd6b562bb4cdb"),
    ("lpm-dpdk", "monolithic"): ("68fb3e3c7b7ddcbe", (1247, 1, 0, 1, "sat"), "352f17844ac2e201"),
    ("lpm-dpdk", "beam"): ("68fb3e3c7b7ddcbe", (1247, 5, 0, 1, "sat"), "352f17844ac2e201"),
    ("nat-hash-table", "monolithic"): ("b640e950c1262ac1", (3755, 60, 57, 3, "sat"), "7da125f2624ebc56"),
    ("nat-hash-table", "beam"): ("b640e950c1262ac1", (3755, 60, 46, 12, "sat"), "7da125f2624ebc56"),
    ("nat-hash-ring", "monolithic"): ("6c6cf4bcc474518d", (5292, 60, 35, 25, "sat"), "5e56d7d614c29e63"),
    ("nat-hash-ring", "beam"): ("6c6cf4bcc474518d", (5292, 53, 29, 20, "sat"), "5e56d7d614c29e63"),
    ("nat-red-black-tree", "monolithic"): ("01a3f9e4eb7e2bcb", (2828, 60, 60, 0, "unsat"), "bea3a41f9fc7caf0"),
    ("nat-red-black-tree", "beam"): ("01a3f9e4eb7e2bcb", (2849, 60, 60, 0, "unsat"), "f53ed3f04057ff4d"),
    ("nat-unbalanced-tree", "monolithic"): ("9e0b9cbbca812e51", (2393, 60, 60, 0, "unsat"), "6f4329f3f529aa58"),
    ("nat-unbalanced-tree", "beam"): ("9e0b9cbbca812e51", (2327, 60, 60, 0, "unsat"), "bdb8e33f5ea05572"),
    ("lb-hash-table", "monolithic"): ("ec83b63f6ab1b67a", (2532, 60, 42, 18, "sat"), "837d6e0dbf968839"),
    ("lb-hash-table", "beam"): ("ec83b63f6ab1b67a", (2532, 60, 38, 18, "sat"), "837d6e0dbf968839"),
    ("lb-hash-ring", "monolithic"): ("906ffa1df7debdf1", (3027, 60, 39, 21, "sat"), "711999e34f799ebf"),
    ("lb-hash-ring", "beam"): ("906ffa1df7debdf1", (3027, 60, 39, 21, "sat"), "711999e34f799ebf"),
    ("lb-red-black-tree", "monolithic"): ("4659d7ca03c14146", (2981, 60, 60, 0, "unsat"), "24742570a8f5385c"),
    ("lb-red-black-tree", "beam"): ("424b0c4b1b5e000d", (3719, 60, 59, 0, "unsat"), "303d09d84ae9a1de"),
    ("lb-unbalanced-tree", "monolithic"): ("424b0c4b1b5e000d", (2148, 60, 60, 0, "unsat"), "8d54e5bacf0ae8f0"),
    ("lb-unbalanced-tree", "beam"): ("424b0c4b1b5e000d", (2324, 60, 59, 0, "unsat"), "96b36b905000f838"),
    ("fw-conntrack", "monolithic"): ("547b8f4bff2e4c4f", (1606, 60, 60, 0, "sat"), "72de40cd9bc3a844"),
    ("fw-conntrack", "beam"): ("e0432a0ec87889c6", (1573, 60, 60, 0, "sat"), "6a9e0fa0f2267fa2"),
    ("policer-two-choice", "monolithic"): ("147ecf80bb072e94", (4771, 60, 41, 19, "sat"), "b57462f4a50ecb27"),
    ("policer-two-choice", "beam"): ("147ecf80bb072e94", (4771, 53, 29, 20, "sat"), "b57462f4a50ecb27"),
    ("dedup-bloom", "monolithic"): ("53a6c66f87ec93b9", (1301, 60, 60, 0, "sat"), "77bf46221d6fe675"),
    ("dedup-bloom", "beam"): ("53a6c66f87ec93b9", (1301, 60, 58, 0, "sat"), "77bf46221d6fe675"),
    ("dpi-trie", "monolithic"): ("99010b3f20f85951", (1841, 60, 56, 4, "sat"), "babcd7a1ec7207c0"),
    ("dpi-trie", "beam"): ("99010b3f20f85951", (1841, 60, 56, 4, "sat"), "babcd7a1ec7207c0"),
    ("chain-gateway", "monolithic"): ("fe1336013e63ba8b", (4001, 33, 16, 17, "sat"), "8d994fddb89af23c"),
    ("chain-gateway", "beam"): ("6065f48ef9445851", (3965, 18, 7, 3, "sat"), "9887b3eb358ebb1e"),
    ("chain-edge", "monolithic"): ("fe1336013e63ba8b", (5122, 33, 16, 17, "sat"), "d8607ba7b22f6b3c"),
    ("chain-edge", "beam"): ("bd6fc4b92cc7e71f", (5103, 19, 8, 3, "sat"), "29d6eb9b1f218752"),
}

CASES = [(name, mode) for name in NF_NAMES for mode in SEARCH_MODES]


@functools.cache
def _observed(name: str, search_mode: str):
    """This checkout's ``PINS`` value for one case."""
    config = CastanConfig(search_mode=search_mode, **SMOKE)
    result = Castan(config).analyze(get_nf(name))
    metrics = json.dumps(asdict(result.metrics), sort_keys=True)
    return (
        workload_digest(result.packets)[:16],
        (
            result.best_state_cost,
            result.states_explored,
            result.forks,
            result.completed_paths,
            result.solver_status,
        ),
        hashlib.sha256(metrics.encode()).hexdigest()[:16],
    )


def _pin_row(name: str, search_mode: str) -> str:
    """The ``PINS`` row this checkout produces, ready to paste."""
    digest, (cost, states, forks, paths, status), metrics = _observed(name, search_mode)
    return (
        f'    ("{name}", "{search_mode}"): ("{digest}", '
        f'({cost}, {states}, {forks}, {paths}, "{status}"), "{metrics}"),'
    )


def _repin(cases, header="the output moved; if intended, re-pin with:") -> str:
    return "\n".join([header, *(_pin_row(*case) for case in cases)])


class TestSmokeScalePins:
    def test_pins_cover_every_registered_nf(self):
        missing = [case for case in CASES if case not in PINS]
        stale = sorted(set(PINS) - set(CASES))
        assert not missing, _repin(missing, "unpinned cases; add these rows:")
        assert not stale, f"rows for unregistered NFs, delete them: {stale}"

    @pytest.mark.parametrize("name,search_mode", CASES)
    def test_workload_matches_the_pin(self, name, search_mode):
        observed = _observed(name, search_mode)
        assert observed[0] == PINS[name, search_mode][0], _repin([(name, search_mode)])

    @pytest.mark.parametrize("name,search_mode", CASES)
    def test_costs_and_path_counts_match_the_pin(self, name, search_mode):
        observed = _observed(name, search_mode)
        assert observed[1] == PINS[name, search_mode][1], _repin([(name, search_mode)])

    @pytest.mark.parametrize("name,search_mode", CASES)
    def test_per_packet_metrics_match_the_pin(self, name, search_mode):
        # Every per-packet series, instruction counts included.
        observed = _observed(name, search_mode)
        assert observed[2] == PINS[name, search_mode][2], _repin([(name, search_mode)])
