"""Registry of the evaluation NFs.

``get_nf(name)`` builds a fresh :class:`~repro.nf.base.NetworkFunction`
(each call compiles a new module, so callers can mutate state freely).
The names cover the paper's Table 4 rows (LPM / LB / NAT variants), the
four scenario-expansion NFs (firewall, policer, dedup, DPI), the two
preset service chains and the NOP baseline — 17 evaluation NFs in total.
``chain:`` specs compose registered NFs ad hoc (:mod:`repro.nf.chain`).

>>> from repro.nf.registry import EVALUATION_NF_NAMES, NF_NAMES, get_nf
>>> len(NF_NAMES)
18
>>> len(EVALUATION_NF_NAMES)  # without the NOP baseline
17
>>> get_nf("lpm-patricia").nf_class
'lpm'
>>> get_nf("fw-conntrack").data_structure
'ring-buffer'
>>> [stage.label for stage in get_nf("chain-gateway").chain_stages]
['lpm-dpdk', 'fw-conntrack', 'nat-hash-table']
>>> get_nf("chain:router,fw").is_chain
True

Unknown names raise a ``KeyError`` that suggests close matches:

>>> get_nf("lpm-patrica")
Traceback (most recent call last):
    ...
KeyError: "unknown NF 'lpm-patrica'; did you mean 'lpm-patricia'?"

and chain parse errors name the offending stage:

>>> get_nf("chain:router,fw-contrack")
Traceback (most recent call last):
    ...
KeyError: "chain stage 2 ('fw-contrack') in 'chain:router,fw-contrack' is not a registered NF; did you mean 'fw-conntrack'?"

``nf_identity(spec)`` is what addresses a stored result — the fingerprint
and the per-NF packet count — compiled once per process and spec:

>>> from repro.nf.registry import nf_identity
>>> nf_identity("lpm-patricia") == (get_nf("lpm-patricia").fingerprint(), 8)
True
"""

from __future__ import annotations

import difflib
import functools
from typing import Callable

from repro.nf.base import NetworkFunction
from repro.nf.chain import PRESET_CHAINS, build_chain, is_chain_spec
from repro.nf.dedup import build_dedup
from repro.nf.dpi import build_dpi
from repro.nf.firewall import build_firewall
from repro.nf.lb import build_lb
from repro.nf.lpm_direct import build_lpm_direct
from repro.nf.lpm_dpdk import build_lpm_dpdk
from repro.nf.lpm_patricia import build_lpm_patricia
from repro.nf.nat import build_nat
from repro.nf.nop import build_nop
from repro.nf.policer import build_policer

#: In the column order of the evaluation tables: the NOP baseline, the
#: paper's 11 NFs (Tables 1-3), the four scenario-expansion NFs (firewall,
#: policer, dedup, DPI) and the two preset service chains.
_BUILDERS: dict[str, Callable[[], NetworkFunction]] = {
    "nop": build_nop,
    "lpm-direct": build_lpm_direct,
    "lpm-dpdk": build_lpm_dpdk,
    "lpm-patricia": build_lpm_patricia,
    "lb-unbalanced-tree": lambda: build_lb("unbalanced-tree"),
    "nat-unbalanced-tree": lambda: build_nat("unbalanced-tree"),
    "lb-red-black-tree": lambda: build_lb("red-black-tree"),
    "nat-red-black-tree": lambda: build_nat("red-black-tree"),
    "nat-hash-table": lambda: build_nat("hash-table"),
    "lb-hash-table": lambda: build_lb("hash-table"),
    "nat-hash-ring": lambda: build_nat("hash-ring"),
    "lb-hash-ring": lambda: build_lb("hash-ring"),
    "fw-conntrack": build_firewall,
    "policer-two-choice": build_policer,
    "dedup-bloom": build_dedup,
    "dpi-trie": build_dpi,
    "chain-gateway": lambda: build_chain(PRESET_CHAINS["chain-gateway"], name="chain-gateway"),
    "chain-edge": lambda: build_chain(PRESET_CHAINS["chain-edge"], name="chain-edge"),
}

#: Every evaluation NF (17) plus the NOP baseline.
NF_NAMES: tuple[str, ...] = tuple(_BUILDERS)

#: The 17 evaluation NFs (without the NOP baseline), in the tables' column order.
EVALUATION_NF_NAMES: tuple[str, ...] = tuple(n for n in NF_NAMES if n != "nop")


def available_nfs() -> list[str]:
    """Names accepted by :func:`get_nf` (``chain:`` specs also work)."""
    return list(NF_NAMES)


def get_nf(name: str) -> NetworkFunction:
    """Build a fresh instance of the named NF (or ``chain:`` spec)."""
    if is_chain_spec(name):
        return build_chain(name)
    try:
        builder = _BUILDERS[name]
    except KeyError:
        suggestions = difflib.get_close_matches(name, NF_NAMES, n=3, cutoff=0.6)
        if suggestions:
            hint = " or ".join(repr(s) for s in suggestions)
            message = f"unknown NF {name!r}; did you mean {hint}?"
        else:
            message = f"unknown NF {name!r}; available: {', '.join(NF_NAMES)}"
        raise KeyError(message) from None
    return builder()


@functools.lru_cache(maxsize=256)
def nf_identity(spec: str) -> tuple[str, int]:
    """``(fingerprint, castan_packet_count)`` of ``get_nf(spec)``, memoised.

    A spec names a fixed builder, so its identity cannot change within a
    process; compiling the NF to learn it again on every store lookup was
    most of what a service cache hit cost.  The memo is bounded because
    ``chain:`` specs are client-supplied; unknown specs raise
    :func:`get_nf`'s ``KeyError`` and are not cached.  ``cache_info()`` is
    served by ``GET /healthz``.
    """
    nf = get_nf(spec)
    return nf.fingerprint(), nf.castan_packet_count
