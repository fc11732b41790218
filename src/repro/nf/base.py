"""The :class:`NetworkFunction` descriptor shared by analysis and testbed.

A network function bundles the compiled NFIL module with everything the
rest of the pipeline needs to know about it: sensible default packet-field
values, hints for the workload generators (e.g. the LB's VIP), the number
of packets CASTAN should synthesize for it (Table 4), and an optional
hand-crafted *Manual* adversarial workload (§5.1).  Which functions the
module hashes is not declared: its ``castan_havoc`` annotations name them,
and each is ``flow_hash16`` (the compiler refuses any other hash), so
:func:`repro.hashing.functions.flow_hash16` computes every one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.hashing.functions import FLOW_HASH_BITS
from repro.ir.instructions import Havoc
from repro.ir.module import Module
from repro.net.packet import Packet

# Return values of the NF entry function.  0 means "drop"; positive values
# are output ports / backend indices / translated ports.
ACTION_DROP = 0
ACTION_FORWARD = 1


@dataclass
class ChainStageInfo:
    """One stage of a composed NF chain (see :mod:`repro.nf.chain`).

    Records how the stage's standalone module was embedded into the merged
    chain module: the symbol prefix applied to its functions/regions and
    the virtual-address offset applied to its region bases.
    """

    label: str
    nf_name: str
    prefix: str
    entry: str  # prefixed entry function name inside the chain module
    address_offset: int
    nf_class: str = "misc"


@dataclass
class NetworkFunction:
    """A compiled NF plus the metadata the pipeline needs."""

    name: str
    module: Module
    entry: str = "process"
    description: str = ""
    nf_class: str = "misc"  # "nop" | "lpm" | "nat" | "lb"
    data_structure: str = ""
    # Default values for packet fields left unconstrained by the solver
    # (keys are field names: src_ip, dst_ip, src_port, dst_port, protocol).
    packet_defaults: dict[str, int] = field(default_factory=dict)
    # Hints for workload generators: fields every generated packet must pin
    # (e.g. the LB's VIP as destination) plus address ranges.
    workload_hints: dict[str, int] = field(default_factory=dict)
    # Number of packets CASTAN synthesizes for this NF (Table 4).
    castan_packet_count: int = 10
    # Optional hand-crafted adversarial workload (the paper's "Manual").
    manual_workload: Callable[[int], list[Packet]] | None = None
    # Names of the large regions worth covering with the cache model.
    contention_regions: list[str] = field(default_factory=list)
    # For chains: per-stage embedding metadata (empty for standalone NFs).
    chain_stages: list[ChainStageInfo] = field(default_factory=list)
    # When this NF runs as a chain stage, which packet field its return
    # value rewrites for downstream stages (e.g. the NAT's translated
    # source port).  None means the return value is only a forward/drop
    # verdict and the packet fields pass through unchanged.
    chain_result_rewrite: str | None = None
    notes: str = ""

    @property
    def havoc_functions(self) -> list[str]:
        """Sorted names of the functions the module's havocs suppress: each is
        ``flow_hash16``, stage-prefixed in a chain."""
        return sorted(
            {
                instruction.hash_function
                for function in self.module.functions.values()
                for instruction in function.instructions()
                if isinstance(instruction, Havoc)
            }
        )

    @property
    def is_chain(self) -> bool:
        return bool(self.chain_stages)

    @property
    def stage_entries(self) -> dict[str, str]:
        """Prefixed stage entry function name -> stage label (chains only)."""
        return {stage.entry: stage.label for stage in self.chain_stages}

    def fingerprint(self) -> str:
        """Stable SHA-256 identity of *what this NF analyzes as*.

        Covers the compiled module (textual NFIL listing, which renders
        every instruction, region geometry and base address), each region's
        initial contents (the listing omits them), and the analysis-relevant
        metadata: entry point, packet defaults, workload hints, per-NF
        packet count, contention regions and chain composition.  The listing
        already names the hash; the havoced function names (each
        ``FLOW_HASH_BITS`` wide) are fed again under the ``hash_functions``
        and ``hash_output_bits`` tags, which keeps stored results addressed.

        Together with :meth:`repro.core.config.CastanConfig.content_hash`
        this is the content address of an analysis: the service result
        store treats equal fingerprints as "the same NF", so any input the
        pipeline reads must be folded in here.
        """
        from repro.ir.printer import print_module

        digest = hashlib.sha256()

        def feed(tag: str, text: str) -> None:
            digest.update(f"{tag}={text}\x00".encode())

        feed("name", self.name)
        feed("entry", self.entry)
        feed("module", print_module(self.module))
        for region in self.module.regions.values():
            initial = ",".join(f"{i}:{v}" for i, v in sorted(region.initial.items()))
            feed(f"region-initial:{region.name}", initial)
        feed("packet_defaults", repr(sorted(self.packet_defaults.items())))
        feed("workload_hints", repr(sorted(self.workload_hints.items())))
        feed("castan_packet_count", str(self.castan_packet_count))
        havocs = self.havoc_functions
        feed("hash_functions", ",".join(havocs))
        feed("hash_output_bits", repr([(name, FLOW_HASH_BITS) for name in havocs]))
        feed("contention_regions", ",".join(self.contention_regions))
        feed("chain_result_rewrite", str(self.chain_result_rewrite))
        for stage in self.chain_stages:
            feed(
                f"stage:{stage.label}",
                f"{stage.nf_name}|{stage.prefix}|{stage.entry}|{stage.address_offset}",
            )
        return digest.hexdigest()

    def __repr__(self) -> str:
        return (
            f"NetworkFunction({self.name!r}, class={self.nf_class}, "
            f"data_structure={self.data_structure!r}, "
            f"instructions={self.module.instruction_count})"
        )
