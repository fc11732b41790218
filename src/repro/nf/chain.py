"""Composable NF service chains (router → firewall → NAT → ...).

The paper analyzes one NF at a time, but deployed data paths run several
NFs back to back on one core, sharing one cache hierarchy.  A chain is
itself just an NF: this module stitches the stages' standalone NFIL
modules into one merged module (every function, region and hash-function
name gets a stage prefix; region base addresses move onto per-stage
address planes) and compiles a small glue ``process`` that threads the
packet fields through the stages, short-circuiting on drop.

Chains are addressed through the registry:

* ``get_nf("chain:lpm-dpdk,fw-conntrack,nat-hash-table")`` — ad-hoc chain
  from a comma-separated stage spec.  Stage aliases (``router``, ``fw``,
  ``nat``, ``policer``, ``lb``) expand to canonical registry names, and a
  stage may carry an explicit label (``nat-hash-table@nat2``) which is
  required when the same NF appears twice.
* ``get_nf("chain-gateway")`` / ``get_nf("chain-edge")`` — the named
  preset chains that also sit in ``EVALUATION_NFS``.

The merged NF records a :class:`~repro.nf.base.ChainStageInfo` per stage,
which the symbex engine uses for per-stage cost attribution.
"""

from __future__ import annotations

import difflib

from repro.frontend.compiler import compile_nf
from repro.ir.instructions import Call, Havoc, Load, Store
from repro.ir.module import Module
from repro.nf.base import ChainStageInfo, NetworkFunction

#: Spec prefix understood by ``get_nf``.
CHAIN_SPEC_PREFIX = "chain:"

#: Short stage aliases accepted in chain specs.
STAGE_ALIASES: dict[str, str] = {
    "router": "lpm-dpdk",
    "fw": "fw-conntrack",
    "nat": "nat-hash-table",
    "policer": "policer-two-choice",
    "lb": "lb-hash-table",
}

#: Named preset chains registered in the NF registry (and EVALUATION_NFS).
PRESET_CHAINS: dict[str, str] = {
    "chain-gateway": "chain:lpm-dpdk,fw-conntrack,nat-hash-table",
    "chain-edge": "chain:lpm-dpdk,fw-conntrack,nat-hash-table,policer-two-choice",
}

# Stage regions are rebased onto disjoint address planes so the shared
# cache model sees distinct (but still deterministic) physical layouts.
STAGE_ADDRESS_STRIDE = 1 << 32

# Default chain traffic: an internal (10/8) source sending to 11.0.0.1,
# which matches the routers' 11.0.0.0/8 route and the firewall/NAT
# internal-source checks, so the default packet traverses every stage.
CHAIN_PACKET_DEFAULTS = {
    "src_ip": (10 << 24) | 0x000101,  # 10.0.1.1
    "dst_ip": 0x0B000001,  # 11.0.0.1
    "src_port": 10000,
    "dst_port": 80,
    "protocol": 17,
}


def is_chain_spec(name: str) -> bool:
    """True for ``chain:`` specs (not for preset chain names)."""
    return name.startswith(CHAIN_SPEC_PREFIX)


def _sanitize(label: str) -> str:
    return label.replace("-", "_").replace("@", "_").replace(".", "_")


def parse_chain_spec(spec: str) -> list[tuple[str, str]]:
    """Parse a ``chain:`` spec into ``[(nf_name, label), ...]``.

    Each comma-separated stage is a registry name or alias, optionally
    suffixed with ``@label``.  Errors name the offending stage (1-based
    position) and suggest close matches, mirroring ``get_nf``.
    """
    from repro.nf.registry import NF_NAMES

    if not is_chain_spec(spec):
        raise KeyError(f"not a chain spec (expected {CHAIN_SPEC_PREFIX!r} prefix): {spec!r}")
    body = spec[len(CHAIN_SPEC_PREFIX):].strip()
    items = [item.strip() for item in body.split(",")] if body else []
    if not items or any(not item for item in items):
        raise KeyError(f"empty stage in chain spec {spec!r}")

    known = [n for n in NF_NAMES if not n.startswith("chain-")]
    stages: list[tuple[str, str]] = []
    labels_seen: dict[str, int] = {}
    for position, item in enumerate(items, start=1):
        name, _, label = item.partition("@")
        name = name.strip()
        label = label.strip()
        resolved = STAGE_ALIASES.get(name, name)
        if resolved.startswith("chain"):
            raise KeyError(
                f"chain stage {position} ({item!r}) in {spec!r}: "
                "chains cannot nest other chains"
            )
        if resolved not in known:
            candidates = known + list(STAGE_ALIASES)
            suggestions = difflib.get_close_matches(name, candidates, n=3, cutoff=0.6)
            if suggestions:
                hint = " or ".join(repr(s) for s in suggestions)
                message = (
                    f"chain stage {position} ({name!r}) in {spec!r} is not a "
                    f"registered NF; did you mean {hint}?"
                )
            else:
                message = (
                    f"chain stage {position} ({name!r}) in {spec!r} is not a "
                    f"registered NF; available: {', '.join(known)}"
                )
            raise KeyError(message)
        label = label or resolved
        if label in labels_seen:
            raise KeyError(
                f"chain stage {position} ({item!r}) in {spec!r} duplicates stage "
                f"{labels_seen[label]} — give repeated NFs distinct labels, e.g. "
                f"{resolved}@{_sanitize(label)}2"
            )
        labels_seen[label] = position
        stages.append((resolved, label))
    return stages


def _rename_stage_module(module: Module, prefix: str, offset: int) -> None:
    """Prefix every function/region/hash symbol in ``module`` in place and
    shift region bases by ``offset``.  Block names are function-local and
    stay untouched."""
    renamed_functions = {}
    for name, function in module.functions.items():
        function.name = prefix + name
        renamed_functions[function.name] = function
        for instruction in function.instructions():
            if isinstance(instruction, Call):
                instruction.callee = prefix + instruction.callee
            elif isinstance(instruction, Havoc):
                instruction.hash_function = prefix + instruction.hash_function
            elif isinstance(instruction, Load):
                instruction.region = prefix + instruction.region
            elif isinstance(instruction, Store):
                instruction.region = prefix + instruction.region
    module.functions = renamed_functions

    renamed_regions = {}
    for name, region in module.regions.items():
        region.name = prefix + name
        region.base_address += offset
        renamed_regions[region.name] = region
    module.regions = renamed_regions


def build_chain(spec: str, name: str | None = None) -> NetworkFunction:
    """Build the composed NF for a ``chain:`` spec."""
    from repro.nf.registry import get_nf

    stages = parse_chain_spec(spec)
    chain_name = name or spec
    module = Module(chain_name)

    stage_infos: list[ChainStageInfo] = []
    stage_nfs: list[NetworkFunction] = []
    hash_functions: dict = {}
    hash_output_bits: dict[str, int] = {}
    contention_regions: list[str] = []
    merged_hints: dict[str, int] = {}
    packet_count = 0
    for index, (nf_name, label) in enumerate(stages):
        nf = get_nf(nf_name)
        prefix = f"s{index}_{_sanitize(label)}__"
        offset = index * STAGE_ADDRESS_STRIDE
        _rename_stage_module(nf.module, prefix, offset)
        for region in nf.module.regions.values():
            if region.name in module.regions:
                raise KeyError(f"duplicate region {region.name!r} merging {spec!r}")
            module.regions[region.name] = region
        for function in nf.module.functions.values():
            module.add_function(function)
        for hash_name, fn in nf.hash_functions.items():
            hash_functions[prefix + hash_name] = fn
        for hash_name, bits in nf.hash_output_bits.items():
            hash_output_bits[prefix + hash_name] = bits
        contention_regions.extend(prefix + r for r in nf.contention_regions)
        for hint, value in nf.workload_hints.items():
            merged_hints.setdefault(hint, value)
        packet_count = max(packet_count, nf.castan_packet_count)
        stage_infos.append(
            ChainStageInfo(
                label=label,
                nf_name=nf_name,
                prefix=prefix,
                entry=prefix + nf.entry,
                address_offset=offset,
                nf_class=nf.nf_class,
            )
        )
        stage_nfs.append(nf)

    # If a router stage filters by destination, steer generated traffic to
    # a routed destination so packets survive past stage 0.
    if any(s.nf_class == "lpm" for s in stage_infos):
        merged_hints.setdefault("dst_ip", CHAIN_PACKET_DEFAULTS["dst_ip"])

    params = "src_ip, dst_ip, src_port, dst_port, protocol"
    lines = [f"def process({params}):"]
    for index, (info, nf) in enumerate(zip(stage_infos, stage_nfs)):
        lines.append(f"    out = {info.entry}({params})")
        if index < len(stage_infos) - 1:
            lines.append("    if out == 0:")
            lines.append("        return 0")
            if nf.chain_result_rewrite == "src_port":
                lines.append("    src_port = out")
    lines.append("    return out")
    glue_source = "\n".join(lines) + "\n"
    compile_nf(module, glue_source, entry="process")

    description = " -> ".join(info.label for info in stage_infos)
    return NetworkFunction(
        name=chain_name,
        module=module,
        entry="process",
        description=f"service chain: {description}",
        nf_class="chain",
        data_structure="pipeline",
        hash_functions=hash_functions,
        hash_output_bits=hash_output_bits,
        packet_defaults=dict(CHAIN_PACKET_DEFAULTS),
        workload_hints=merged_hints,
        castan_packet_count=packet_count or 10,
        contention_regions=contention_regions,
        chain_stages=stage_infos,
        notes=f"composed from spec {spec!r}",
    )
