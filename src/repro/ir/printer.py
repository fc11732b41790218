"""Textual rendering of NFIL modules (the analogue of ``llvm-dis`` output).

The printed form is intended for debugging and documentation: it is stable
and human-readable, and NF fingerprints hash it
(:meth:`~repro.nf.base.NetworkFunction.fingerprint`), so it leaves out
instruction uids.
"""

from __future__ import annotations

from repro.ir.module import Function, Module


def print_function(function: Function) -> str:
    """Render one function as text."""
    lines = [f"func @{function.name}({', '.join('%' + p for p in function.params)}) {{"]
    for block in function.blocks:
        lines.append(f"{block.name}:")
        for instruction in block.instructions:
            lines.append(f"  {instruction}")
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    """Render a whole module (regions first, then functions)."""
    lines = [f"; module {module.name}"]
    for region in module.regions.values():
        lines.append(
            f"region @{region.name}[{region.length} x {region.element_size}B] "
            f"base=0x{region.base_address:x}"
        )
    for function in module.functions.values():
        lines.append("")
        lines.append(print_function(function))
    return "\n".join(lines)
