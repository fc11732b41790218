"""Intrinsic functions recognised by the NF dialect compiler.

``castan_havoc(key, flow_hash16(key))`` is the paper's annotation (§3.5/§4):
in production builds it simply evaluates the hash call; under CASTAN
analysis the hash call is suppressed and its result havoced.  The frontend
lowers it to the dedicated :class:`~repro.ir.instructions.Havoc`
instruction so both behaviours stay available to the interpreters.
"""

from __future__ import annotations

CASTAN_HAVOC = "castan_havoc"

# Names treated specially by the compiler (not looked up as helper functions).
INTRINSIC_NAMES = frozenset({CASTAN_HAVOC})
