"""The flow hash used by the NAT/LB NFs, plus flow-key packing helpers.

``flow_hash16`` is a Jenkins one-at-a-time style mix over the 8 bytes of a
packed 64-bit flow key, reduced to 16 bits.  The identical algorithm is
also provided as NF-dialect source (``FLOW_HASH_DIALECT_SOURCE``) so the
compiled NFs compute exactly the same values the reconciliation code
expects; ``tests/test_hashing.py`` asserts the equivalence.
"""

from __future__ import annotations

from array import array

from repro.symbex.expr import HAVE_NUMPY, load_numpy

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1

FLOW_HASH_BITS = 16
FLOW_HASH_MASK = (1 << FLOW_HASH_BITS) - 1


def flow_hash16(key: int) -> int:
    """Jenkins one-at-a-time hash of a 64-bit key, folded to 16 bits."""
    key &= MASK64
    h = 0
    for byte_index in range(8):
        byte = (key >> (byte_index * 8)) & 0xFF
        h = (h + byte) & MASK32
        h = (h + ((h << 10) & MASK32)) & MASK32
        h = h ^ (h >> 6)
    h = (h + ((h << 3) & MASK32)) & MASK32
    h = h ^ (h >> 11)
    h = (h + ((h << 15) & MASK32)) & MASK32
    return (h ^ (h >> 16)) & FLOW_HASH_MASK


if not HAVE_NUMPY:  # pragma: no cover - exercised via tests/test_imports.py
    flow_hash16_column = None
else:

    def flow_hash16_column(keys) -> array:
        """Columnar :func:`flow_hash16` over a sequence of 64-bit keys.

        An ``array('Q')`` equal to ``[flow_hash16(k) for k in keys]``
        element for element (and iterating as Python ints): the mixing
        runs in uint64 with an explicit 32-bit mask after every step, so no
        intermediate can overflow and every operation matches the scalar
        arithmetic bit for bit (``tests/test_hashing.py`` pins this).  numpy
        is imported by the first call; if it then fails to import, the
        scalar hash computes the same column.
        """
        np = load_numpy()
        if np is None:  # pragma: no cover - exercised via tests/test_imports.py
            return array("Q", map(flow_hash16, keys))
        key = np.asarray(keys, dtype=np.uint64)
        m32 = np.uint64(MASK32)
        h = np.zeros(len(key), dtype=np.uint64)
        for byte_index in range(8):
            byte = (key >> np.uint64(byte_index * 8)) & np.uint64(0xFF)
            h = (h + byte) & m32
            h = (h + ((h << np.uint64(10)) & m32)) & m32
            h = h ^ (h >> np.uint64(6))
        h = (h + ((h << np.uint64(3)) & m32)) & m32
        h = h ^ (h >> np.uint64(11))
        h = (h + ((h << np.uint64(15)) & m32)) & m32
        return array("Q", ((h ^ (h >> np.uint64(16))) & np.uint64(FLOW_HASH_MASK)).tobytes())


# The same function written in the restricted-Python NF dialect.  NF sources
# concatenate this snippet so the compiled module contains a `flow_hash16`
# NFIL function the `castan_havoc` annotation can reference.
FLOW_HASH_DIALECT_SOURCE = '''
def flow_hash16(key):
    h = 0
    for byte_index in range(8):
        byte = (key >> (byte_index * 8)) & 0xFF
        h = (h + byte) & 0xFFFFFFFF
        h = (h + ((h << 10) & 0xFFFFFFFF)) & 0xFFFFFFFF
        h = h ^ (h >> 6)
    h = (h + ((h << 3) & 0xFFFFFFFF)) & 0xFFFFFFFF
    h = h ^ (h >> 11)
    h = (h + ((h << 15) & 0xFFFFFFFF)) & 0xFFFFFFFF
    return (h ^ (h >> 16)) & 0xFFFF
'''


# -- flow key packing ----------------------------------------------------------
#
# Flow keys are packed into a single 64-bit word with disjoint bit fields so
# that the solver can decompose `key == constant` constraints field by field
# (see Solver._decompose_disjoint).  The layouts below are shared between the
# NF dialect sources, the workload generators and the reconciliation code.


def lb_flow_key(src_ip: int, src_port: int, dst_port: int) -> int:
    """LB per-connection key: src IP | src port | VIP service port."""
    return (src_ip & MASK32) | ((src_port & 0xFFFF) << 32) | ((dst_port & 0xFFFF) << 48)


def lb_key_fields(key: int) -> tuple[int, int, int]:
    """Inverse of :func:`lb_flow_key`."""
    return key & MASK32, (key >> 32) & 0xFFFF, (key >> 48) & 0xFFFF


def nat_forward_key(src_ip: int, src_port: int, dst_port: int) -> int:
    """NAT key matching outgoing (internal → external) packets."""
    return (src_ip & MASK32) | ((src_port & 0xFFFF) << 32) | ((dst_port & 0xFFFF) << 48)


def nat_reverse_key(dst_ip: int, dst_port: int, external_port: int) -> int:
    """NAT key matching returning (external → internal) packets.

    Shares the external endpoint (``dst_ip``, ``dst_port``) with the
    forward key of the same flow — the relationship that makes reconciling
    the NAT's two havocs per packet hard (§5.4).
    """
    return (dst_ip & MASK32) | ((dst_port & 0xFFFF) << 32) | ((external_port & 0xFFFF) << 48)


def nat_key_fields(key: int) -> tuple[int, int, int]:
    """Split either NAT key back into its three packed fields."""
    return key & MASK32, (key >> 32) & 0xFFFF, (key >> 48) & 0xFFFF
