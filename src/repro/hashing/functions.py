"""The flow hash used by the NAT/LB NFs, plus flow-key packing helpers.

``FLOW_HASH_DIALECT_SOURCE`` is the one definition of the flow hash: a
Jenkins one-at-a-time style mix over the 8 bytes of a packed 64-bit flow
key, folded to 16 bits, written in the restricted-Python NF dialect.  The
NFs compile that text into their modules, and this module runs the same
text as Python to define :func:`flow_hash16`.  The text only applies
``+ & ^ << >>`` to its argument and integer literals, so the one function
takes a Python int, a ``uint64`` numpy array (one key per lane) or a
symbolic :class:`~repro.symbex.expr.Expr` key (the unrolled hash the
scoring layer's bucket signatures test), and all three agree:

>>> import numpy as np
>>> from repro.symbex.expr import Sym, evaluate
>>> key = flow_key(0x0A000001, 1234, 80)
>>> flow_hash16(key)
31310
>>> flow_hash16(np.array([key, 7], dtype=np.uint64)).tolist() == [31310, flow_hash16(7)]
True
>>> evaluate(flow_hash16(Sym("key", bits=64)), {"key": key})
31310
"""

from __future__ import annotations

from array import array

from repro.symbex.expr import HAVE_NUMPY, load_numpy

MASK32 = 0xFFFFFFFF

FLOW_HASH_BITS = 16
FLOW_HASH_MASK = (1 << FLOW_HASH_BITS) - 1

# The NF compiler compiles this text into every module whose source calls
# `flow_hash16`, the one function a `castan_havoc` annotation may reference.
# NF fingerprints hash the compiled IR: any edit to the text changes them.
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

# Defined under this module's name, so the function pickles by reference
# and stays the identity key of the rainbow-table caches.
_namespace = {"__name__": __name__}
exec(compile(FLOW_HASH_DIALECT_SOURCE, "<flow-hash dialect>", "exec"), _namespace)
flow_hash16 = _namespace["flow_hash16"]
flow_hash16.__doc__ = """Jenkins one-at-a-time hash of a 64-bit key, folded to 16 bits.

The key is an int, a ``uint64`` numpy array or an ``Expr``; the result has
the same kind."""
del _namespace


if not HAVE_NUMPY:  # pragma: no cover - exercised via tests/test_imports.py
    flow_hash16_column = None
else:

    def flow_hash16_column(keys) -> array:
        """``array('Q', [flow_hash16(k) for k in keys])`` in one numpy pass.

        numpy is imported by the first call; if it then fails to import,
        the scalar hash computes the same column.
        """
        np = load_numpy()
        if np is None:  # pragma: no cover - exercised via tests/test_imports.py
            return array("Q", map(flow_hash16, keys))
        return array("Q", flow_hash16(np.asarray(keys, dtype=np.uint64)).tobytes())


# -- flow key packing ----------------------------------------------------------
#
# Flow keys are packed into a single 64-bit word with disjoint bit fields so
# that the solver can decompose `key == constant` constraints field by field
# (see Solver._decompose_disjoint).  The layout is shared between the NF
# dialect sources, the workload generators and the reconciliation code.


def flow_key(ip: int, port: int, service_port: int) -> int:
    """A packed flow key: IP | port | service port.

    The LB and the NAT's forward direction key on (source IP, source port,
    destination port); the NAT's reverse direction on (destination IP,
    destination port, allocated external port).
    """
    return (ip & MASK32) | ((port & 0xFFFF) << 32) | ((service_port & 0xFFFF) << 48)


def flow_key_fields(key: int) -> tuple[int, int, int]:
    """Inverse of :func:`flow_key`."""
    return key & MASK32, (key >> 32) & 0xFFFF, (key >> 48) & 0xFFFF
