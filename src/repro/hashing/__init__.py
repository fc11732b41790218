"""Hash functions used by the evaluation NFs and rainbow-table inversion.

The NFs index their hash tables/rings with a small non-cryptographic hash
(16-bit output, as the paper notes typical hash values are ~20 bits).  The
same function exists twice by construction: once as NF-dialect source that
gets compiled to NFIL (and is what the concrete DUT executes), and once as
a plain Python callable used by rainbow-table construction and havoc
reconciliation.  A test asserts the two agree bit-for-bit.
"""
