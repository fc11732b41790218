"""The evaluation network functions (§5.1 plus scenario expansions).

Sixteen NFs, each written in the restricted-Python NF dialect and compiled
to NFIL: a NOP baseline, three LPM implementations (Patricia trie, 1-stage
direct lookup, DPDK-style 2-stage lookup), NAT/LB pairs over four
associative containers (chained hash table, open-addressing hash ring,
unbalanced binary tree, red-black tree), and four scenario-expansion NFs
(ring-buffer conntrack firewall, two-choice token-bucket policer,
Bloom-filter dedup, pattern-trie DPI).  Use
:func:`repro.nf.registry.get_nf` to obtain a configured
:class:`repro.nf.base.NetworkFunction`.
"""
