"""The simulated measurement testbed (§5.1).

Stands in for the paper's two-machine setup (DUT + MoonGen traffic
generator over 10 GbE): a DUT that executes the compiled NF on the
simulated CPU/memory hierarchy, a latency experiment that replays a pcap in
a loop with one outstanding packet and reports end-to-end latency CDFs
(including a NOP baseline), a max-throughput search (highest offered rate
with <1 % loss), and the micro-architectural characterisation built on the
per-packet performance counters.
"""
