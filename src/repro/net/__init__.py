"""Packet substrate: headers, checksums, flows, and pcap I/O.

This subpackage plays the role the paper delegates to DPDK's mbuf handling
and MoonGen's pcap replay: constructing and parsing Ethernet/IPv4/TCP/UDP
packets, computing checksums, describing flows, and reading/writing real
pcap files so that synthesized adversarial workloads are materialised in the
same format the paper's tooling produces.
"""
