"""Zipfian sampling for the typical-traffic workload.

The paper's Zipfian workload uses exponent s = 1.26, computed from a public
university-network trace; flows are ranked and packet counts follow the
Zipf distribution over those ranks.
"""

from __future__ import annotations

import random

ZIPF_EXPONENT = 1.26


def zipf_weights(num_ranks: int) -> list[float]:
    """Unnormalised Zipf weights (exponent :data:`ZIPF_EXPONENT`) for ranks 1..num_ranks."""
    if num_ranks <= 0:
        return []
    return [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, num_ranks + 1)]


def zipf_sample(num_samples: int, num_ranks: int, seed: int = 0) -> list[int]:
    """Draw ``num_samples`` ranks (0-based) from a Zipf distribution."""
    weights = zipf_weights(num_ranks)
    rng = random.Random(seed)
    return rng.choices(range(num_ranks), weights=weights, k=num_samples)


def zipf_flow_counts(num_packets: int, num_flows: int, seed: int = 0) -> list[int]:
    """Packets per flow rank such that the total is exactly ``num_packets``."""
    samples = zipf_sample(num_packets, num_flows, seed)
    counts = [0] * num_flows
    for rank in samples:
        counts[rank] += 1
    return counts
