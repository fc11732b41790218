"""Cumulative distribution functions for latency/cycle measurements.

Every latency and micro-architectural figure in the paper is a CDF; this
class holds the sample set and produces the (x, p) series, percentiles and
medians those figures plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Width and row count of :meth:`CDF.render`'s ASCII plot.
RENDER_WIDTH = 48
RENDER_POINTS = 12


def _nearest_rank(fraction: float, count: int) -> int:
    """0-based index of the nearest-rank percentile of ``count`` sorted samples.

    The rank is ``ceil(fraction * count)``; the product is rounded first so
    float error (``0.07 * 100 == 7.000000000000001``) cannot push an exact
    rank one up.
    """
    rank = math.ceil(round(fraction * count, 9))
    return min(count - 1, max(0, rank - 1))


@dataclass
class CDF:
    """An empirical CDF over a list of numeric samples."""

    samples: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    def percentile(self, fraction: float) -> float:
        """Value at the given cumulative fraction (0 < fraction <= 1)."""
        if not self.samples:
            return 0.0
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        ordered = sorted(self.samples)
        return float(ordered[_nearest_rank(fraction, len(ordered))])

    @property
    def median(self) -> float:
        return self.percentile(0.5)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def minimum(self) -> float:
        return float(min(self.samples)) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return float(max(self.samples)) if self.samples else 0.0

    def series(self, points: int = 50) -> list[tuple[float, float]]:
        """(value, cumulative probability) pairs suitable for plotting."""
        if not self.samples:
            return []
        ordered = sorted(self.samples)
        total = len(ordered)
        points = max(2, min(points, total))
        series: list[tuple[float, float]] = []
        for i in range(points):
            fraction = (i + 1) / points
            series.append((float(ordered[_nearest_rank(fraction, total)]), fraction))
        return series

    def render(self, label: str = "") -> str:
        """ASCII rendering of the CDF (used by the figure benchmarks)."""
        if not self.samples:
            return f"{label}: (no samples)"
        lines = [f"{label} (n={self.count}, median={self.median:.0f})"]
        lo, hi = self.minimum, self.maximum
        span = (hi - lo) or 1.0
        for value, fraction in self.series(RENDER_POINTS):
            bar = "#" * max(1, int((value - lo) / span * RENDER_WIDTH))
            lines.append(f"  p{int(fraction * 100):3d} {value:10.1f} {bar}")
        return "\n".join(lines)
