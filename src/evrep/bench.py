"""Statistics of the per-step encoder timings that ``evrep bench`` records.

The stream is fully materialized in memory before any clock starts; one
sample is the wall-clock time to build one representation tensor. The first
``warmup`` steps run and are discarded, so reported statistics come from
exactly ``steps`` recorded samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class BenchReport:
    """Recorded per-step samples plus derived statistics."""

    representation: str
    params: dict
    samples_us: list[float] = field(default_factory=list)
    warmup: int = 0
    events_processed: int = 0

    @property
    def steps(self) -> int:
        return len(self.samples_us)

    def _nearest_rank(self, q: float) -> float:
        ordered = sorted(self.samples_us)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    @property
    def median_us(self) -> float:
        ordered = sorted(self.samples_us)
        n = len(ordered)
        mid = n // 2
        return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def p95_us(self) -> float:
        return self._nearest_rank(0.95)

    @property
    def mean_us(self) -> float:
        return sum(self.samples_us) / len(self.samples_us)

    def to_text(self) -> str:
        lines = [
            f"representation: {self.representation}",
            f"params: {self.params}",
            f"steps: {self.steps} (after {self.warmup} warm-up)",
            f"events processed: {self.events_processed}",
            f"median: {self.median_us / 1000:.3f} ms",
            f"p95:    {self.p95_us / 1000:.3f} ms",
            f"mean:   {self.mean_us / 1000:.3f} ms",
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        header = "step,sample_us\n"
        rows = "".join(f"{i},{s:.3f}\n" for i, s in enumerate(self.samples_us))
        return header + rows
