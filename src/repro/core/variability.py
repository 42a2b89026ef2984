"""Run-to-run variability: the paper's motivating phenomenon, measured.

The introduction motivates the whole study with Theta's measured
run-to-run variability ("frequently 15% or greater and can be up to
100%"). This module quantifies the same phenomenon inside the
simulator: repeat a configuration across seeds (different random
placements / routing choices / background phases) and report the spread
of the application's communication time. Section IV-C's headline —
*localized communication reduces performance variation under external
interference* — becomes a measurable number here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig
from repro.core.runner import run_single
from repro.mpi.trace import JobTrace

__all__ = ["VariabilityResult", "variability_study"]


@dataclass
class VariabilityResult:
    """Spread of median comm time across seeds, per configuration."""

    app: str
    seeds: tuple[int, ...]
    #: label -> array of median comm times (ns), one per seed.
    samples: dict[str, np.ndarray]

    def cv(self, label: str) -> float:
        """Coefficient of variation (std/mean) — the variability metric."""
        s = self.samples[label]
        return float(s.std() / s.mean()) if s.mean() else 0.0

    def spread_pct(self, label: str) -> float:
        """Max-over-min spread in percent (the paper's 'up to X%')."""
        s = self.samples[label]
        return float(100.0 * (s.max() - s.min()) / s.min())

    def to_text(self) -> str:
        lines = [
            f"run-to-run variability of {self.app} over seeds {list(self.seeds)}",
            f"{'config':<10} {'mean ms':>9} {'cv':>7} {'spread':>8}",
        ]
        for label, s in self.samples.items():
            lines.append(
                f"{label:<10} {s.mean() / 1e6:>9.4f} {self.cv(label):>7.3f} "
                f"{self.spread_pct(label):>7.1f}%"
            )
        return "\n".join(lines)


def variability_study(
    config: SimulationConfig,
    trace: JobTrace,
    configs: tuple[tuple[str, str], ...] = (("cont", "min"), ("rand", "adp")),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    background=None,
) -> VariabilityResult:
    """Repeat each configuration across seeds and collect the spread.

    With a ``background`` spec this reproduces the Section IV-C claim
    quantitatively: compare ``cv("cont-min")`` against ``cv("rand-adp")``
    under bursty background traffic.
    """
    if len(seeds) < 2:
        raise ValueError("variability needs at least two seeds")
    samples: dict[str, list[float]] = {f"{p}-{r}": [] for p, r in configs}
    for seed in seeds:
        for placement, routing in configs:
            result = run_single(
                config, trace, placement, routing, seed=seed, background=background
            )
            samples[f"{placement}-{routing}"].append(
                result.metrics.median_comm_time_ns
            )
    return VariabilityResult(
        trace.name,
        tuple(seeds),
        {k: np.asarray(v) for k, v in samples.items()},
    )
