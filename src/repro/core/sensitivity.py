"""The Section IV-B sensitivity study: varying communication intensity.

The paper scales every message of CR and FB from 1% to 2x of the
original size, and AMG from 50% to 20x, and compares the *maximum
communication time among all ranks* of the four extreme configurations
(cont/rand x min/adp), normalised to ``rand-adp`` at the same scale
(Figure 7).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.exec.plan import plan_sensitivity
from repro.exec.pool import execute_plan
from repro.mpi.trace import JobTrace

__all__ = ["sensitivity_sweep", "SensitivityResult", "PAPER_SCALES"]

#: The paper's message-scale grids per application.
PAPER_SCALES = {
    "CR": (0.01, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0),
    "FB": (0.01, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0),
    "AMG": (0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
}

#: The four extreme configurations the paper sweeps.
EXTREME_CONFIGS = (
    ("cont", "min"),
    ("rand", "min"),
    ("cont", "adp"),
    ("rand", "adp"),
)


class SensitivityResult:
    """Max-comm-time series per configuration over message scales."""

    def __init__(
        self,
        app: str,
        scales: tuple[float, ...],
        max_comm_ns: dict[str, np.ndarray],
        baseline: str,
    ) -> None:
        self.app = app
        self.scales = scales
        self.max_comm_ns = max_comm_ns
        self.baseline = baseline

    def labels(self) -> list[str]:
        return list(self.max_comm_ns)

    def relative(self) -> dict[str, np.ndarray]:
        """Figure 7's y-axis: max comm time as % of the baseline config."""
        base = self.max_comm_ns[self.baseline]
        return {
            label: 100.0 * series / base
            for label, series in self.max_comm_ns.items()
        }

    def to_rows(self) -> list[tuple]:
        """(scale, {label: relative %}) rows for reports."""
        rel = self.relative()
        rows = []
        for i, s in enumerate(self.scales):
            rows.append((s, {label: float(rel[label][i]) for label in rel}))
        return rows


def sensitivity_sweep(
    config: SimulationConfig,
    trace: JobTrace,
    scales: Sequence[float],
    configs: Sequence[tuple[str, str]] = EXTREME_CONFIGS,
    baseline: tuple[str, str] = ("rand", "adp"),
    seed: int = 0,
    max_workers: int = 1,
    cache_dir=None,
    progress=None,
    faults=None,
    backend: str = "packet",
) -> SensitivityResult:
    """Run the message-size sweep for one application.

    ``max_workers``/``cache_dir``/``progress`` are forwarded to
    :func:`repro.exec.pool.execute_plan`; the serial default is
    unchanged from the historical loop.
    """
    if not scales:
        raise ValueError("need at least one scale")
    if tuple(baseline) not in {tuple(c) for c in configs}:
        raise ValueError("baseline configuration must be in the swept set")

    plan = plan_sensitivity(
        config, trace, scales, configs, seed=seed, faults=faults, backend=backend
    )
    report = execute_plan(
        plan,
        max_workers=max_workers,
        cache=cache_dir,
        progress=progress,
        strict=True,
    )
    # Plan order is scale-major then config, so per-label appends land
    # in scale order exactly as the serial loop produced them.
    series: dict[str, list[float]] = {f"{p}-{r}": [] for p, r in configs}
    for spec, outcome in zip(plan.specs, report.outcomes):
        series[spec.label].append(outcome.result.metrics.max_comm_time_ns)

    return SensitivityResult(
        trace.name,
        tuple(scales),
        {k: np.asarray(v) for k, v in series.items()},
        baseline=f"{baseline[0]}-{baseline[1]}",
    )
