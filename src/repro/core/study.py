"""The Section IV-A application study: placement x routing grid."""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.config import SimulationConfig
from repro.core.runner import RunResult
from repro.exec.plan import plan_grid
from repro.exec.pool import ExecutionReport, execute_plan
from repro.metrics.analysis import BoxStats, box_stats, cdf, percent_improvement
from repro.mpi.trace import JobTrace
from repro.placement.policies import PLACEMENT_NAMES
from repro.routing import ROUTING_NAMES

__all__ = ["TradeoffStudy", "StudyResult"]


class TradeoffStudy:
    """Runs each application alone under every placement/routing combo.

    The paper's Table I grid: 5 placements x 2 routings = 10
    configurations per application. Each application is simulated
    independently "to eliminate interference from multiple jobs sharing
    the network"; pass ``background`` to instead reproduce the Section
    IV-C interference experiments.
    """

    def __init__(
        self,
        config: SimulationConfig,
        traces: Mapping[str, JobTrace] | Iterable[JobTrace],
        placements: tuple[str, ...] = PLACEMENT_NAMES,
        routings: tuple[str, ...] = ROUTING_NAMES,
        seed: int = 0,
        compute_scale: float = 0.0,
        background=None,
        record_sends: bool = False,
        obs=None,
        faults=None,
        backend: str = "packet",
    ) -> None:
        if not isinstance(traces, Mapping):
            traces = {t.name: t for t in traces}
        if not traces:
            raise ValueError("need at least one application trace")
        self.config = config
        self.traces = dict(traces)
        self.placements = tuple(placements)
        self.routings = tuple(routings)
        self.seed = seed
        self.compute_scale = compute_scale
        self.background = background
        self.record_sends = record_sends
        self.obs = obs
        self.faults = faults
        self.backend = backend

    def plan(self):
        """The study as a flat :class:`~repro.exec.plan.ExperimentPlan`."""
        return plan_grid(
            self.config,
            self.traces,
            self.placements,
            self.routings,
            seed=self.seed,
            compute_scale=self.compute_scale,
            background=self.background,
            record_sends=self.record_sends,
            obs=self.obs,
            faults=self.faults,
            backend=self.backend,
        )

    def run(
        self,
        verbose: bool = False,
        max_workers: int = 1,
        cache_dir=None,
        progress=None,
        timeout_s: float | None = None,
        retries: int = 1,
    ) -> "StudyResult":
        """Execute the full grid and collect results.

        The grid is planned through :mod:`repro.exec`: ``max_workers=1``
        (default) runs serially in-process exactly as before, larger
        values shard cells across a process pool; either way results
        come back in the same deterministic grid order. ``cache_dir``
        enables the disk result cache so a re-run only simulates
        changed cells; ``progress`` receives
        :class:`~repro.exec.progress.ProgressEvent` telemetry.
        """
        plan = self.plan()
        report = execute_plan(
            plan,
            max_workers=max_workers,
            cache=cache_dir,
            progress=progress,
            timeout_s=timeout_s,
            retries=retries,
            ipc_send_events=self.record_sends,
            strict=True,
        )
        runs: dict[tuple[str, str, str], RunResult] = {}
        for spec, outcome in zip(plan.specs, report.outcomes):
            result = outcome.result
            runs[(spec.app, spec.placement, spec.routing)] = result
            if verbose:
                m = result.metrics
                print(
                    f"{spec.app:>4} {result.label:<9} "
                    f"median={m.median_comm_time_ns / 1e6:8.3f} ms "
                    f"max={m.max_comm_time_ns / 1e6:8.3f} ms "
                    f"hops={m.mean_hops:4.2f}"
                )
        return StudyResult(
            runs,
            tuple(self.traces),
            self.placements,
            self.routings,
            report=report,
        )


class StudyResult:
    """Results of a grid study, with figure-oriented accessors."""

    def __init__(
        self,
        runs: dict[tuple[str, str, str], RunResult],
        apps: tuple[str, ...],
        placements: tuple[str, ...],
        routings: tuple[str, ...],
        report: ExecutionReport | None = None,
    ) -> None:
        self.runs = runs
        self.apps = apps
        self.placements = placements
        self.routings = routings
        #: Execution telemetry (cached/simulated counts, wall time);
        #: ``None`` for results assembled outside ``TradeoffStudy.run``.
        self.report = report

    def labels(self) -> list[str]:
        """Configuration labels in the paper's order (min block first)."""
        return [
            f"{p}-{r}" for r in self.routings for p in self.placements
        ]

    def get(self, app: str, label: str) -> RunResult:
        placement, routing = label.rsplit("-", 1)
        return self.runs[(app, placement, routing)]

    # Figure 3 ----------------------------------------------------------
    def comm_time_boxes(self, app: str) -> dict[str, BoxStats]:
        """Per-config five-number summaries of rank comm times (ms)."""
        return {
            label: box_stats(self.get(app, label).metrics.comm_time_ns / 1e6)
            for label in self.labels()
        }

    # Figures 4-6 -------------------------------------------------------
    def hops_cdf(self, app: str) -> dict[str, tuple]:
        """Per-config CDF of per-rank average hops (Figure 4a)."""
        return {
            label: cdf(self.get(app, label).metrics.avg_hops)
            for label in self.labels()
        }

    def traffic_cdf(self, app: str, channel: str = "local") -> dict[str, tuple]:
        """Per-config CDF of channel traffic in MB (Figures 4b/5a/5c/...)."""
        out = {}
        for label in self.labels():
            m = self.get(app, label).metrics
            data = (
                m.local_traffic_bytes if channel == "local" else m.global_traffic_bytes
            )
            out[label] = cdf(data / 1e6)
        return out

    def saturation_cdf(self, app: str, channel: str = "local") -> dict[str, tuple]:
        """Per-config CDF of link saturation time in ms."""
        out = {}
        for label in self.labels():
            m = self.get(app, label).metrics
            data = m.local_sat_ns if channel == "local" else m.global_sat_ns
            out[label] = cdf(data / 1e6)
        return out

    # headline comparisons ---------------------------------------------
    def best_label(self, app: str, stat: str = "median") -> str:
        """Configuration with the lowest communication time."""
        return min(self.labels(), key=lambda lb: self._stat(app, lb, stat))

    def improvement_pct(
        self, app: str, better: str, worse: str, stat: str = "median"
    ) -> float:
        """Paper-style 'X% improvement of <better> over <worse>'."""
        return percent_improvement(
            self._stat(app, worse, stat), self._stat(app, better, stat)
        )

    def _stat(self, app: str, label: str, stat: str) -> float:
        m = self.get(app, label).metrics
        if stat == "median":
            return m.median_comm_time_ns
        if stat == "max":
            return m.max_comm_time_ns
        if stat == "mean":
            return float(m.comm_time_ns.mean())
        raise ValueError(f"unknown stat {stat!r}")
