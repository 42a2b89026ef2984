"""The training-job trade-off study: the paper's grid on ML traffic.

The paper answers "localize or balance?" for DOE mini-apps;
:func:`training_tradeoff` reruns the same 5-placement x 2-routing grid
on the DL training family (:mod:`repro.mlcomms.generators` and/or
imported comms traces) and exports a versioned ``repro-mlcomms/v1``
report: per-cell summaries, a placement winner per (app, routing) with
its margin over the worst placement, and the resulting localize/balance
leaning per app. CLI: ``dragonfly-tradeoff training-tradeoff``; CI's
``mlcomms-smoke`` job gates on non-empty per-routing winners.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.config import SimulationConfig
from repro.core.study import StudyResult, TradeoffStudy
from repro.metrics.analysis import percent_improvement
from repro.mlcomms.generators import (
    dp_allreduce_trace,
    moe_alltoall_trace,
    pp_1f1b_trace,
    tp_layer_trace,
)
from repro.mpi.trace import JobTrace
from repro.placement.policies import PLACEMENT_NAMES
from repro.routing import ROUTING_NAMES

__all__ = [
    "SCHEMA",
    "DEFAULT_APPS",
    "TrainingReport",
    "default_training_traces",
    "training_tradeoff",
]

#: Versioned export schema.
SCHEMA = "repro-mlcomms/v1"

#: The synthetic training family, in report order.
DEFAULT_APPS = ("DP", "PP", "TP", "MOE")

#: Placement-policy leaning: which side of the paper's trade-off each
#: placement represents (contiguous variants localize, scattering
#: variants balance).
_PLACEMENT_LEANING = {
    "cont": "localize",
    "cab": "localize",
    "chas": "localize",
    "rotr": "balance",
    "rand": "balance",
}


def default_training_traces(
    num_ranks: int,
    msg_scale: float = 1.0,
    seed: int = 0,
    apps: Iterable[str] = DEFAULT_APPS,
) -> dict[str, JobTrace]:
    """The synthetic training jobs at a common rank count and scale."""
    builders = {
        "DP": dp_allreduce_trace,
        "PP": pp_1f1b_trace,
        "TP": tp_layer_trace,
        "MOE": moe_alltoall_trace,
    }
    traces: dict[str, JobTrace] = {}
    for app in apps:
        try:
            builder = builders[app.upper()]
        except KeyError:
            raise ValueError(
                f"unknown training app {app!r} (choose from {DEFAULT_APPS})"
            ) from None
        trace = builder(num_ranks=num_ranks, seed=seed)
        if msg_scale != 1.0:
            trace = trace.scaled(msg_scale)
        traces[trace.name] = trace
    return traces


@dataclass
class TrainingReport:
    """Grid results for the training family (see :func:`training_tradeoff`)."""

    apps: tuple[str, ...]
    placements: tuple[str, ...]
    routings: tuple[str, ...]
    backend: str
    #: One record per grid cell: the scalar metric summary + wall time.
    cells: list[dict[str, Any]]
    #: ``winners[app][routing]`` -> best placement, margin, runner-up.
    winners: dict[str, dict[str, dict[str, Any]]]

    def leaning(self, app: str) -> str:
        """'localize', 'balance', or 'split' across the app's routings."""
        sides = {
            _PLACEMENT_LEANING.get(rec["placement"], "balance")
            for rec in self.winners[app].values()
        }
        return sides.pop() if len(sides) == 1 else "split"

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "apps": list(self.apps),
            "placements": list(self.placements),
            "routings": list(self.routings),
            "backend": self.backend,
            "cells": self.cells,
            "winners": self.winners,
            "leaning": {app: self.leaning(app) for app in self.apps},
        }

    def save_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def format_table(self) -> str:
        """Human-readable summary for the CLI."""
        lines = ["training-job placement x routing trade-off", "=" * 60]
        for app in self.apps:
            for routing in self.routings:
                rec = self.winners[app][routing]
                lines.append(
                    f"{app:>4} {routing:<8} best={rec['placement']:<5} "
                    f"median={rec['median_ms']:8.3f} ms "
                    f"(+{rec['improvement_pct']:5.1f}% vs worst "
                    f"{rec['worst_placement']})"
                )
            lines.append(f"{app:>4} leaning: {self.leaning(app)}")
        lines.append("-" * 60)
        return "\n".join(lines)


def training_tradeoff(
    config: SimulationConfig,
    traces: Mapping[str, JobTrace] | Iterable[JobTrace] | None = None,
    *,
    num_ranks: int = 8,
    msg_scale: float = 1.0,
    apps: Iterable[str] = DEFAULT_APPS,
    placements: tuple[str, ...] = PLACEMENT_NAMES,
    routings: tuple[str, ...] = ROUTING_NAMES,
    seed: int = 0,
    backend: str = "flow",
    max_workers: int = 1,
    cache_dir: Any = None,
    progress: Any = None,
) -> TrainingReport:
    """Run the placement x routing grid on training jobs.

    With ``traces=None`` the synthetic family (``apps``) is generated at
    ``num_ranks``/``msg_scale``/``seed``; pass traces (e.g. from
    :func:`repro.mlcomms.traceio.load_comms_trace`) to study imported
    jobs instead. Defaults to the flow backend — training grids are
    bandwidth-dominated, exactly where the fluid model is strong — but
    ``backend="packet"`` runs the exact engine unchanged.
    """
    if traces is None:
        traces = default_training_traces(
            num_ranks, msg_scale=msg_scale, seed=seed, apps=apps
        )
    result: StudyResult = TradeoffStudy(
        config,
        traces,
        placements=placements,
        routings=routings,
        seed=seed,
        backend=backend,
    ).run(
        max_workers=max_workers,
        cache_dir=cache_dir,
        progress=progress,
    )

    cells: list[dict[str, Any]] = []
    for app in result.apps:
        for placement in placements:
            for routing in routings:
                run = result.runs[(app, placement, routing)]
                cells.append(
                    {
                        "app": app,
                        "placement": placement,
                        "routing": routing,
                        "summary": run.metrics.summary(),
                        "wall_s": run.wall_s,
                    }
                )

    winners: dict[str, dict[str, dict[str, Any]]] = {}
    for app in result.apps:
        winners[app] = {}
        for routing in routings:
            scores = {
                p: result.runs[(app, p, routing)].metrics.median_comm_time_ns
                for p in placements
            }
            order = sorted(scores, key=lambda p: scores[p])
            best, worst = order[0], order[-1]
            winners[app][routing] = {
                "placement": best,
                "median_ms": scores[best] / 1e6,
                "runner_up": order[1] if len(order) > 1 else best,
                "worst_placement": worst,
                "improvement_pct": percent_improvement(
                    scores[worst], scores[best]
                ),
            }

    return TrainingReport(
        apps=result.apps,
        placements=tuple(placements),
        routings=tuple(routings),
        backend=backend,
        cells=cells,
        winners=winners,
    )
