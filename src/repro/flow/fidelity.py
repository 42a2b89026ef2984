"""Cross-fidelity validation: flow backend vs. the exact packet engine.

The flow model is only useful if it preserves the paper's *conclusions*
— which placement/routing configuration wins — at a fraction of the
cost. :func:`fidelity_report` runs matched packet and flow grids over
the same traces/placements/routings/seed and reports, per cell, the
relative error of every scalar summary metric, plus the load-bearing
checks:

* **rank agreement** per (app, routing): Kendall's tau between the two
  backends' placement orderings by median communication time, and
  whether the top-1 (best) placement agrees;
* **measured speedup**: summed per-cell wall-clock
  (:attr:`~repro.core.runner.RunResult.wall_s`) packet / flow.

The report exports as versioned ``repro-fidelity/v1`` JSON (CLI:
``dragonfly-tradeoff fidelity``); CI's ``flow-smoke`` job gates on
top-1 agreement and the speedup floor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.config import SimulationConfig
from repro.core.study import StudyResult, TradeoffStudy
from repro.mpi.trace import JobTrace
from repro.placement.policies import PLACEMENT_NAMES
from repro.routing import ROUTING_NAMES

__all__ = ["SCHEMA", "FidelityReport", "fidelity_report", "kendall_tau"]

#: Versioned export schema.
SCHEMA = "repro-fidelity/v1"

#: Summary metrics compared per cell (keys of ``RunMetrics.summary()``).
METRIC_KEYS = (
    "max_comm_ms",
    "median_comm_ms",
    "mean_hops",
    "local_traffic_mb",
    "global_traffic_mb",
    "local_sat_ms",
    "global_sat_ms",
)


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Kendall's tau-a between two aligned score vectors.

    ``+1`` means identical orderings, ``-1`` fully reversed; tied pairs
    count zero. Hand-rolled (O(n^2)) because n is a handful of
    placements and scipy must stay optional here.
    """
    if len(a) != len(b):
        raise ValueError("score vectors must be the same length")
    n = len(a)
    if n < 2:
        return 1.0
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            x = (a[i] > a[j]) - (a[i] < a[j])
            y = (b[i] > b[j]) - (b[i] < b[j])
            s += x * y
    return s / (n * (n - 1) / 2)


def _rel_err(packet: float, flow: float) -> float | None:
    """Signed relative error, ``None`` when the reference is zero."""
    if packet == 0.0:
        return None if flow != 0.0 else 0.0
    return (flow - packet) / packet


@dataclass
class FidelityReport:
    """Matched packet/flow grid comparison (see :func:`fidelity_report`)."""

    apps: tuple[str, ...]
    placements: tuple[str, ...]
    routings: tuple[str, ...]
    #: One record per grid cell: per-backend summaries, per-metric
    #: relative errors, and per-backend wall seconds.
    cells: list[dict[str, Any]]
    #: ``rank[app][routing]`` -> tau / top-1 agreement record.
    rank: dict[str, dict[str, dict[str, Any]]]
    packet_wall_s: float
    flow_wall_s: float

    @property
    def speedup(self) -> float:
        """Measured flow-vs-packet speedup on the matched cells."""
        if self.flow_wall_s <= 0.0:
            return float("inf")
        return self.packet_wall_s / self.flow_wall_s

    def top1_agreement(self) -> bool:
        """True iff the best placement agrees for every (app, routing)."""
        return all(
            rec["top1_agree"]
            for by_routing in self.rank.values()
            for rec in by_routing.values()
        )

    def metric_errors(self) -> dict[str, dict[str, float]]:
        """Mean/max absolute relative error per summary metric."""
        out: dict[str, dict[str, float]] = {}
        for key in METRIC_KEYS:
            errs = [
                abs(cell["rel_err"][key])
                for cell in self.cells
                if cell["rel_err"][key] is not None
            ]
            if errs:
                out[key] = {
                    "mean_abs": sum(errs) / len(errs),
                    "max_abs": max(errs),
                }
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "apps": list(self.apps),
            "placements": list(self.placements),
            "routings": list(self.routings),
            "cells": self.cells,
            "rank": self.rank,
            "metric_errors": self.metric_errors(),
            "packet_wall_s": self.packet_wall_s,
            "flow_wall_s": self.flow_wall_s,
            "speedup": self.speedup,
            "top1_agreement": self.top1_agreement(),
        }

    def save_json(self, path: Any) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def format_table(self) -> str:
        """Human-readable summary for the CLI."""
        lines = ["flow-vs-packet fidelity", "=" * 55]
        for app in self.apps:
            for routing in self.routings:
                rec = self.rank[app][routing]
                agree = "agree" if rec["top1_agree"] else "DISAGREE"
                lines.append(
                    f"{app} {routing}: tau={rec['kendall_tau']:+.2f} "
                    f"top-1 {agree} "
                    f"(packet={rec['top1_packet']}, flow={rec['top1_flow']})"
                )
        lines.append("-" * 55)
        for key, err in self.metric_errors().items():
            lines.append(
                f"{key:>18}: mean |rel err| {100 * err['mean_abs']:6.1f}%  "
                f"max {100 * err['max_abs']:6.1f}%"
            )
        lines.append("-" * 55)
        lines.append(
            f"wall: packet {self.packet_wall_s:.2f}s, "
            f"flow {self.flow_wall_s:.2f}s -> speedup {self.speedup:.1f}x"
        )
        return "\n".join(lines)


def fidelity_report(
    config: SimulationConfig,
    traces: Mapping[str, JobTrace] | Iterable[JobTrace],
    placements: tuple[str, ...] = PLACEMENT_NAMES,
    routings: tuple[str, ...] = ROUTING_NAMES,
    seed: int = 0,
    compute_scale: float = 0.0,
    max_workers: int = 1,
    cache_dir: Any = None,
    progress: Any = None,
) -> FidelityReport:
    """Run matched packet and flow grids and compare them.

    Identical inputs go to both backends; only ``backend`` differs, so
    every per-cell difference is attributable to the fluid
    approximation. Note cached cells report their *originally measured*
    ``wall_s`` — run without ``cache_dir`` when the speedup number
    matters.
    """
    results: dict[str, StudyResult] = {}
    for backend in ("packet", "flow"):
        results[backend] = TradeoffStudy(
            config,
            traces if isinstance(traces, Mapping) else {
                t.name: t for t in traces
            },
            placements=placements,
            routings=routings,
            seed=seed,
            compute_scale=compute_scale,
            backend=backend,
        ).run(max_workers=max_workers, cache_dir=cache_dir, progress=progress)
    packet, flow = results["packet"], results["flow"]

    cells: list[dict[str, Any]] = []
    packet_wall = 0.0
    flow_wall = 0.0
    for app in packet.apps:
        for placement in placements:
            for routing in routings:
                pr = packet.runs[(app, placement, routing)]
                fr = flow.runs[(app, placement, routing)]
                ps = pr.metrics.summary()
                fs = fr.metrics.summary()
                cells.append(
                    {
                        "app": app,
                        "placement": placement,
                        "routing": routing,
                        "packet": ps,
                        "flow": fs,
                        "rel_err": {
                            k: _rel_err(ps[k], fs[k]) for k in METRIC_KEYS
                        },
                        "packet_wall_s": pr.wall_s,
                        "flow_wall_s": fr.wall_s,
                    }
                )
                packet_wall += pr.wall_s
                flow_wall += fr.wall_s

    rank: dict[str, dict[str, dict[str, Any]]] = {}
    for app in packet.apps:
        rank[app] = {}
        for routing in routings:
            p_scores = [
                packet.runs[(app, p, routing)].metrics.median_comm_time_ns
                for p in placements
            ]
            f_scores = [
                flow.runs[(app, p, routing)].metrics.median_comm_time_ns
                for p in placements
            ]
            p_best = placements[p_scores.index(min(p_scores))]
            f_best = placements[f_scores.index(min(f_scores))]
            rank[app][routing] = {
                "kendall_tau": kendall_tau(p_scores, f_scores),
                "top1_packet": p_best,
                "top1_flow": f_best,
                "top1_agree": p_best == f_best,
            }

    return FidelityReport(
        apps=packet.apps,
        placements=tuple(placements),
        routings=tuple(routings),
        cells=cells,
        rank=rank,
        packet_wall_s=packet_wall,
        flow_wall_s=flow_wall,
    )
