"""Resilience study: the trade-off grid swept over failure rates.

The paper's placement x routing grid assumes a healthy fabric; this
harness asks how the trade-off shifts when channels fail. For each
failure rate in the sweep a seeded :class:`~repro.faults.FaultPlan` is
drawn (one plan per rate — every grid cell at that rate sees the *same*
degraded machine, so differences between cells are attributable to
placement/routing, not to fault sampling noise) and the full grid is
re-run. Results are reported as per-cell *degradation*: the percentage
increase of communication time over the healthy (rate 0) grid.

Adaptive routing is expected to absorb faults better than minimal —
its cost comparison steers around the survivors' congestion — which is
exactly the kind of claim this harness quantifies.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from repro.config import SimulationConfig
from repro.core.study import StudyResult, TradeoffStudy
from repro.mpi.trace import JobTrace
from repro.placement.policies import PLACEMENT_NAMES
from repro.routing import ROUTING_NAMES

__all__ = ["ResilienceResult", "resilience_study"]


class ResilienceResult:
    """Per-rate study results plus degradation accessors."""

    def __init__(
        self,
        rates: tuple[float, ...],
        studies: dict[float, StudyResult],
        plans: dict[float, object],
        fault_seed: int,
    ) -> None:
        self.rates = rates
        #: rate -> :class:`~repro.core.study.StudyResult`.
        self.studies = studies
        #: rate -> the :class:`~repro.faults.FaultPlan` used (rate 0
        #: maps to ``None``).
        self.plans = plans
        self.fault_seed = fault_seed

    @property
    def healthy(self) -> StudyResult:
        return self.studies[self.rates[0]]

    def labels(self) -> list[str]:
        return self.healthy.labels()

    def apps(self) -> tuple[str, ...]:
        return self.healthy.apps

    def comm_time_ns(
        self, app: str, label: str, rate: float, stat: str = "median"
    ) -> float:
        return self.studies[rate]._stat(app, label, stat)

    def degradation_pct(
        self, app: str, label: str, rate: float, stat: str = "median"
    ) -> float:
        """Communication-time increase over the healthy grid, in %."""
        healthy = self.comm_time_ns(app, label, self.rates[0], stat)
        faulted = self.comm_time_ns(app, label, rate, stat)
        return 100.0 * (faulted - healthy) / healthy

    def policy_degradation(
        self, app: str, rate: float, stat: str = "median"
    ) -> dict[str, float]:
        """Mean degradation per routing policy, averaged over placements.

        The headline comparison: how much worse each routing policy
        fares at this failure rate, placement-averaged so one pathological
        placement cannot dominate.
        """
        healthy = self.healthy
        out: dict[str, float] = {}
        for routing in healthy.routings:
            vals = [
                self.degradation_pct(app, f"{p}-{routing}", rate, stat)
                for p in healthy.placements
            ]
            out[routing] = sum(vals) / len(vals)
        return out

    def to_json(self) -> dict:
        """Export-ready summary (used by the CLI's ``--out``)."""
        healthy = self.healthy
        cells = []
        for app in healthy.apps:
            for label in healthy.labels():
                for rate in self.rates:
                    cells.append(
                        {
                            "app": app,
                            "label": label,
                            "rate": rate,
                            "median_comm_ns": self.comm_time_ns(
                                app, label, rate
                            ),
                            "degradation_pct": self.degradation_pct(
                                app, label, rate
                            ),
                        }
                    )
        plans = {
            f"{rate:g}": (plan.digest if plan is not None else None)
            for rate, plan in self.plans.items()
        }
        return {
            "schema": "repro-resilience/v1",
            "fault_seed": self.fault_seed,
            "rates": list(self.rates),
            "fault_plan_digests": plans,
            "cells": cells,
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def resilience_study(
    config: SimulationConfig,
    traces: Mapping[str, JobTrace],
    rates: Sequence[float],
    placements: tuple[str, ...] = PLACEMENT_NAMES,
    routings: tuple[str, ...] = ROUTING_NAMES,
    seed: int = 0,
    fault_seed: int = 0,
    router_rate: float = 0.0,
    compute_scale: float = 0.0,
    max_workers: int = 1,
    cache_dir=None,
    progress=None,
) -> ResilienceResult:
    """Sweep failure rate over the placement x routing grid.

    ``rates`` is the per-channel failure-probability grid; a healthy
    baseline (rate 0) is always included (and deduplicated if already
    present) because degradation is measured against it. One fault plan
    is drawn per non-zero rate from ``fault_seed`` — every cell at that
    rate shares it. Execution options are forwarded to
    :meth:`TradeoffStudy.run` per rate.
    """
    from repro.core.runner import build_topology
    from repro.faults import random_fault_plan

    swept = [float(r) for r in rates]
    if any(r < 0.0 or r > 1.0 for r in swept):
        raise ValueError("failure rates must be in [0, 1]")
    all_rates = [0.0] + sorted(r for r in set(swept) if r > 0.0)

    topo = build_topology(config.topology)
    studies: dict[float, StudyResult] = {}
    plans: dict[float, object] = {}
    for rate in all_rates:
        plan = None
        if rate > 0.0:
            plan = random_fault_plan(
                topo, rate, seed=fault_seed, router_rate=router_rate
            )
        plans[rate] = plan
        studies[rate] = TradeoffStudy(
            config,
            traces,
            placements=placements,
            routings=routings,
            seed=seed,
            compute_scale=compute_scale,
            faults=plan,
        ).run(
            max_workers=max_workers, cache_dir=cache_dir, progress=progress
        )
    return ResilienceResult(
        tuple(all_rates), studies, plans, fault_seed=fault_seed
    )
