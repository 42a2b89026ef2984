"""The three-tier answer funnel behind :func:`suggest_placement`.

Tier 1 — **surrogate**: the fitted ridge model ranks every enumerated
candidate placement from feature vectors alone — thousands per second,
no simulation. Tier 2 — **flow screen**: the top ``screen_top``
survivors run on the flow backend as content-addressed epoch cells
(explicit node allocations, cached, batchable). Tier 3 — **packet
validate**: the top ``validate_top`` of those re-run on the packet
backend, and the final recommendation is the packet winner.

Each tier spends more per candidate and sees fewer candidates, so the
funnel's cost is dominated by a handful of full-fidelity runs while its
*reach* is the whole candidate set. Every simulated cell goes through
:func:`repro.exec.pool.execute_plan` with
:func:`repro.cluster.engine.simulate_epoch` as the runner, so results
land in the ordinary disk cache: re-advising is free, and the cluster
stream engine later hits the same entries.

``exhaustive=True`` additionally runs the flow backend over *every*
candidate (sharing cache keys with tier 2) and records whether the
funnel's answer matches the exhaustive optimum — the CI agreement gate.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.advisor.features import (
    Candidate,
    FeatureExtractor,
    enumerate_candidates,
)
from repro.advisor.model import RidgeSurrogate
from repro.cluster.engine import EpochSpec, merge_epoch_trace, simulate_epoch
from repro.config import SimulationConfig
from repro.exec.cache import ResultCache
from repro.exec.plan import (
    ExperimentPlan,
    RunSpec,
    config_digest,
    trace_fingerprint,
)
from repro.exec.pool import execute_plan
from repro.mpi.trace import JobTrace
from repro.placement.policies import PLACEMENT_NAMES

__all__ = [
    "FUNNEL_SCHEMA",
    "FunnelResult",
    "RankedCandidate",
    "TierReport",
    "suggest_placement",
]

FUNNEL_SCHEMA = "repro-advisor-funnel/v1"


@dataclass
class TierReport:
    """Cost accounting for one funnel tier."""

    name: str
    candidates: int
    wall_s: float
    #: Candidates processed per wall-clock second (the bench gate for
    #: the surrogate tier).
    rate: float
    #: Simulation tiers only: cells served from the disk cache vs.
    #: actually simulated.
    cached: int = 0
    simulated: int = 0


@dataclass
class RankedCandidate:
    """One candidate's scores as it moved through the funnel."""

    placement: str
    draw: int
    nodes: tuple[int, ...]
    predicted: float
    flow_ns: float | None = None
    packet_ns: float | None = None

    @property
    def label(self) -> str:
        return f"{self.placement}#{self.draw}"


@dataclass
class FunnelResult:
    """Everything :func:`suggest_placement` decided and measured."""

    app: str
    routing: str
    num_ranks: int
    chosen: RankedCandidate
    #: Every enumerated candidate in surrogate-rank order (best first).
    ranking: list[RankedCandidate]
    tiers: list[TierReport]
    seed: int
    #: Exhaustive flow-screen agreement check (``exhaustive=True``):
    #: the optimum candidate and whether the funnel matched it.
    exhaustive: dict | None = None
    meta: dict = field(default_factory=dict)

    @property
    def ranked(self) -> int:
        return len(self.ranking)

    @property
    def screened(self) -> int:
        return sum(1 for c in self.ranking if c.flow_ns is not None)

    @property
    def validated(self) -> int:
        return sum(1 for c in self.ranking if c.packet_ns is not None)

    def to_payload(self) -> dict:
        def cand(c: RankedCandidate) -> dict:
            return {
                "placement": c.placement,
                "draw": c.draw,
                "nodes": list(c.nodes),
                "predicted": c.predicted,
                "flow_ns": c.flow_ns,
                "packet_ns": c.packet_ns,
            }

        return {
            "schema": FUNNEL_SCHEMA,
            "app": self.app,
            "routing": self.routing,
            "num_ranks": self.num_ranks,
            "seed": self.seed,
            "chosen": cand(self.chosen),
            "counts": {
                "ranked": self.ranked,
                "screened": self.screened,
                "validated": self.validated,
            },
            "tiers": [
                {
                    "name": t.name,
                    "candidates": t.candidates,
                    "wall_s": t.wall_s,
                    "rate": t.rate,
                    "cached": t.cached,
                    "simulated": t.simulated,
                }
                for t in self.tiers
            ],
            "ranking": [cand(c) for c in self.ranking],
            "exhaustive": self.exhaustive,
            "meta": self.meta,
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )

    def format_table(self, top: int = 10) -> str:
        """Human-readable funnel summary for the CLI."""
        lines = [
            f"advisor funnel: app={self.app} routing={self.routing} "
            f"ranks={self.num_ranks}",
            f"{'tier':<12} {'cands':>6} {'wall_s':>9} {'rate/s':>10} "
            f"{'cached':>7} {'sim':>5}",
        ]
        for t in self.tiers:
            lines.append(
                f"{t.name:<12} {t.candidates:>6} {t.wall_s:>9.3f} "
                f"{t.rate:>10.1f} {t.cached:>7} {t.simulated:>5}"
            )
        lines.append("")
        lines.append(
            f"{'candidate':<12} {'predicted':>10} {'flow_ms':>10} "
            f"{'packet_ms':>10}"
        )
        for c in self.ranking[:top]:
            flow = f"{c.flow_ns / 1e6:.3f}" if c.flow_ns is not None else "-"
            pkt = (
                f"{c.packet_ns / 1e6:.3f}"
                if c.packet_ns is not None
                else "-"
            )
            mark = " <== chosen" if c is self.chosen else ""
            lines.append(
                f"{c.label:<12} {c.predicted:>10.4f} {flow:>10} "
                f"{pkt:>10}{mark}"
            )
        lines.append("")
        lines.append(
            f"recommendation: {self.chosen.placement} "
            f"(draw {self.chosen.draw}), nodes={list(self.chosen.nodes)}"
        )
        if self.exhaustive is not None:
            agree = self.exhaustive["agree_placement"]
            lines.append(
                f"exhaustive flow optimum: "
                f"{self.exhaustive['best_placement']}"
                f"#{self.exhaustive['best_draw']} — "
                f"{'agrees' if agree else 'DISAGREES'} with the funnel"
            )
        return "\n".join(lines)


def _epoch_plan(
    config: SimulationConfig,
    candidates: Sequence[Candidate],
    app_key: str,
    container: JobTrace,
    job_name: str,
    num_ranks: int,
    routing: str,
    backend: str,
    seed: int,
    trace_digest: str,
    cfg_digest: str,
) -> ExperimentPlan:
    """One single-job epoch cell per candidate, on ``backend``.

    The epoch's explicit node allocation is what makes a candidate a
    first-class cell: same content-addressed caching, batching, and
    retry machinery as every other cell in the repo — and the same keys
    whether reached from the funnel, the exhaustive check, or a later
    cluster stream.
    """
    specs = tuple(
        RunSpec(
            app=app_key,
            placement=cand.placement,
            routing=routing,
            seed=seed,
            config_digest=cfg_digest,
            trace_digest=trace_digest,
            backend=backend,
            epoch=EpochSpec(
                jobs=((job_name, num_ranks, cand.nodes),),
                stream_seed=seed,
                mix="advisor-funnel",
            ),
        )
        for cand in candidates
    )
    return ExperimentPlan(
        config=config, specs=specs, traces={app_key: container}
    )


def _run_tier(
    name: str,
    config: SimulationConfig,
    candidates: Sequence[Candidate],
    backend: str,
    *,
    app_key: str,
    container: JobTrace,
    job_name: str,
    num_ranks: int,
    routing: str,
    seed: int,
    trace_digest: str,
    cfg_digest: str,
    cache: ResultCache | None,
    max_workers: int,
    timeout_s: float | None,
) -> tuple[list[float], TierReport]:
    """Simulate every candidate on ``backend``; scores in input order."""
    plan = _epoch_plan(
        config,
        candidates,
        app_key,
        container,
        job_name,
        num_ranks,
        routing,
        backend,
        seed,
        trace_digest,
        cfg_digest,
    )
    start = time.perf_counter()
    report = execute_plan(
        plan,
        max_workers=max_workers,
        cache=cache,
        timeout_s=timeout_s,
        runner=simulate_epoch,
        strict=True,
    )
    wall = time.perf_counter() - start
    scores = [
        float(r.metrics.median_comm_time_ns) for r in report.results()
    ]
    tier = TierReport(
        name=name,
        candidates=len(candidates),
        wall_s=wall,
        rate=len(candidates) / wall if wall > 0 else 0.0,
        cached=report.cached,
        simulated=report.done,
    )
    return scores, tier


def suggest_placement(
    config: SimulationConfig,
    trace: JobTrace,
    routing: str,
    model: RidgeSurrogate,
    *,
    placements: Sequence[str] = PLACEMENT_NAMES,
    per_policy: int = 20,
    screen_top: int = 12,
    validate_top: int = 3,
    seed: int = 0,
    cache: ResultCache | str | None = None,
    max_workers: int = 1,
    timeout_s: float | None = None,
    exhaustive: bool = False,
) -> FunnelResult:
    """Recommend a placement for ``trace`` through the three-tier funnel.

    ``screen_top`` bounds the flow tier, ``validate_top`` the packet
    tier; ``validate_top=0`` skips packet validation and recommends the
    flow winner (``screen_top`` must stay ≥ 1 — the funnel never
    recommends from the surrogate alone). Ties at every tier break
    toward the better rank of the previous tier, so the whole funnel is
    deterministic in its inputs.
    """
    if screen_top < 1:
        raise ValueError("screen_top must be >= 1")
    if validate_top < 0:
        raise ValueError("validate_top must be >= 0")
    if isinstance(cache, str):
        cache = ResultCache(cache)

    num_ranks = trace.num_ranks
    candidates = enumerate_candidates(
        config, num_ranks, placements=placements,
        per_policy=per_policy, seed=seed,
    )

    # -- tier 1: surrogate ranking ------------------------------------
    start = time.perf_counter()
    fx = FeatureExtractor(config, trace, routing)
    predictions = model.predict(fx.matrix(candidates))
    order = np.argsort(predictions, kind="stable")
    wall = time.perf_counter() - start
    tier1 = TierReport(
        name="surrogate",
        candidates=len(candidates),
        wall_s=wall,
        rate=len(candidates) / wall if wall > 0 else 0.0,
    )

    ranking = [
        RankedCandidate(
            placement=candidates[i].placement,
            draw=candidates[i].draw,
            nodes=candidates[i].nodes,
            predicted=float(predictions[i]),
        )
        for i in order
    ]
    by_nodes = {c.nodes: c for c in ranking}

    # Shared cell ingredients: one single-job container trace, one
    # trace digest, one config digest — only the epoch (the candidate's
    # node set) varies per spec.
    job_name = trace.name
    container = merge_epoch_trace([(job_name, trace)], f"advise:{job_name}")
    app_key = container.name
    tdigest = trace_fingerprint(container)
    cfg_digest = config_digest(config)

    def run_tier(
        name: str, cands: Sequence[Candidate], backend: str
    ) -> tuple[list[float], TierReport]:
        return _run_tier(
            name,
            config,
            cands,
            backend,
            app_key=app_key,
            container=container,
            job_name=job_name,
            num_ranks=num_ranks,
            routing=routing,
            seed=seed,
            trace_digest=tdigest,
            cfg_digest=cfg_digest,
            cache=cache,
            max_workers=max_workers,
            timeout_s=timeout_s,
        )

    # -- tier 2: flow screen ------------------------------------------
    screened = [candidates[i] for i in order[:screen_top]]
    flow_scores, tier2 = run_tier("flow-screen", screened, "flow")
    for cand, score in zip(screened, flow_scores):
        by_nodes[cand.nodes].flow_ns = score
    flow_order = sorted(
        range(len(screened)), key=lambda k: (flow_scores[k], k)
    )

    tiers = [tier1, tier2]

    # -- tier 3: packet validate --------------------------------------
    if validate_top > 0:
        finalists = [screened[k] for k in flow_order[:validate_top]]
        packet_scores, tier3 = run_tier("packet-val", finalists, "packet")
        for cand, score in zip(finalists, packet_scores):
            by_nodes[cand.nodes].packet_ns = score
        best = min(
            range(len(finalists)), key=lambda k: (packet_scores[k], k)
        )
        chosen = by_nodes[finalists[best].nodes]
        tiers.append(tier3)
    else:
        chosen = by_nodes[screened[flow_order[0]].nodes]

    # -- optional exhaustive flow check -------------------------------
    exhaustive_report: dict | None = None
    if exhaustive:
        all_scores, tier_ex = run_tier("flow-exhaust", candidates, "flow")
        best_i = min(
            range(len(candidates)), key=lambda k: (all_scores[k], k)
        )
        best_cand = candidates[best_i]
        chosen_i = next(
            k for k, c in enumerate(candidates) if c.nodes == chosen.nodes
        )
        exhaustive_report = {
            "best_placement": best_cand.placement,
            "best_draw": best_cand.draw,
            "best_nodes": list(best_cand.nodes),
            "best_flow_ns": all_scores[best_i],
            "chosen_flow_ns": all_scores[chosen_i],
            "agree_placement": best_cand.placement == chosen.placement,
            "agree_nodes": best_cand.nodes == chosen.nodes,
        }
        tiers.append(tier_ex)

    return FunnelResult(
        app=job_name,
        routing=routing,
        num_ranks=num_ranks,
        chosen=chosen,
        ranking=ranking,
        tiers=tiers,
        seed=seed,
        exhaustive=exhaustive_report,
        meta={
            "placements": list(placements),
            "per_policy": per_policy,
            "screen_top": screen_top,
            "validate_top": validate_top,
            "backend_screen": "flow",
            "backend_validate": "packet" if validate_top else None,
        },
    )
