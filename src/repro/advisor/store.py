"""Training-set assembly from accumulated RunResults.

The :class:`~repro.exec.cache.ResultCache` a study leaves behind is a
free training corpus: every cell is a (placement, routing, trace) run
with a measured median communication time. This module walks that cache
(via the corruption-tolerant ``iter_results`` scan), refeaturizes each
result with :class:`~repro.advisor.features.FeatureExtractor`, and fits
the ridge surrogate on ``log1p(median_comm_time_ns)``.

A cached :class:`~repro.core.runner.RunResult` records its app *name*
but not the trace content, so the caller supplies the traces keyed by
app name — and owns the contract that those traces match the ones the
cache was warmed with (same ranks, same message scaling). The CI
advisor-smoke job warms and trains in one script for exactly this
reason; results whose app is unknown or whose rank count disagrees with
the supplied trace are skipped and counted, never guessed at. So are
results stamped with another :data:`~repro.exec.plan.CODE_SALT` (or
none): a cache warmed before and after a salt bump holds each cell
twice, once per salt, and only the current code's copy is a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.advisor.features import NUM_FEATURES, FeatureExtractor
from repro.advisor.model import RidgeSurrogate
from repro.config import SimulationConfig
from repro.core.runner import RunResult
from repro.exec.cache import ResultCache
from repro.exec.plan import CODE_SALT
from repro.mpi.trace import JobTrace

__all__ = ["TrainingSet", "build_training_set", "train_surrogate"]


@dataclass
class TrainingSet:
    """Feature matrix + targets assembled from cached results."""

    features: np.ndarray
    targets: np.ndarray
    #: Results rejected during assembly, keyed by reason.
    skipped: dict[str, int] = field(default_factory=dict)
    #: Samples contributed per app name.
    per_app: dict[str, int] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    def summary(self) -> str:
        apps = ", ".join(
            f"{name}={count}" for name, count in sorted(self.per_app.items())
        )
        skipped = sum(self.skipped.values())
        return (
            f"{self.n_samples} samples ({apps or 'none'}), "
            f"{skipped} skipped"
        )


def build_training_set(
    results: Iterable[RunResult],
    config: SimulationConfig,
    traces: Mapping[str, JobTrace],
) -> TrainingSet:
    """Featurize every usable result.

    A result is usable when the executor stamped it with the current
    ``CODE_SALT``, its app has a supplied trace of matching rank count,
    it has per-rank node allocations, it is a single-job
    run (epoch-merged cluster cells mix several jobs into one metric —
    no single placement to learn from), and its target metric is a
    positive finite number.
    """
    extractors: dict[tuple[str, str], FeatureExtractor] = {}
    rows: list[np.ndarray] = []
    targets: list[float] = []
    skipped: dict[str, int] = {}
    per_app: dict[str, int] = {}

    def skip(reason: str) -> None:
        skipped[reason] = skipped.get(reason, 0) + 1

    for result in results:
        if not isinstance(result, RunResult):
            skip("not_a_run_result")
            continue
        if result.salt != CODE_SALT:
            skip("stale_salt")
            continue
        if "epoch_jobs" in result.extra:
            skip("epoch_merged")
            continue
        trace = traces.get(result.app)
        if trace is None:
            skip("unknown_app")
            continue
        if not result.nodes:
            skip("no_allocation")
            continue
        if trace.num_ranks != len(result.nodes):
            skip("rank_mismatch")
            continue
        if result.routing not in ("min", "adp"):
            skip("unknown_routing")
            continue
        target = float(result.metrics.median_comm_time_ns)
        if not math.isfinite(target) or target <= 0.0:
            skip("bad_target")
            continue
        ctx = (result.app, result.routing)
        fx = extractors.get(ctx)
        if fx is None:
            fx = FeatureExtractor(config, trace, result.routing)
            extractors[ctx] = fx
        rows.append(fx.vector(result.nodes))
        targets.append(math.log1p(target))
        per_app[result.app] = per_app.get(result.app, 0) + 1

    if rows:
        features = np.stack(rows)
        y = np.asarray(targets, dtype=np.float64)
    else:
        features = np.empty((0, NUM_FEATURES), dtype=np.float64)
        y = np.empty((0,), dtype=np.float64)
    return TrainingSet(
        features=features, targets=y, skipped=skipped, per_app=per_app
    )


def train_surrogate(
    config: SimulationConfig,
    traces: Mapping[str, JobTrace],
    cache: ResultCache,
    alpha: float = 1.0,
    min_samples: int = 8,
) -> tuple[RidgeSurrogate, TrainingSet]:
    """Scan a disk cache and fit the surrogate on what it holds.

    Raises ``ValueError`` when fewer than ``min_samples`` usable results
    survive the scan — a surrogate fitted on a handful of points would
    rank confidently and wrongly.
    """
    training = build_training_set(cache.iter_results(), config, traces)
    if training.n_samples < min_samples:
        raise ValueError(
            f"cache yields only {training.n_samples} usable samples "
            f"(need {min_samples}): {training.summary()}"
        )
    model = RidgeSurrogate.fit(
        training.features, training.targets, alpha=alpha
    )
    return model, training
