"""The Section IV-C external-traffic study.

A synthetic job occupies every node the target application does not use
and repeatedly issues messages (uniform random or bursty pattern). The
study reruns the placement x routing grid under that background and
reports the target application's communication time and the channel
traffic of its routers (Figures 8-10); ``background_load_table``
reproduces Table II's peak background loads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.synthetic import BurstyTraffic, UniformRandomTraffic
from repro.config import SimulationConfig
from repro.core.study import StudyResult, TradeoffStudy
from repro.mpi.trace import JobTrace
from repro.placement.policies import PLACEMENT_NAMES
from repro.routing import ROUTING_NAMES

__all__ = ["BackgroundSpec", "interference_study", "background_load_table"]


@dataclass(frozen=True)
class BackgroundSpec:
    """Parameters of the synthetic background job.

    ``pattern`` is ``"uniform"`` (each node sends one ``message_bytes``
    message to a random peer every ``interval_ns``) or ``"bursty"``
    (each node sends to ``fanout`` peers at once every ``interval_ns``;
    ``fanout=None`` means all other background nodes, the paper's
    "huge messages to all other nodes").
    """

    pattern: str
    message_bytes: int
    interval_ns: float
    fanout: int | None = None
    start_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.pattern not in ("uniform", "bursty"):
            raise ValueError(f"unknown background pattern {self.pattern!r}")
        if self.message_bytes < 1:
            raise ValueError("message_bytes must be positive")
        if self.interval_ns <= 0:
            raise ValueError("interval_ns must be positive")

    def build(self, nodes: list[int], seed: int = 0):
        """Instantiate the injector for the given background nodes."""
        if self.pattern == "uniform":
            return UniformRandomTraffic(
                nodes,
                self.message_bytes,
                self.interval_ns,
                seed=seed,
                start_ns=self.start_ns,
            )
        return BurstyTraffic(
            nodes,
            self.message_bytes,
            self.interval_ns,
            fanout=self.fanout,
            seed=seed,
            start_ns=self.start_ns,
        )

    def peak_load_bytes(self, num_bg_nodes: int) -> int:
        """Table II: total message load issued per interval."""
        if self.pattern == "uniform":
            return num_bg_nodes * self.message_bytes
        fanout = self.fanout if self.fanout is not None else num_bg_nodes - 1
        fanout = min(fanout, num_bg_nodes - 1)
        return num_bg_nodes * fanout * self.message_bytes


def interference_study(
    config: SimulationConfig,
    trace: JobTrace,
    background: BackgroundSpec,
    placements: tuple[str, ...] = PLACEMENT_NAMES,
    routings: tuple[str, ...] = ROUTING_NAMES,
    seed: int = 0,
    max_workers: int = 1,
    cache_dir=None,
    progress=None,
    obs=None,
    faults=None,
    backend: str = "packet",
) -> StudyResult:
    """Run the placement x routing grid with background traffic.

    ``max_workers``/``cache_dir``/``progress`` are forwarded to
    :meth:`TradeoffStudy.run` (and on to :mod:`repro.exec`); ``obs``
    enables per-cell time-resolved telemetry on each ``RunResult``.
    """
    study = TradeoffStudy(
        config,
        {trace.name: trace},
        placements=placements,
        routings=routings,
        seed=seed,
        background=background,
        obs=obs,
        faults=faults,
        backend=backend,
    )
    return study.run(
        max_workers=max_workers, cache_dir=cache_dir, progress=progress
    )


def background_load_table(
    specs: dict[str, dict[str, BackgroundSpec]],
    num_bg_nodes: dict[str, int],
) -> list[tuple[str, float, float]]:
    """Table II rows: (application, uniform load MB, bursty load GB).

    ``specs[app]`` maps pattern name -> spec; ``num_bg_nodes[app]`` is
    the background job size when that application is the target.
    """
    rows = []
    for app, by_pattern in specs.items():
        n = num_bg_nodes[app]
        uniform_mb = by_pattern["uniform"].peak_load_bytes(n) / 1e6
        bursty_gb = by_pattern["bursty"].peak_load_bytes(n) / 1e9
        rows.append((app, uniform_mb, bursty_gb))
    return rows
