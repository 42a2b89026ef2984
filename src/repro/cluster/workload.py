"""Seeded job streams: who arrives, when, how big, how heavy.

A cluster stream is a finite list of :class:`StreamJob` submissions
drawn from a :class:`WorkloadMix` — a weighted set of
:class:`JobClass` templates (CR/FB/AMG and the synthetic patterns from
:data:`repro.apps.APP_BUILDERS`), each with its own rank-count,
message-intensity, and target-runtime distributions. Interarrival
times are Poisson (exponential gaps sized from the offered ``load``);
trace-driven arrivals are explicit jobs handed to ``run_stream(jobs=)``.

Everything is deterministic from the stream seed: the same
``(mix, duration, load, machine, seed)`` always yields byte-identical
jobs, arrival times, and traces, which is what lets the engine's
per-epoch network evaluations live in the content-addressed result
cache — a warm re-run of a stream simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import APP_BUILDERS
from repro.engine.rng import rng_stream
from repro.mpi.trace import JobTrace

__all__ = [
    "JobClass",
    "StreamJob",
    "WorkloadMix",
    "default_mix",
    "ml_mix",
    "generate_stream",
]

#: Per-app message-scale choices tuned so flow-backend epoch cells stay
#: fast while preserving the paper's intensity ordering (AMG < CR < FB
#: at full size; FB's published loads are 100 KB-2.5 MB, hence the
#: small factors).
_DEFAULT_SCALES: dict[str, tuple[float, ...]] = {
    "CR": (0.1, 0.2, 0.4),
    "FB": (0.005, 0.01, 0.02),
    "AMG": (0.5, 1.0),
    # DL training family (repro.mlcomms): generator defaults model
    # multi-MB gradient/activation exchanges, so stream scales are small
    # for the same reason FB's are.
    "DP": (0.005, 0.01, 0.02),
    "PP": (0.005, 0.01),
    "TP": (0.005, 0.01),
    "MOE": (0.002, 0.005, 0.01),
}
_FALLBACK_SCALES: tuple[float, ...] = (0.05, 0.1)


@dataclass(frozen=True)
class JobClass:
    """One application template in a workload mix.

    ``ranks`` and ``msg_scales`` are uniform-choice sets; ``service_s``
    is a uniform range for the job's *target isolated runtime* in
    simulated seconds (the engine converts it to a whole number of
    trace-block iterations once the block's isolated makespan is
    known). ``weight`` is the class's relative arrival share.
    """

    app: str
    weight: float = 1.0
    ranks: tuple[int, ...] = (4, 8, 16)
    msg_scales: tuple[float, ...] = ()
    service_s: tuple[float, float] = (120.0, 900.0)

    def __post_init__(self) -> None:
        if self.app not in APP_BUILDERS:
            raise ValueError(
                f"unknown app {self.app!r}; choose from "
                f"{sorted(APP_BUILDERS)}"
            )
        if self.weight <= 0:
            raise ValueError("class weight must be positive")
        if not self.ranks or any(r < 1 for r in self.ranks):
            raise ValueError("ranks choices must be positive")
        if any(s <= 0 for s in self.msg_scales):
            raise ValueError("msg_scales must be positive")
        lo, hi = self.service_s
        if lo <= 0 or hi < lo:
            raise ValueError("service_s must be a positive (lo, hi) range")

    @property
    def scales(self) -> tuple[float, ...]:
        """The message-scale choice set (class default when unset)."""
        if self.msg_scales:
            return self.msg_scales
        return _DEFAULT_SCALES.get(self.app, _FALLBACK_SCALES)

    @property
    def mean_ranks(self) -> float:
        return sum(self.ranks) / len(self.ranks)

    @property
    def mean_service_s(self) -> float:
        return (self.service_s[0] + self.service_s[1]) / 2.0


@dataclass(frozen=True)
class WorkloadMix:
    """A weighted set of job classes, with a canonical text label.

    The label (``"AMG=1,CR=1,FB=2"``, classes sorted by app name) is
    what enters every epoch cell's cache identity, so two mixes that
    differ in any class parameter used by default parsing never share
    cached network evaluations.
    """

    classes: tuple[JobClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a mix needs at least one job class")
        apps = [c.app for c in self.classes]
        if len(set(apps)) != len(apps):
            raise ValueError(f"duplicate app in mix: {apps}")

    @classmethod
    def parse(cls, text: str) -> "WorkloadMix":
        """Parse ``"CR=1,FB=1,AMG=2"`` (weights optional, default 1)."""
        classes = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            app, _, weight = part.partition("=")
            try:
                w = float(weight) if weight else 1.0
            except ValueError:
                raise ValueError(f"bad weight in mix entry {part!r}") from None
            classes.append(JobClass(app=app.strip(), weight=w))
        if not classes:
            raise ValueError(f"empty workload mix: {text!r}")
        return cls(tuple(sorted(classes, key=lambda c: c.app)))

    @property
    def label(self) -> str:
        return ",".join(
            f"{c.app}={c.weight:g}"
            for c in sorted(self.classes, key=lambda c: c.app)
        )

    @property
    def total_weight(self) -> float:
        return sum(c.weight for c in self.classes)

    @property
    def mean_ranks(self) -> float:
        """Arrival-weighted mean rank count."""
        return (
            sum(c.weight * c.mean_ranks for c in self.classes)
            / self.total_weight
        )

    @property
    def mean_service_s(self) -> float:
        """Arrival-weighted mean target isolated runtime."""
        return (
            sum(c.weight * c.mean_service_s for c in self.classes)
            / self.total_weight
        )


def default_mix() -> WorkloadMix:
    """The paper's three mini-apps at equal arrival shares."""
    return WorkloadMix.parse("CR=1,FB=1,AMG=1")


def ml_mix() -> WorkloadMix:
    """A training-dominated cluster: mostly DP with PP/TP/MoE minorities.

    Models the common production split — data-parallel fine-tuning jobs
    dominating arrivals, with fewer large pipeline/tensor-parallel
    pretraining jobs and the occasional MoE run.
    """
    return WorkloadMix.parse("DP=2,PP=1,TP=1,MOE=1")


@dataclass(frozen=True)
class StreamJob:
    """One submission of a cluster stream.

    ``service_s`` is the target isolated runtime; the engine rounds it
    to a whole number of trace-block iterations once the block's
    isolated makespan is measured. ``trace`` is the job's
    communication block, already built and scaled — deterministic from
    the stream seed, so its content fingerprint is stable across runs.
    """

    id: int
    app: str
    ranks: int
    arrival_s: float
    service_s: float
    msg_scale: float
    trace: JobTrace = field(repr=False, compare=False)

    @property
    def name(self) -> str:
        return f"{self.app}-{self.id}"


def generate_stream(
    mix: WorkloadMix | str,
    duration_s: float,
    load: float,
    num_nodes: int,
    seed: int = 0,
) -> list[StreamJob]:
    """Draw the deterministic job stream for one scenario.

    ``load`` is the target average machine utilisation in ``[0, ~1]``:
    the Poisson arrival rate is sized so the expected concurrent node
    demand (rate x mean ranks x mean service) equals ``load x
    num_nodes``. Actual utilisation also depends on queueing and
    interference, so treat it as an offered load, not a guarantee.
    For trace-driven arrivals, build the jobs and pass them to
    :func:`~repro.cluster.engine.run_stream` as ``jobs``.

    Rank choices larger than half the machine are dropped from each
    class's choice set (a job that monopolises the machine serialises
    the stream); a class with no feasible size raises.
    """
    if isinstance(mix, str):
        mix = WorkloadMix.parse(mix)
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if load <= 0:
        raise ValueError("load must be positive for Poisson arrivals")
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")

    size_cap = max(1, num_nodes // 2)
    feasible: dict[str, tuple[int, ...]] = {}
    for c in mix.classes:
        sizes = tuple(r for r in c.ranks if r <= size_cap)
        if not sizes:
            raise ValueError(
                f"class {c.app} has no rank choice <= {size_cap} "
                f"(machine has {num_nodes} nodes)"
            )
        feasible[c.app] = sizes

    # load * num_nodes = rate * E[ranks] * E[service]  (Little's law)
    rate = load * num_nodes / (mix.mean_ranks * mix.mean_service_s)
    mean_gap = 1.0 / rate

    rng = rng_stream(seed, "cluster", "stream")
    weights = [c.weight / mix.total_weight for c in mix.classes]
    jobs: list[StreamJob] = []
    t = 0.0
    while True:
        t += float(rng.exponential(mean_gap))
        if t > duration_s:
            break
        ci = int(rng.choice(len(mix.classes), p=weights))
        c = mix.classes[ci]
        sizes = feasible[c.app]
        ranks = int(sizes[int(rng.integers(len(sizes)))])
        scales = c.scales
        scale = float(scales[int(rng.integers(len(scales)))])
        service = float(rng.uniform(c.service_s[0], c.service_s[1]))
        job_id = len(jobs)
        trace = APP_BUILDERS[c.app](
            num_ranks=ranks, seed=seed * 1_000_003 + job_id
        )
        if scale != 1.0:
            trace = trace.scaled(scale)
        jobs.append(
            StreamJob(
                id=job_id,
                app=c.app,
                ranks=ranks,
                arrival_s=t,
                service_s=service,
                msg_scale=scale,
                trace=trace,
            )
        )
    return jobs
