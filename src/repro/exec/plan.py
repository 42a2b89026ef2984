"""Experiment planning: flatten study grids into content-addressed specs.

A study — the Section IV-A grid, a IV-B message-size sweep, or a IV-C
interference rerun — is just a set of independent simulation *cells*.
This module enumerates any of them into a flat, deterministic list of
:class:`RunSpec` records. A spec captures everything that determines a
cell's outcome (topology/network parameters, trace content, placement,
routing, seed, background traffic, observation, faults, backend, cluster
epoch) as a stable content hash, so specs are

* **hashable / comparable** — two cells with the same inputs share a key;
* **addressable** — :mod:`repro.exec.cache` files results under the key;
* **portable** — plain frozen dataclasses that pickle cheaply for IPC.

Planned order is the executor's result order, and it matches the
original nested for-loops of the serial drivers, so parallel execution
reassembles into exactly the structures the serial path produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.config import SimulationConfig
from repro.core.runner import check_cell_options
from repro.mpi.trace import JobTrace
from repro.placement.policies import make_placement
from repro.routing import make_routing

__all__ = [
    "CODE_SALT",
    "RunSpec",
    "ExperimentPlan",
    "config_digest",
    "field_payload",
    "ops_fingerprint",
    "trace_fingerprint",
    "trace_op_bytes",
    "plan_grid",
    "plan_sensitivity",
]

#: Cache-namespace salt folded into every spec key. Bump the version
#: suffix whenever a change alters simulation *results* (routing logic,
#: replay semantics, metric extraction, ...) or the shape of what a
#: cached ``RunResult`` carries, so stale cached cells are never served
#: for new code.
#:
#: History: v1 = original executor; v2 = repro.obs schema (RunResult
#: grew ``obs``/``TimeSeriesMetrics``, specs grew an ``obs`` field);
#: v3 = repro.faults (specs grew a ``faults`` field, RunResult.extra
#: carries fault telemetry); v4 = repro.flow (specs grew a ``backend``
#: field, RunResult grew ``backend``/``wall_s``); v5 = repro.cluster
#: (specs grew an ``epoch`` field — co-scheduled stream snapshots with
#: the stream seed and workload mix in the identity hash — and
#: RunResult.extra carries per-job epoch telemetry); v6 = vectorized
#: flow solver became the default (scalar/vector agree only to rel err
#: ~1e-12, so cached flow results may shift in the last bits) and the
#: fabric wake re-arm gained the one-ulp collapse guard; v7 = the array
#: flow fabric became the fabric of ``run_single`` flow cells and specs
#: grew a flow-model parameters field that entered the payload only at
#: non-default values (since removed with those parameters, which
#: leaves every default key unchanged). Epoch cells stay on the object
#: fabric; object and array results are not always last-bit close: a
#: one-ulp shift can change event order, and one seed-1 stream epoch
#: cell moves a job's makespan by 1.5e-5 relative between them
#: (DESIGN.md §14);
#: v8 = repro.mlcomms (the DL training app family: new collective
#: expansions and app names share the cache namespace, so the bump
#: keeps any pre-training-era cache from ever colliding with the new
#: family's cells); v9 = one max-min fill per flow fabric (the numpy
#: fills that took solves of 96 or more units subtracted a round's
#: frozen weight as one batched sum, the kept fills subtract it unit by
#: unit, so flow results with link weights other than 1 and 1/2 may
#: move in the last bits), packet epoch cells report their routing
#: policy's non-minimal share instead of 0.0, and RunResult grew
#: ``salt``; v10 = the key payload is every :class:`RunSpec` field, and
#: the fields no caller set (``compute_scale``, ``record_sends``,
#: ``max_events``, ``tags``) and three unset ``ObsConfig`` fields left
#: it. No result moves but every key does; without the bump a reused
#: cache would hold two v9-stamped copies of each cell, and the
#: surrogate trainer would learn from both.
CODE_SALT = "repro-exec/v10"


def config_digest(config: SimulationConfig) -> str:
    """Stable hex digest of a :class:`SimulationConfig`.

    Dataclass fields are serialised to sorted-key JSON; float repr is
    exact in Python 3, so equal configs always digest identically.
    """
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def ops_fingerprint(name: str, num_ranks: int, op_bytes: Iterable[bytes]) -> str:
    """The hashing core of :func:`trace_fingerprint`.

    ``op_bytes`` is a trace's :func:`trace_op_bytes` in chunks of any
    size, so a caller holding each job's bytes digests a trace merged
    from those jobs without rendering their ops again.
    """
    h = hashlib.sha256()
    h.update(name.encode())
    h.update(b"|%d|" % num_ranks)
    for chunk in op_bytes:
        h.update(chunk)
    return h.hexdigest()


def _rank_op_bytes(trace: JobTrace) -> Iterator[bytes]:
    for rt in trace.ranks:
        yield repr(rt.ops).encode()


def trace_op_bytes(trace: JobTrace) -> bytes:
    """A trace's per-rank op reprs, encoded and joined in rank order."""
    return b"".join(_rank_op_bytes(trace))


def trace_fingerprint(trace: JobTrace) -> str:
    """Stable hex digest of a trace's simulated content.

    Covers the job name, rank count, and the full per-rank operation
    lists (ops are NamedTuples, so ``repr`` is canonical). ``meta`` is
    deliberately excluded: it annotates but never alters replay.
    """
    return ops_fingerprint(trace.name, trace.num_ranks, _rank_op_bytes(trace))


def field_payload(record: Any) -> dict[str, Any]:
    """A dataclass's fields as a shallow dict.

    For a record whose fields hold no nested dataclasses this
    serialises to the same JSON as :func:`dataclasses.asdict`, without
    its recursive deep copy.
    """
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


@dataclass(frozen=True)
class RunSpec:
    """One content-addressed simulation cell.

    ``app`` is the plan-local trace key (the study's application name,
    suffixed with the scale for sweeps); the trace itself travels beside
    the spec in the :class:`ExperimentPlan` so specs stay tiny.
    Every field is part of the identity hash (:attr:`key`), so an
    observed cell never shares a cache entry with an unobserved one and
    a flow cell never shares one with its packet twin.

    ``background`` is a frozen dataclass (``BackgroundSpec``) or None;
    ``obs`` likewise (:class:`~repro.obs.recorder.ObsConfig`).

    ``faults`` is an optional :class:`~repro.faults.FaultPlan`. Its
    content digest enters the identity hash; an *empty* plan hashes as
    ``None`` (the runner executes the identical healthy code path for
    both, so they must share a cache entry).

    ``backend`` selects the simulation model (``"packet"`` or
    ``"flow"``, see :mod:`repro.flow`).

    ``epoch`` is an optional
    :class:`~repro.cluster.engine.EpochSpec` — a co-scheduled snapshot
    of a cluster stream (job names, rank spans, node allocations,
    stream seed, workload mix). An epoch cell can never collide with a
    single-job cell, and epochs of different streams (different seed or
    mix) never share entries even if their snapshots happen to coincide.
    """

    app: str
    placement: str
    routing: str
    seed: int
    config_digest: str
    trace_digest: str
    background: Any = None
    obs: Any = None
    faults: Any = None
    backend: str = "packet"
    epoch: Any = None

    @property
    def label(self) -> str:
        """Table-I style configuration label, e.g. ``cont-min``."""
        return f"{self.placement}-{self.routing}"

    @property
    def key(self) -> str:
        """Content hash addressing this cell (includes :data:`CODE_SALT`).

        Computed on first access and kept on the instance: every field
        is frozen, and the executor, the cache and the cluster engine
        each ask for it.
        """
        key = self.__dict__.get("_key")
        if key is not None:
            return key
        payload: dict[str, Any] = {"salt": CODE_SALT}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "faults" and value is not None:
                value = None if value.is_empty() else value.digest
            elif dataclasses.is_dataclass(value):
                value = field_payload(value)
            payload[f.name] = value
        text = json.dumps(payload, sort_keys=True)
        key = hashlib.sha256(text.encode()).hexdigest()
        self.__dict__["_key"] = key
        return key


@dataclass(frozen=True)
class ExperimentPlan:
    """A flat, ordered batch of cells plus the data they need.

    ``traces`` maps each spec's ``app`` key to its :class:`JobTrace`;
    ``config`` is shared by every cell (one plan = one machine).
    """

    config: SimulationConfig
    specs: tuple[RunSpec, ...]
    traces: Mapping[str, JobTrace] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.specs)

    def trace_for(self, spec: RunSpec) -> JobTrace:
        return self.traces[spec.app]

    def keys(self) -> list[str]:
        return [spec.key for spec in self.specs]


def _check_names(placements: Iterable[str], routings: Iterable[str]) -> None:
    """Resolve every placement and routing name once.

    An unknown name raises the :class:`ValueError` of
    :func:`~repro.placement.policies.make_placement` or
    :func:`~repro.routing.make_routing`, which names the bad value, so a
    typo fails before any cell is planned.
    """
    for name in placements:
        make_placement(name)
    for name in routings:
        make_routing(name)


def plan_grid(
    config: SimulationConfig,
    traces: Mapping[str, JobTrace],
    placements: Sequence[str],
    routings: Sequence[str],
    seed: int = 0,
    background: Any = None,
    obs: Any = None,
    faults: Any = None,
    backend: str = "packet",
) -> ExperimentPlan:
    """Enumerate the placement x routing grid (paper Sections IV-A/IV-C).

    Cell order is app-major then placement then routing — exactly the
    serial ``TradeoffStudy.run`` loop nest. An unknown placement or
    routing name, or a backend/option combination no cell can run,
    raises :class:`ValueError` here, before planning.
    """
    check_cell_options(backend, obs, faults)
    _check_names(placements, routings)
    cfg_digest = config_digest(config)
    fingerprints = {app: trace_fingerprint(t) for app, t in traces.items()}
    specs = tuple(
        RunSpec(
            app=app,
            placement=placement,
            routing=routing,
            seed=seed,
            config_digest=cfg_digest,
            trace_digest=fingerprints[app],
            background=background,
            obs=obs,
            faults=faults,
            backend=backend,
        )
        for app in traces
        for placement in placements
        for routing in routings
    )
    return ExperimentPlan(config=config, specs=specs, traces=dict(traces))


def plan_sensitivity(
    config: SimulationConfig,
    trace: JobTrace,
    scales: Sequence[float],
    configs: Sequence[tuple[str, str]],
    seed: int = 0,
    faults: Any = None,
    backend: str = "packet",
) -> ExperimentPlan:
    """Enumerate the message-size sweep (paper Section IV-B).

    Each scale gets its own pre-scaled trace under the key
    ``"<name>@x<scale>"``; cell order is scale-major then config,
    matching the serial ``sensitivity_sweep`` loop nest. Options are
    checked as in :func:`plan_grid`.
    """
    check_cell_options(backend, faults=faults)
    _check_names((p for p, _ in configs), (r for _, r in configs))
    cfg_digest = config_digest(config)
    specs: list[RunSpec] = []
    traces: dict[str, JobTrace] = {}
    for scale in scales:
        key = f"{trace.name}@x{scale:g}"
        scaled = trace.scaled(scale)
        traces[key] = scaled
        digest = trace_fingerprint(scaled)
        for placement, routing in configs:
            specs.append(
                RunSpec(
                    app=key,
                    placement=placement,
                    routing=routing,
                    seed=seed,
                    config_digest=cfg_digest,
                    trace_digest=digest,
                    faults=faults,
                    backend=backend,
                )
            )
    return ExperimentPlan(config=config, specs=tuple(specs), traces=traces)
