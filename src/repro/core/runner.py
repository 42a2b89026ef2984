"""Single-run driver: trace + placement + routing -> metrics."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from repro.config import DragonflyParams, SimulationConfig
from repro.engine.simulator import Simulator
from repro.metrics.collector import RunMetrics
from repro.metrics.timeseries import TimeSeriesMetrics
from repro.mpi.replay import JobResult, ReplayEngine
from repro.mpi.trace import JobTrace
from repro.network.fabric import Fabric
from repro.obs.recorder import ObsConfig, ObsRecorder
from repro.placement.machine import Machine
from repro.routing import make_routing
from repro.routing.adaptive import AdaptiveRouting
from repro.topology.dragonfly import Dragonfly

__all__ = ["RunResult", "run_single", "build_topology"]

#: Job id used for the target application in single-job runs.
TARGET_JOB = 0


@functools.lru_cache(maxsize=8)
def build_topology(params: DragonflyParams) -> Dragonfly:
    """Build (and memoise) the dragonfly for a parameter set.

    A :class:`Dragonfly` is immutable after construction, so sharing one
    instance across runs is safe and saves the (dominant) wiring cost
    when sweeping many configurations.
    """
    return Dragonfly(params)


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    app: str
    placement: str
    routing: str
    seed: int
    job: JobResult
    metrics: RunMetrics
    nodes: list[int]
    sim_time_ns: float
    events: int
    nonminimal_fraction: float = 0.0
    background_messages: int = 0
    extra: dict = field(default_factory=dict)
    #: Time-resolved telemetry (present when the run was observed).
    obs: TimeSeriesMetrics | None = None
    #: Simulation backend that produced this result ("packet" or "flow").
    backend: str = "packet"
    #: Host wall-clock seconds spent simulating this cell. Measurement
    #: only — never part of cache identity or determinism fingerprints.
    wall_s: float = 0.0

    @property
    def label(self) -> str:
        """Table-I style configuration label, e.g. ``cont-min``."""
        return f"{self.placement}-{self.routing}"


def run_single(
    config: SimulationConfig,
    trace: JobTrace,
    placement: str,
    routing: str,
    seed: int | None = None,
    compute_scale: float = 0.0,
    background=None,
    record_sends: bool = False,
    max_events: int | None = 50_000_000,
    obs: ObsConfig | None = None,
    faults=None,
    backend: str = "packet",
    flow_params=None,
) -> RunResult:
    """Simulate one application under one placement/routing combination.

    ``background`` is an optional
    :class:`~repro.core.interference.BackgroundSpec`; its synthetic job
    occupies every node the placement leaves free (Section IV-C). The
    simulation stops when the target application finishes.

    ``obs`` enables time-resolved observability (see :mod:`repro.obs`):
    the returned result carries a
    :class:`~repro.metrics.timeseries.TimeSeriesMetrics` in ``.obs``.
    Observation never changes the physics — metrics are bit-identical
    with and without it.

    ``faults`` is an optional :class:`~repro.faults.FaultPlan` (DESIGN.md
    §S15): nodes on failed routers are fenced before placement, the
    fault-aware variants of the routing policies are substituted, and
    the plan's link faults are installed at their onset times. ``None``
    and an empty plan take the exact healthy code path, so fault-free
    results stay bit-identical to a build without fault support.

    ``backend`` selects the simulation model: ``"packet"`` (default) is
    the exact packet-level engine; ``"flow"`` is the fluid max-min model
    (:mod:`repro.flow`, DESIGN.md S16) on the array-state fabric
    (:class:`~repro.flow.fabric_array.ArrayFlowFabric`) — orders of
    magnitude faster, emitting the same metric set. The backend changes
    results, so it is part of the exec cache identity. The flow backend
    does not support ``obs`` or fault injection.

    ``flow_params`` is an optional
    :class:`~repro.flow.routes.FlowParams` overriding the flow
    backend's model knobs (epoch coalescing, spill emulation, Valiant
    budget); non-default values are part of the exec cache identity.
    Only meaningful with ``backend="flow"``.
    """
    wall_start = time.perf_counter()
    if backend not in ("packet", "flow"):
        raise ValueError(f"unknown backend {backend!r}")
    if flow_params is not None and backend != "flow":
        raise ValueError(
            "flow_params is only meaningful with backend='flow'"
        )
    if backend == "flow":
        if obs is not None:
            raise ValueError(
                "the flow backend does not support observability (obs); "
                "use backend='packet' for time-resolved telemetry"
            )
        if faults is not None and not faults.is_empty():
            raise ValueError(
                "the flow backend does not support fault injection; "
                "use backend='packet' for resilience studies"
            )
    if seed is None:
        seed = config.seed
    topo = build_topology(config.topology)
    machine = Machine(config.topology)
    fault_plan = None
    if faults is not None and not faults.is_empty():
        fault_plan = faults
        fault_plan.validate(topo)
        dead_nodes = fault_plan.dead_nodes(topo)
        if dead_nodes:
            machine.mark_down(dead_nodes)
    nodes = machine.allocate(placement, trace.num_ranks, seed=seed)

    sim = Simulator()
    routing_policy = None
    if backend == "flow":
        from repro.flow.fabric_array import ArrayFlowFabric

        fabric = ArrayFlowFabric(sim, topo, config.network, routing, flow_params)
    else:
        if fault_plan is not None:
            from repro.faults.routing import make_fault_aware_routing

            routing_policy = make_fault_aware_routing(routing, seed=seed)
        else:
            routing_policy = make_routing(routing, seed=seed)
        fabric = Fabric(sim, topo, config.network, routing_policy)
    engine = ReplayEngine(
        sim, fabric, compute_scale=compute_scale, record_sends=record_sends
    )
    engine.add_job(TARGET_JOB, trace, nodes)

    injector = None
    if background is not None:
        bg_nodes = machine.free_nodes()
        injector = background.build(bg_nodes, seed=seed)
        engine.add_injector(injector)

    recorder = None
    if obs is not None:
        recorder = ObsRecorder(sim, fabric, obs).install()

    if fault_plan is not None:
        # After the recorder install so t=0 fault onsets land in the
        # congestion trace; scheduled onsets are ordinary (time, seq)
        # events, totally ordered against packet traffic.
        from repro.faults.plan import install_plan

        install_plan(sim, fabric, fault_plan)

    engine.run(target_job=TARGET_JOB, max_events=max_events)

    job = engine.job_result(TARGET_JOB)
    metrics = RunMetrics.from_run(fabric, topo, job, nodes)
    timeseries = recorder.finalize(sim.now) if recorder is not None else None

    nonmin_frac = 0.0
    if backend == "flow":
        nonmin_frac = fabric.nonminimal_fraction
    elif isinstance(routing_policy, AdaptiveRouting):
        decided = routing_policy.minimal_taken + routing_policy.nonminimal_taken
        if decided:
            nonmin_frac = routing_policy.nonminimal_taken / decided

    extra: dict = {}
    if fault_plan is not None:
        extra["faults"] = {
            "digest": fault_plan.digest,
            "links_failed": fabric.faults_applied,
            "packets_rerouted": fabric.packets_rerouted,
            "nodes_fenced": len(fault_plan.dead_nodes(topo)),
        }

    return RunResult(
        app=trace.name,
        placement=placement,
        routing=routing,
        seed=seed,
        job=job,
        metrics=metrics,
        nodes=nodes,
        sim_time_ns=sim.now,
        events=sim.events_run,
        nonminimal_fraction=nonmin_frac,
        background_messages=injector.messages_sent if injector else 0,
        extra=extra,
        obs=timeseries,
        backend=backend,
        wall_s=time.perf_counter() - wall_start,
    )
