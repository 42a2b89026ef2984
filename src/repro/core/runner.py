"""Cell assembly and the single-run driver: trace + placement + routing -> metrics.

:func:`assemble` wires every simulation cell; :func:`run_single` and
:func:`~repro.cluster.engine.simulate_epoch` add their jobs and run it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any

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

__all__ = [
    "Cell",
    "RunResult",
    "assemble",
    "build_topology",
    "check_cell_options",
    "run_single",
]

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
    #: :data:`~repro.exec.plan.CODE_SALT` of the code that produced this
    #: result, stamped by the executor; empty on results simulated
    #: outside it and on cache entries written before results carried it.
    salt: str = ""

    @property
    def label(self) -> str:
        """Table-I style configuration label, e.g. ``cont-min``."""
        return f"{self.placement}-{self.routing}"


def check_cell_options(backend: str = "packet", obs=None, faults=None) -> None:
    """Reject a backend/option combination no cell can run.

    :func:`assemble` calls this for every cell; the plan builders call
    it once per plan, so a bad combination fails before any cell is
    planned instead of inside every cell.
    """
    if backend not in ("packet", "flow"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "flow":
        if obs is not None:
            raise ValueError(
                "the flow backend does not support observability (obs); "
                "use backend='packet' for time-resolved telemetry"
            )
        if faults is not None and not faults.is_empty():
            raise ValueError(
                "the flow backend does not support fault plans; "
                "use backend='packet' for resilience studies"
            )


@dataclass
class Cell:
    """A wired simulation cell whose engine is ready for jobs."""

    topo: Dragonfly
    sim: Simulator
    fabric: Any
    engine: ReplayEngine
    #: The packet fabric's routing policy; flow fabrics route internally.
    policy: Any = None
    #: The installed fault plan, or None for a healthy cell.
    faults: Any = None
    recorder: ObsRecorder | None = None

    @property
    def nonminimal_fraction(self) -> float:
        """Share of routing decisions that went non-minimal."""
        if self.policy is None:
            return self.fabric.nonminimal_fraction
        if isinstance(self.policy, AdaptiveRouting):
            decided = self.policy.minimal_taken + self.policy.nonminimal_taken
            if decided:
                return self.policy.nonminimal_taken / decided
        return 0.0


def assemble(
    config: SimulationConfig,
    routing: str,
    seed: int,
    *,
    compute_scale: float = 0.0,
    record_sends: bool = False,
    obs: ObsConfig | None = None,
    faults=None,
    backend: str = "packet",
    flow_fabric=None,
) -> Cell:
    """Wire one simulation cell; the caller adds jobs and runs the engine.

    A non-empty ``faults`` plan is validated, the fault-aware variant of
    the routing policy is used, and the plan is installed after the
    observability recorder, so t=0 fault onsets land in the congestion
    trace; scheduled onsets are ordinary (time, seq) events, totally
    ordered against traffic. ``None`` and an empty plan take the exact
    healthy code path.

    Flow cells build ``flow_fabric`` (a fabric class), by default
    :class:`~repro.flow.fabric_array.ArrayFlowFabric`.
    """
    check_cell_options(backend, obs, faults)
    topo = build_topology(config.topology)
    fault_plan = None
    if faults is not None and not faults.is_empty():
        fault_plan = faults
        fault_plan.validate(topo)

    sim = Simulator()
    policy = None
    if backend == "flow":
        if flow_fabric is None:
            from repro.flow.fabric_array import ArrayFlowFabric

            flow_fabric = ArrayFlowFabric
        fabric = flow_fabric(sim, topo, config.network, routing)
    else:
        if fault_plan is not None:
            from repro.faults.routing import make_fault_aware_routing

            policy = make_fault_aware_routing(routing, seed=seed)
        else:
            policy = make_routing(routing, seed=seed)
        fabric = Fabric(sim, topo, config.network, policy)
    engine = ReplayEngine(
        sim, fabric, compute_scale=compute_scale, record_sends=record_sends
    )
    recorder = None
    if obs is not None:
        recorder = ObsRecorder(sim, fabric, obs).install()
    if fault_plan is not None:
        from repro.faults.plan import install_plan

        install_plan(sim, fabric, fault_plan)
    return Cell(topo, sim, fabric, engine, policy, fault_plan, recorder)


def run_single(
    config: SimulationConfig,
    trace: JobTrace,
    placement: str,
    routing: str,
    seed: int | None = None,
    compute_scale: float = 0.0,
    background=None,
    record_sends: bool = False,
    obs: ObsConfig | None = None,
    faults=None,
    backend: str = "packet",
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
    (:class:`~repro.flow.fabric_array.ArrayFlowFabric`), emitting the
    same metric set. Flow is faster only on heavy-message cells and
    slower on light ones (DESIGN.md §11 has the measured crossover).
    The backend changes results, so it is part of the exec cache
    identity. The flow backend does not support ``obs`` or fault
    injection.
    """
    wall_start = time.perf_counter()
    if seed is None:
        seed = config.seed
    cell = assemble(
        config,
        routing,
        seed,
        compute_scale=compute_scale,
        record_sends=record_sends,
        obs=obs,
        faults=faults,
        backend=backend,
    )
    machine = Machine(config.topology)
    dead_nodes = cell.faults.dead_nodes(cell.topo) if cell.faults is not None else []
    machine.mark_down(dead_nodes)
    nodes = machine.allocate(placement, trace.num_ranks, seed=seed)

    engine = cell.engine
    engine.add_job(TARGET_JOB, trace, nodes)
    injector = None
    if background is not None:
        injector = background.build(machine.free_nodes(), seed=seed)
        engine.add_injector(injector)
    engine.run(target_job=TARGET_JOB)

    job = engine.job_result(TARGET_JOB)
    metrics = RunMetrics.from_run(cell.fabric, cell.topo, job, nodes)
    timeseries = cell.recorder.finalize(cell.sim.now) if cell.recorder else None
    extra: dict = {}
    if cell.faults is not None:
        extra["faults"] = {
            "digest": cell.faults.digest,
            "links_failed": cell.fabric.faults_applied,
            "packets_rerouted": cell.fabric.packets_rerouted,
            "nodes_fenced": len(dead_nodes),
        }

    return RunResult(
        app=trace.name,
        placement=placement,
        routing=routing,
        seed=seed,
        job=job,
        metrics=metrics,
        nodes=nodes,
        sim_time_ns=cell.sim.now,
        events=cell.sim.events_run,
        nonminimal_fraction=cell.nonminimal_fraction,
        background_messages=injector.messages_sent if injector else 0,
        extra=extra,
        obs=timeseries,
        backend=backend,
        wall_s=time.perf_counter() - wall_start,
    )
