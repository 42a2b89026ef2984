"""dragonfly-tradeoff: reproduction of the IPDPS 2018 trade-off study of
localizing communication vs. balancing network traffic on dragonfly systems.

Quickstart::

    import repro

    cfg = repro.small()
    trace = repro.crystal_router_trace(num_ranks=32, seed=1)
    result = repro.run_single(
        cfg, trace, placement="rand", routing="adp", seed=1
    )
    print(result.job.comm_time_ns.max() / 1e6, "ms")

Higher-level drivers live in :mod:`repro.core`:
:class:`~repro.core.study.TradeoffStudy` (paper Section IV-A),
:func:`~repro.core.sensitivity.sensitivity_sweep` (IV-B), and
:func:`~repro.core.interference.interference_study` (IV-C).
"""

from repro.config import (
    DragonflyParams,
    NetworkParams,
    SimulationConfig,
    theta,
    medium,
    small,
    tiny,
)
from repro.topology import Dragonfly, LinkKind
from repro.engine import Simulator, rng_stream
from repro.network import Fabric, Message
from repro.routing import AdaptiveRouting, MinimalRouting, make_routing
from repro.mpi import (
    JobTrace,
    RankTrace,
    ReplayEngine,
    load_trace,
    save_trace,
)
from repro.placement import make_placement, PLACEMENT_NAMES
from repro.apps import (
    amg_trace,
    crystal_router_trace,
    fill_boundary_trace,
    BurstyTraffic,
    UniformRandomTraffic,
)
from repro.metrics import RunMetrics, TimeSeriesMetrics, cdf, box_stats
from repro.obs import CongestionEvent, ObsConfig, ObsRecorder
from repro.core import (
    Recommendation,
    RunResult,
    TradeoffStudy,
    interference_study,
    recommend,
    resilience_study,
    run_single,
    sensitivity_sweep,
    variability_study,
)
from repro.faults import (
    FaultPlan,
    LinkFault,
    RouterFault,
    load_fault_plan,
    random_fault_plan,
    save_fault_plan,
)
from repro.exec import (
    ExperimentPlan,
    ResultCache,
    RunSpec,
    TextReporter,
    execute_plan,
    plan_grid,
    plan_sensitivity,
)
from repro.flow import (
    BACKEND_NAMES,
    FidelityReport,
    FlowFabric,
    fidelity_report,
)
from repro.cluster import (
    ClusterScheduler,
    EpochSpec,
    StreamJob,
    StreamResult,
    WorkloadMix,
    generate_stream,
    run_stream,
)
from repro.advisor import (
    FeatureExtractor,
    FunnelResult,
    RidgeSurrogate,
    suggest_placement,
    train_surrogate,
)
from repro.mlcomms import (
    TraceImportError,
    TrainingReport,
    dp_allreduce_trace,
    load_comms_trace,
    moe_alltoall_trace,
    parse_comms_trace,
    pp_1f1b_trace,
    tp_layer_trace,
    training_tradeoff,
)

__version__ = "1.0.0"

__all__ = [
    "DragonflyParams",
    "NetworkParams",
    "SimulationConfig",
    "theta",
    "medium",
    "small",
    "tiny",
    "Dragonfly",
    "LinkKind",
    "Simulator",
    "rng_stream",
    "Fabric",
    "Message",
    "AdaptiveRouting",
    "MinimalRouting",
    "make_routing",
    "JobTrace",
    "RankTrace",
    "ReplayEngine",
    "load_trace",
    "save_trace",
    "make_placement",
    "PLACEMENT_NAMES",
    "amg_trace",
    "crystal_router_trace",
    "fill_boundary_trace",
    "BurstyTraffic",
    "UniformRandomTraffic",
    "RunMetrics",
    "TimeSeriesMetrics",
    "CongestionEvent",
    "ObsConfig",
    "ObsRecorder",
    "cdf",
    "box_stats",
    "RunResult",
    "TradeoffStudy",
    "interference_study",
    "run_single",
    "sensitivity_sweep",
    "Recommendation",
    "recommend",
    "resilience_study",
    "variability_study",
    "FaultPlan",
    "LinkFault",
    "RouterFault",
    "load_fault_plan",
    "random_fault_plan",
    "save_fault_plan",
    "ExperimentPlan",
    "ResultCache",
    "RunSpec",
    "TextReporter",
    "execute_plan",
    "plan_grid",
    "plan_sensitivity",
    "BACKEND_NAMES",
    "FidelityReport",
    "FlowFabric",
    "fidelity_report",
    "ClusterScheduler",
    "EpochSpec",
    "StreamJob",
    "StreamResult",
    "WorkloadMix",
    "generate_stream",
    "run_stream",
    "FeatureExtractor",
    "FunnelResult",
    "RidgeSurrogate",
    "suggest_placement",
    "train_surrogate",
    "TraceImportError",
    "TrainingReport",
    "dp_allreduce_trace",
    "load_comms_trace",
    "moe_alltoall_trace",
    "parse_comms_trace",
    "pp_1f1b_trace",
    "tp_layer_trace",
    "training_tradeoff",
    "__version__",
]
