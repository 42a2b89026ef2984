"""Flow-level (fluid) simulation backend with cross-fidelity validation.

``repro.flow`` trades packet-level exactness for a per-message cost
model: messages drain as weighted max-min fair flows over the same
topology, placements, and routing path logic as the packet engine,
producing the same :class:`~repro.core.runner.RunResult` metrics. Its
cost grows with solves × links × fill rounds rather than with bytes,
so it is cheaper than the packet engine only on heavy-message cells:
DESIGN.md §11 has the measured crossover (about 3.3× slower than
packet on the benchmark suite's ``grid-flow`` grid, about 15× faster
on tiny FB-8). Select it with ``run_single(..., backend="flow")`` (or
``--backend flow`` on the CLI); validate it against the exact engine
with :func:`~repro.flow.fidelity.fidelity_report`.
"""

from repro.flow.fabric import FlowFabric
from repro.flow.fabric_array import ArrayFlowFabric
from repro.flow.fidelity import FidelityReport, fidelity_report, kendall_tau
from repro.flow.routes import (
    BACKEND_NAMES,
    FlowEntry,
    FlowRouteModel,
)
from repro.flow.solver import solve_scalar

__all__ = [
    "ArrayFlowFabric",
    "BACKEND_NAMES",
    "FlowFabric",
    "FlowEntry",
    "FlowRouteModel",
    "FidelityReport",
    "fidelity_report",
    "kendall_tau",
    "solve_scalar",
]
