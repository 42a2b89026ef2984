"""Reference implementations the flow backend is proven against.

:func:`solve_scalar_oracle` is the dict-based loop that
``repro.flow.solver.solve_scalar`` used to be, verbatim. Production
``solve_scalar`` and the array fabric's solves share one restructured
fill (``repro.flow.solver.fill``) over per-link list records with the
same float operations in the same order, so they must agree with the
oracle with ``==`` on every unit rate, flow rate and saturated link.

:func:`check_fill` holds each array-fabric solve to that standard:
its rates and saturated links must equal (``==``) a from-scratch
``solve_scalar_oracle`` of the flows it rated, and form a max-min
allocation (capacity feasibility and the bottleneck condition), and
every link the fill left out must end below the pruning line.
:func:`checked_array_fabric` runs it after every solve, full and
disjoint-delta, at every size; :func:`use_checked_fabric` puts that
fabric under ``run_single``.

:func:`spill_oracle` is the straightforward UGAL-L spill emulation
(scoring rows plus a backlog dict) that
``FlowRouteModel.spill_fast`` restructures; the two must return the
identical tuple of entries.

:func:`use_object_fabric` reaches the alternative production no longer
selects for ``run_single``: the object fabric.

The synthetic flow/unit stand-ins and instance builders below feed the
solver harnesses.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.flow.fabric import FlowFabric
from repro.flow.fabric_array import ArrayFlowFabric
from repro.flow.routes import SPILL_QUANTA, FlowEntry, FlowRouteModel
from repro.flow.solver import _BIND_RTOL, _BOTTLENECK_RTOL, _W_EPS, SAT_RTOL
from repro.routing import MINIMAL_BIAS_NS, NONMINIMAL_WEIGHT

__all__ = [
    "F",
    "U",
    "build",
    "check_fill",
    "checked_array_fabric",
    "emulate_oracle",
    "link_loads",
    "random_instance",
    "rates_of",
    "solve_scalar_oracle",
    "spill_oracle",
    "use_checked_fabric",
    "use_object_fabric",
]


def use_object_fabric(monkeypatch) -> None:
    """Make ``run_single`` build the object :class:`FlowFabric`.

    ``run_single`` imports ``ArrayFlowFabric`` from its module at call
    time, so patching the module attribute swaps the fabric for every
    flow cell run in this process.
    """
    monkeypatch.setattr("repro.flow.fabric_array.ArrayFlowFabric", FlowFabric)


def check_fill(
    fabric: ArrayFlowFabric,
    flows: Sequence[int],
    saturated: Sequence[int],
    left_out: Sequence[int],
) -> None:
    """Assert one array-fabric solve is ``solve_scalar_oracle``'s.

    ``flows`` are the flow slots the solve rated (every active flow,
    or a disjoint delta's admitted flows), ``saturated`` the links it
    returned, and ``left_out`` the links its fill skipped. Rebuilds
    those flows' units as stand-ins, solves them from scratch, and
    compares unit rates, flow rates and the saturated links with
    ``==``; then checks that no link carries more than its capacity,
    that every unit crosses a link allocated to capacity, and that
    every link in ``left_out`` carries at most ``bw * (1 -
    _BIND_RTOL)``: the premise on which skipping them moves no result.
    A disjoint delta's links carry none of the staying flows, so its
    loads are complete too.
    """
    units = [us for fs in flows for us in fabric._f_units[fs]]
    stand = [
        F([U(fabric._u_links[us]) for us in fabric._f_units[fs]]) for fs in flows
    ]
    assert list(saturated) == solve_scalar_oracle(stand, fabric.bw)
    assert [fabric._f_rate[fs] for fs in flows] == [f.rate for f in stand]
    assert [fabric._u_rate[us] for us in units] == [
        u.rate for f in stand for u in f.units
    ]
    bw = fabric.bw
    load = link_loads(bw, stand)
    for lid, carried in enumerate(load):
        assert carried <= bw[lid] * (1.0 + 1e-9), (lid, carried, bw[lid])
    for f in stand:
        for u in f.units:
            slack = min((bw[lid] - load[lid]) / bw[lid] for lid, _ in u.links)
            assert slack <= 1e-6, (slack, u.links)
    for lid in left_out:
        assert load[lid] <= bw[lid] * (1.0 - _BIND_RTOL), (lid, load[lid], bw[lid])


def checked_array_fabric(
    solves: list[tuple[int, int, bool]],
) -> type[ArrayFlowFabric]:
    """An :class:`ArrayFlowFabric` that runs :func:`check_fill` after
    every solve, full or disjoint-delta, and appends ``(units solved,
    links left out of the fill, whether the solved flows were a strict
    subset of the active ones)`` to ``solves``."""

    class CheckedArrayFlowFabric(ArrayFlowFabric):
        def _solve(self, flows, units, recs):
            # The fill resets the residual slot of every link it keeps,
            # so a slot still NaN afterwards marks a link it left out.
            recs = list(recs)
            for rec in recs:
                rec[1] = math.nan
            saturated = super()._solve(flows, units, recs)
            left_out = [rec[4] for rec in recs if math.isnan(rec[1])]
            check_fill(self, flows, saturated, left_out)
            solves.append(
                (len(units), len(left_out), len(flows) < len(self._act_flows))
            )
            return saturated

    return CheckedArrayFlowFabric


def use_checked_fabric(monkeypatch) -> list[tuple[int, int, bool]]:
    """Make ``run_single`` build :func:`checked_array_fabric` fabrics.

    Returns the list that collects each checked solve's ``(units
    solved, links left out, strict subset)``, across every flow cell
    run in this process.
    """
    solves: list[tuple[int, int, bool]] = []
    monkeypatch.setattr(
        "repro.flow.fabric_array.ArrayFlowFabric", checked_array_fabric(solves)
    )
    return solves


def spill_oracle(
    model: FlowRouteModel,
    src_node: int,
    dst_node: int,
    size: int,
    load: Sequence[float] | None,
) -> tuple[FlowEntry, ...]:
    """The reference form of ``FlowRouteModel.spill_fast``, unmemoised."""
    psize = model.packet_size
    cost_size = size if size < psize else psize
    quanta = -(-size // psize)
    if quanta > SPILL_QUANTA:
        quanta = SPILL_QUANTA
    static = model.scoring(src_node, dst_node, cost_size)
    if load is not None and not any(
        first >= 0 and load[first] != 0.0 for _unl, first, _hops, _e in static
    ):
        load = None
    return emulate_oracle(model, src_node, static, quanta, load)


def emulate_oracle(
    model: FlowRouteModel,
    src_node: int,
    static: tuple[tuple[float, int, int, FlowEntry], ...],
    quanta: int,
    load: Sequence[float] | None,
) -> tuple[FlowEntry, ...]:
    """The spill quantum loop over the scoring rows and a backlog dict.

    Packet-sized quanta are routed greedily with the packet policy's
    UGAL-L cost rule, each charged to its winner's first hop, and every
    backlog drains at link rate for the quantum's NIC serialisation time.
    """
    if not static:
        # An empty candidate set has nothing to spill onto; without
        # this guard the argmin sentinel (``best = -1``) would index
        # ``static[-1]`` — an IndexError on the empty tuple.
        return ()
    bw = model.bw
    wfac = NONMINIMAL_WEIGHT
    bias = MINIMAL_BIAS_NS
    psize = model.packet_size
    drain_dt = psize / bw[model.topo.terminal_in(src_node)]
    backlog: dict[int, float] = {}
    took = [False] * len(static)
    n_taken = 0
    for _ in range(quanta):
        best = -1
        best_cost = math.inf
        for i, (unl, first, hops, entry) in enumerate(static):
            if first < 0:
                cost = 0.0
            else:
                q = backlog.get(first)
                if q is None:
                    q = load[first] if load is not None else 0.0
                    backlog[first] = q
                cost = unl + q / bw[first] * hops
                if entry.nonmin_fraction:
                    cost = cost * wfac + bias
            if cost < best_cost:
                best_cost = cost
                best = i
        if not took[best]:
            took[best] = True
            n_taken += 1
            if n_taken == len(static):
                # Every candidate already participates: further quanta
                # only churn the backlog and cannot change the returned
                # spill set — stop exactly here.
                break
        first = static[best][1]
        if first < 0:
            break  # same-router: nothing ever beats the empty path
        backlog[first] += psize
        for lid in backlog:
            q = backlog[lid] - drain_dt * bw[lid]
            backlog[lid] = q if q > 0.0 else 0.0
    return tuple(row[3] for taken, row in zip(took, static) if taken)


class U:
    """Stand-in for the fabric's ``_Unit``: links + solver-set rate."""

    __slots__ = ("links", "rate")

    def __init__(self, links):
        self.links = tuple(links)
        self.rate = 0.0


class F:
    """Stand-in for the fabric's ``_Flow``: units + solver-set rate."""

    __slots__ = ("units", "rate")

    def __init__(self, units):
        self.units = tuple(units)
        self.rate = 0.0


def build(flow_specs):
    """Fresh mutable flow objects from a pure-data instance spec."""
    return [F([U(links) for links in units]) for units in flow_specs]


def random_instance(rng, max_links=12, max_flows=10):
    """A seeded random (caps, flow_specs) max-min instance."""
    n_links = rng.randint(1, max_links)
    caps = [rng.uniform(0.5, 100.0) for _ in range(n_links)]
    flow_specs = []
    for _ in range(rng.randint(1, max_flows)):
        units = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, min(4, n_links))
            lids = rng.sample(range(n_links), k)
            units.append([(lid, rng.uniform(0.25, 4.0)) for lid in lids])
        flow_specs.append(units)
    return caps, flow_specs


def link_loads(caps, flows):
    """Per-link load recomputed from the final unit rates."""
    load = [0.0] * len(caps)
    for f in flows:
        for u in f.units:
            for lid, w in u.links:
                load[lid] += w * u.rate
    return load


def rates_of(flows):
    return (
        [f.rate for f in flows],
        [u.rate for f in flows for u in f.units],
    )


def solve_scalar_oracle(flows: Sequence[Any], bw: Sequence[float]) -> list[int]:
    """Reference progressive filling (the historical in-fabric loop).

    Deterministic: link maps iterate in first-touch order, which is
    fixed by flow admission order, itself fixed by the simulator's
    total event order.
    """
    saturated: list[int] = []
    if not flows:
        return saturated

    weight: dict[int, float] = {}
    count: dict[int, int] = {}
    crossings: dict[int, int] = {}
    last_flow: dict[int, int] = {}
    users: dict[int, list[Any]] = {}
    n_unfrozen = 0
    for fi, f in enumerate(flows):
        for unit in f.units:
            unit.rate = -1.0  # sentinel: not yet frozen
            n_unfrozen += 1
            for lid, w in unit.links:
                if lid in weight:
                    weight[lid] += w
                    count[lid] += 1
                    users[lid].append(unit)
                else:
                    weight[lid] = w
                    count[lid] = 1
                    users[lid] = [unit]
                # Count distinct *flows* per link (units of one flow
                # sharing its terminals are not contention).
                if last_flow.get(lid) != fi:
                    last_flow[lid] = fi
                    crossings[lid] = crossings.get(lid, 0) + 1
    link_ids = list(weight)
    residual = {lid: bw[lid] for lid in link_ids}

    base = 0.0
    while n_unfrozen:
        step = math.inf
        for lid in link_ids:
            wsum = weight[lid]
            if wsum > _W_EPS:
                t = residual[lid] / wsum
                if t < step:
                    step = t
        if step is math.inf:  # pragma: no cover - defensive
            break
        base += step
        bottleneck: list[int] = []
        for lid in link_ids:
            wsum = weight[lid]
            if wsum > _W_EPS:
                r = residual[lid] - wsum * step
                residual[lid] = r
                if r <= bw[lid] * _BOTTLENECK_RTOL:
                    bottleneck.append(lid)
        progressed = False
        for lid in bottleneck:
            for unit in users[lid]:
                if unit.rate < 0.0:
                    unit.rate = base
                    n_unfrozen -= 1
                    progressed = True
                    for l2, w2 in unit.links:
                        weight[l2] -= w2
                        count[l2] -= 1
                        if count[l2] == 0:
                            # Retire by user count, not float residue:
                            # unit-by-unit subtraction can leave ~1e-16
                            # on an emptied link, which would keep it
                            # "shared" with residual 0 and stall the
                            # fill at a premature base rate.
                            weight[l2] = 0.0
        if not progressed:  # pragma: no cover - defensive
            break
    for f in flows:
        rate = 0.0
        for unit in f.units:
            if unit.rate < 0.0:  # pragma: no cover - defensive
                unit.rate = base
            rate += unit.rate
        f.rate = rate

    # Saturation proxy: a link counts as saturated only while it is a
    # contended bottleneck — allocated to capacity with two or more
    # flows competing for it. A lone flow pinned at its own bottleneck
    # is healthy progress, not congestion (the packet model's buffers
    # never fill there either).
    for lid in sorted(residual):
        if crossings[lid] >= 2 and residual[lid] <= bw[lid] * SAT_RTOL:
            saturated.append(lid)
    return saturated
