"""The historical max-min progressive fill, kept as the solvers' oracle.

:func:`solve_scalar_oracle` is the dict-based loop that
``repro.flow.solver.solve_scalar`` used to be, verbatim. Production
``solve_scalar`` restructures it into per-link list records with the
same float operations in the same order, so the two must agree with
``==`` on every unit rate, flow rate and saturated link; the numpy
``solve_vector`` path is measured against it to relative error.

The synthetic flow/unit stand-ins and instance builders below feed both
harnesses.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.flow.solver import _BOTTLENECK_RTOL, _W_EPS, SAT_RTOL

__all__ = [
    "F",
    "U",
    "build",
    "random_instance",
    "rates_of",
    "solve_scalar_oracle",
]


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
