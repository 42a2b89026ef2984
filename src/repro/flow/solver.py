"""Weighted max-min progressive filling for both flow fabrics.

:func:`fill` is the rate-allocation step behind every flow solve:
grow a uniform base rate across all unfrozen units, freeze every unit
crossing the first link(s) to saturate, remove their weight, and
repeat on the residual network. It is a pure-Python fill over one list
record per crossed link, bit-identical to the historical in-fabric
loop, which ``tests/flow_oracle.py`` keeps as the differential oracle.
:func:`solve_scalar` assembles its records from scratch for the object
fabric (:meth:`~repro.flow.fabric.FlowFabric._solve`);
``ArrayFlowFabric._solve`` resets them from the aggregates it
maintains. Links are retired by an integer
unfrozen-user *count* instead of by their floating-point weight
draining below ``_W_EPS``: unit-by-unit cancellation can leave ~1e-16
of residue on an emptied link, keeping it "shared" at residual 0 and
tripping the defensive no-progress break — freezing the tail of the
allocation at a premature base rate (found by the differential
harness; the property suite's bottleneck-condition test guards it).

Contract of :func:`solve_scalar`: given the active flows and the global
per-link capacity table, set ``unit.rate`` on every unit and ``f.rate``
(the sum of its units) on every flow, and return the sorted global
link ids that are *contended bottlenecks* — allocated to capacity
with two or more distinct flows crossing — which is the fabric's
saturation proxy.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

__all__ = [
    "SAT_RTOL",
    "fill",
    "solve_scalar",
]

#: Relative tolerance for "this link is saturated" in the solvers and
#: the fabric's saturation clock.
SAT_RTOL = 1e-9

#: A link whose unfrozen weight falls below this is no longer shared.
_W_EPS = 1e-15

#: Bottleneck detection tolerance (relative to link capacity): after a
#: filling round the binding link's residual is exact-zero up to one
#: division/multiply rounding, far inside this band.
_BOTTLENECK_RTOL = 1e-12

#: Pruning margin (relative to link capacity) of the array fabric's
#: fill: a link whose users' summed rate bounds stay below
#: ``bw * (1 - _BIND_RTOL)`` can never bind, so the fill leaves it
#: out. Far wider than ``SAT_RTOL``, so neither the feasibility slack
#: of the final rates nor drift in the maintained sum can matter.
_BIND_RTOL = 1e-3


def fill(
    alive: list[list[Any]],
    recs: Mapping[int, list[Any]],
    u_rate: list[float],
    u_links: Sequence[Sequence[tuple[int, float]]],
    n_unfrozen: int,
) -> tuple[float, list[list[Any]]]:
    """Progressive filling over the link records in ``alive``.

    Record contract: the fill reads slots [2] (``bw`` times the
    bottleneck tolerance), [5] (``bw`` times ``SAT_RTOL``) and [10]
    (the users' unit indices, in the order they freeze), and works in
    [0] (unfrozen weight), [1] (residual), [3] (unfrozen user count)
    and [6] (saturation flag). Every other slot is the caller's. On
    entry each record of ``alive`` holds its users' weight sum in [0],
    its capacity in [1], its user count in [3] and ``False`` in [6];
    every record of ``recs`` (link id -> record) that a unit crosses
    holds [0] and [3] too, since freezing a unit updates all its links.
    ``u_rate`` holds ``-1.0`` (not yet frozen) for each of the
    ``n_unfrozen`` units to solve; ``u_links`` gives each unit's
    ``(link id, weight)`` pairs.

    Sets ``u_rate`` of every unit it freezes and returns the final
    base rate (which a defensive break leaves for units still
    unfrozen) and the records whose residual entered the saturation
    band, in order of first crossing. Residuals only fall during the
    fill, so that equals a scan of the final residuals; the saturation
    band is wider than the bottleneck band. The records stay in
    ``alive``'s order until retired links are the majority; then the
    list is compacted, so later rounds scan only links still in play.
    """
    base = 0.0
    n_dead = 0
    saturated: list[list[Any]] = []
    while n_unfrozen:
        step = math.inf
        for rec in alive:
            wsum = rec[0]
            if wsum > _W_EPS:
                t = rec[1] / wsum
                if t < step:
                    step = t
        if step is math.inf:  # pragma: no cover - defensive
            break
        base += step
        bottleneck: list[list[Any]] = []
        for rec in alive:
            wsum = rec[0]
            if wsum > _W_EPS:
                r = rec[1] - wsum * step
                rec[1] = r
                if r <= rec[5]:
                    if not rec[6]:
                        rec[6] = True
                        saturated.append(rec)
                    if r <= rec[2]:
                        bottleneck.append(rec)
        progressed = False
        for rec in bottleneck:
            for u in rec[10]:
                if u_rate[u] < 0.0:
                    u_rate[u] = base
                    n_unfrozen -= 1
                    progressed = True
                    for l2, w2 in u_links[u]:
                        r2 = recs[l2]
                        r2[0] -= w2
                        c = r2[3] - 1
                        r2[3] = c
                        if c == 0:
                            # Retire by user count, not float residue:
                            # unit-by-unit subtraction can leave ~1e-16
                            # on an emptied link, which would keep it
                            # "shared" with residual 0 and stall the
                            # fill at a premature base rate.
                            r2[0] = 0.0
                            n_dead += 1
        if not progressed:  # pragma: no cover - defensive
            break
        # Retired links never regain weight; once they are the majority,
        # drop them. Rebuilding every round would append each survivor
        # per round — worse than the scans it saves when attrition is
        # slow.
        if n_dead * 2 > len(alive):
            alive = [rec for rec in alive if rec[0] > _W_EPS]
            n_dead = 0
    return base, saturated


def solve_scalar(flows: Sequence[Any], bw: Sequence[float]) -> list[int]:
    """:func:`fill` over records assembled from scratch.

    Assembly visits links in first-touch order (fixed by flow
    admission order, itself fixed by the simulator's total event
    order), so every float operation and its order is that of the
    historical dict loop, kept in ``tests/flow_oracle.py``, and
    results are bit-identical to it. Every crossed link is filled: no
    link is left out as in the array fabric.
    """
    if not flows:
        return []

    # Per-link record: :func:`fill`'s slots, plus [4] lid, [7]
    # distinct-flow crossings, [8] index of the last flow counted, [9]
    # unused.
    recs: dict[int, list] = {}
    u_links: list[Any] = []
    for fi, f in enumerate(flows):
        for unit in f.units:
            ui = len(u_links)
            u_links.append(unit.links)
            for lid, w in unit.links:
                rec = recs.get(lid)
                if rec is None:
                    b = bw[lid]
                    recs[lid] = [
                        w, b, b * _BOTTLENECK_RTOL, 1, lid, b * SAT_RTOL,
                        False, 1, fi, None, [ui],
                    ]
                else:
                    rec[0] += w
                    rec[3] += 1
                    rec[10].append(ui)
                    # Count distinct *flows* per link (units of one flow
                    # sharing its terminals are not contention).
                    if rec[8] != fi:
                        rec[8] = fi
                        rec[7] += 1

    rates = [-1.0] * len(u_links)  # -1.0: not yet frozen
    base, sat_recs = fill(list(recs.values()), recs, rates, u_links, len(rates))

    ui = 0
    for f in flows:
        total = 0.0
        for unit in f.units:
            r = rates[ui]
            ui += 1
            if r < 0.0:  # pragma: no cover - defensive
                r = base
            unit.rate = r
            total += r
        f.rate = total

    # Saturation proxy: a link counts as saturated only while it is a
    # contended bottleneck — allocated to capacity with two or more
    # flows competing for it. A lone flow pinned at its own bottleneck
    # is healthy progress, not congestion (the packet model's buffers
    # never fill there either).
    saturated = [rec[4] for rec in sat_recs if rec[7] >= 2]
    saturated.sort()
    return saturated
